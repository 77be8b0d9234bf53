package darshanldms_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// CLI smoke tests: build-and-run the user-facing binaries end to end.
// Skipped under -short (they pay `go run` compile time).

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIRunParseSummarize(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "job.darshan")
	csvPath := filepath.Join(dir, "events.csv")

	out := runCmd(t, "run", "./cmd/dlc-run",
		"-app", "hacc", "-fs", "Lustre", "-scale", "0.002",
		"-connector", "-encoder", "fast",
		"-log", logPath, "-csv", csvPath, "-seed", "3")
	if !strings.Contains(out, "wrote darshan log") {
		t.Fatalf("dlc-run output:\n%s", out)
	}

	parse := runCmd(t, "run", "./cmd/darshan-parser", logPath)
	for _, want := range []string{"# nprocs: 256", "POSIX_BYTES_WRITTEN", "X_POSIX"} {
		if !strings.Contains(parse, want) {
			t.Fatalf("darshan-parser missing %q", want)
		}
	}

	sum := runCmd(t, "run", "./cmd/darshan-summary", logPath)
	for _, want := range []string{"busiest files", "hacc-io-checkpoint.dat", "access-size histogram"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("darshan-summary missing %q:\n%s", want, sum)
		}
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 100 || !strings.HasPrefix(lines[0], "#module,") {
		t.Fatalf("csv: %d lines, header %q", len(lines), lines[0])
	}
}

func TestCLIExperimentsUnknownSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	// -only with a bogus suite name must exit non-zero and list the valid
	// names, not silently run nothing.
	cmd := exec.Command("go", "run", "./cmd/dlc-experiments", "-only", "bogus", "-out", t.TempDir())
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-only bogus exited zero:\n%s", out)
	}
	for _, want := range []string{`unknown suite "bogus"`, "2a,2b,2c", "scenario"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("error output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIExperimentsAdhocScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(spec, []byte(`# ad-hoc CLI smoke scenario
{
  "name": "cli-tiny",
  "horizon_s": 10,
  "fs": "Lustre",
  "cluster": {"nodes": 24, "ranks_per_node": 2},
  "arrival": {"kind": "poisson", "rate_per_s": 0.5, "max_jobs": 3},
  "jobs": [{"kind": "small-file", "weight": 1, "nodes": 2, "files_per_rank": 4, "file_bytes": 256}]
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "run", "./cmd/dlc-experiments", "-scenario", spec, "-seed", "7", "-out", dir)
	if !strings.Contains(out, "== scenario cli-tiny ==") || !strings.Contains(out, "small-file") {
		t.Fatalf("ad-hoc scenario output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "scenario-cli-tiny.txt")); err != nil {
		t.Fatal(err)
	}
}

func TestCLIExperimentsTinyPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	out := runCmd(t, "run", "./cmd/dlc-experiments",
		"-only", "2b", "-reps", "1", "-scale", "0.001", "-out", dir)
	if !strings.Contains(out, "Table IIb") || !strings.Contains(out, "Lustre/particles=10M") {
		t.Fatalf("experiments output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "table2b.txt")); err != nil {
		t.Fatal(err)
	}
}

// TestCLILdmsdRejectsIgnoredUplinkFlags: an uplink flag the selected
// uplink would ignore is a startup error naming the flag, in the same
// style as the -topo checks, while the two flag lines the benchmark
// spawns ldmsd with keep starting.
func TestCLILdmsdRejectsIgnoredUplinkFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ldmsd")
	runCmd(t, "build", "-o", bin, "./cmd/ldmsd")
	base := []string{"-listen", "127.0.0.1:0"}
	stream := filepath.Join(dir, "ldmsd.stream")

	rejected := []struct {
		name string
		args []string
		want string // the flag the error must name
	}{
		{"batch without an uplink", []string{"-batch", "64"}, "-batch "},
		{"batch on the best-effort uplink", []string{"-forward", "127.0.0.1:1", "-batch", "64"}, "-batch "},
		{"batch-age beside -stream", []string{"-forward", "127.0.0.1:1", "-reconnect", "-stream", stream, "-batch-age", "5ms"}, "-batch-age "},
		{"batch-bytes on the durable uplink", []string{"-forward", "127.0.0.1:1", "-stream", stream, "-batch-bytes", "4096"}, "-batch-bytes "},
		{"unknown spool policy without -reconnect", []string{"-spool-policy", "bogus"}, `"bogus"`},
		{"unknown spool policy with -reconnect", []string{"-forward", "127.0.0.1:1", "-reconnect", "-spool-policy", "bogus"}, `"bogus"`},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, append(base, tc.args...)...).CombinedOutput()
			if err == nil {
				t.Fatalf("ldmsd %v exited zero:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("error does not name %q:\n%s", tc.want, out)
			}
		})
	}

	// bench/proc.go's two flag lines (the uplink dials lazily, so a dead
	// upstream does not stop either from starting).
	accepted := [][]string{
		{"-forward", "127.0.0.1:1", "-stream", stream},
		{"-forward", "127.0.0.1:1", "-reconnect", "-spool", "100000", "-spool-policy", "block", "-batch", "64", "-batch-age", "5ms"},
	}
	for _, args := range accepted {
		cmd := exec.Command(bin, append(base, args...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		select {
		case err := <-exited:
			t.Fatalf("ldmsd %v exited at startup (%v):\n%s", args, err, stderr.String())
		case <-time.After(300 * time.Millisecond):
		}
		_ = cmd.Process.Signal(os.Interrupt)
		if err := <-exited; err != nil {
			t.Fatalf("ldmsd %v did not shut down cleanly (%v):\n%s", args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "listening on") {
			t.Fatalf("ldmsd %v never listened:\n%s", args, stderr.String())
		}
	}
}
