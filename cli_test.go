package darshanldms_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
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
	// -only with an unknown suite name must exit non-zero and list the
	// valid names, not silently run nothing. "pipeline" is the in-process
	// benchmark bench/ replaced: a script still passing it must fail loudly.
	bin := filepath.Join(t.TempDir(), "dlc-experiments")
	runCmd(t, "build", "-o", bin, "./cmd/dlc-experiments")
	for _, suite := range []string{"bogus", "pipeline"} {
		out, err := exec.Command(bin, "-only", suite, "-out", t.TempDir()).CombinedOutput()
		if err == nil {
			t.Fatalf("-only %s exited zero:\n%s", suite, out)
		}
		for _, want := range []string{fmt.Sprintf("unknown suite %q", suite), "2a,2b,2c", "topo,scenario"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("-only %s: error output missing %q:\n%s", suite, want, out)
			}
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

// A spec that validates must plan in seconds: each hostile spec here once
// passed Load, and then planned 0 jobs (a horizon past time.Duration),
// for hours (1e12 burst draws) or forever (an infinite thinning rate).
func TestCLIExperimentsRejectsHostileScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dlc-experiments")
	runCmd(t, "build", "-o", bin, "./cmd/dlc-experiments")
	cases := []struct{ name, arrival, horizon, want string }{
		{"horizon past the cap", `{"kind": "poisson", "rate_per_s": 1}`, "1e10", "scenario: horizon_s: must be at most"},
		{"bursts past the draw cap", `{"kind": "bursty", "burst_every_s": 1e-12, "burst_size": 1, "burst_jitter_s": 1e12}`, "5",
			"scenario: arrival: bursts draw"},
		{"diurnal peak rate past the draw cap", `{"kind": "diurnal", "rate_per_s": 1e308, "periods": [{"period_s": 10, "amplitude": 1}]}`, "10",
			"scenario: arrival: thinning draws"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := filepath.Join(dir, "hostile.json")
			if err := os.WriteFile(spec, []byte(`{"name": "hostile", "horizon_s": `+tc.horizon+`, "fs": "NFS",
  "cluster": {"nodes": 2}, "arrival": `+tc.arrival+`,
  "jobs": [{"kind": "checkpoint", "weight": 1}]}`), 0o644); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, "-scenario", spec, "-seed", "7", "-out", t.TempDir()).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running at its deadline:\n%s", out)
			}
			if err == nil || !strings.Contains(string(out), tc.want) {
				t.Fatalf("want a failure naming %q, got %v:\n%s", tc.want, err, out)
			}
		})
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
// style as the -topo checks — and saying what the -stream uplink sends
// instead, batch frames of its own rounds — while the two flag lines the
// benchmark spawns ldmsd with keep starting. An interval a ticker would
// panic on is a startup error as well.
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
		want string // what the error must name: the flag, and for a -batch* flag what -stream does instead
	}{
		{"batch without an uplink", []string{"-batch", "64"}, "-batch "},
		{"batch on the best-effort uplink", []string{"-forward", "127.0.0.1:1", "-batch", "64"}, "-batch "},
		{"batch-age beside -stream", []string{"-forward", "127.0.0.1:1", "-reconnect", "-stream", stream, "-batch-age", "5ms"}, "-batch-age "},
		{"batch-bytes on the durable uplink", []string{"-forward", "127.0.0.1:1", "-stream", stream, "-batch-bytes", "4096"}, "-batch-bytes "},
		{"batch-bytes on the spooled uplink", []string{"-forward", "127.0.0.1:1", "-reconnect", "-batch-bytes", "4096"}, "forwards each stored batch whole"},
		{"zero spool", []string{"-forward", "127.0.0.1:1", "-reconnect", "-spool", "0"}, "-spool 0:"},
		{"negative spool", []string{"-forward", "127.0.0.1:1", "-reconnect", "-spool", "-5"}, "-spool -5:"},
		{"negative batch", []string{"-forward", "127.0.0.1:1", "-reconnect", "-batch", "-3"}, "-batch -3:"},
		{"negative batch-age", []string{"-forward", "127.0.0.1:1", "-reconnect", "-batch-age", "-1ms"}, "-batch-age -1ms:"},
		{"negative stream-max-msgs", []string{"-stream", stream, "-stream-max-msgs", "-1"}, "-stream-max-msgs -1:"},
		{"negative stream-max-bytes", []string{"-stream", stream, "-stream-max-bytes", "-1"}, "-stream-max-bytes -1:"},
		{"negative stream-max-age", []string{"-stream", stream, "-stream-max-age", "-1s"}, "-stream-max-age -1s:"},
		{"the durable uplink's own rounds are named", []string{"-forward", "127.0.0.1:1", "-stream", stream, "-batch", "64"}, "rounds of up to 64 as batch frames"},
		{"unknown spool policy without -reconnect", []string{"-spool-policy", "bogus"}, `"bogus"`},
		{"unknown spool policy with -reconnect", []string{"-forward", "127.0.0.1:1", "-reconnect", "-spool-policy", "bogus"}, `"bogus"`},
		{"spool on the best-effort uplink", []string{"-forward", "127.0.0.1:1", "-spool", "4096"}, "-spool "},
		{"spool-policy beside -stream", []string{"-forward", "127.0.0.1:1", "-reconnect", "-stream", stream, "-spool-policy", "block"}, "-spool-policy "},
		{"heartbeat without an uplink", []string{"-heartbeat", "1s"}, "-heartbeat "},
		{"heartbeat on the best-effort uplink", []string{"-forward", "127.0.0.1:1", "-heartbeat", "1s"}, "-heartbeat "},
		{"stream-subjects without -stream", []string{"-stream-subjects", "darshan.>"}, "-stream-subjects "},
		{"stream-max-msgs without -stream", []string{"-stream-max-msgs", "10"}, "-stream-max-msgs "},
		{"stream-max-bytes without -stream", []string{"-stream-max-bytes", "4096"}, "-stream-max-bytes "},
		{"stream-max-age without -stream", []string{"-stream-max-age", "1m"}, "-stream-max-age "},
		{"stream-consumer on the spooled uplink", []string{"-forward", "127.0.0.1:1", "-reconnect", "-stream-consumer", "up"}, "-stream-consumer "},
		{"zero stats interval", []string{"-stats", "0"}, "-stats 0s"},
		{"zero sampler interval", []string{"-samplers", "meminfo", "-sample-interval", "0"}, "-sample-interval 0s"},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			// A daemon that accepts the flags would run forever: the
			// deadline turns that into a failure instead of a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, append(base, tc.args...)...).CombinedOutput()
			if err == nil {
				t.Fatalf("ldmsd %v exited zero:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("error does not name %q:\n%s", tc.want, out)
			}
		})
	}

	// bench/proc.go's two flag lines and -forward alone (the uplink dials
	// lazily, so a dead upstream does not stop any of them from starting).
	accepted := [][]string{
		{"-forward", "127.0.0.1:1"},
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

// TestCLIDsosdRejectsIgnoredStreamFlags: the ingest stream's flags are an
// error without -stream, as ldmsd's are, rather than silently unused; so
// is a shard count, replication factor or snapshot interval the daemon
// would clamp or panic on.
func TestCLIDsosdRejectsIgnoredStreamFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dsosd")
	runCmd(t, "build", "-o", bin, "./cmd/dsosd")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"stream-consumer without -stream", []string{"-stream-consumer", "ingest"}, "-stream-consumer "},
		{"stream-max-msgs without -stream", []string{"-wal", "wal", "-stream-max-msgs", "10"}, "-stream-max-msgs "},
		{"negative stream-max-msgs", []string{"-stream", "dsosd.stream", "-stream-max-msgs", "-1"}, "-stream-max-msgs -1:"},
		{"no shards", []string{"-daemons", "0"}, "-daemons 0"},
		{"replication above the shard count", []string{"-daemons", "2", "-replication", "3"}, "-replication 3"},
		{"zero replication", []string{"-replication", "0"}, "-replication 0"},
		{"zero snapshot interval", []string{"-snapshot-every", "0"}, "-snapshot-every 0s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, append([]string{"-listen", "127.0.0.1:0"}, tc.args...)...)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("dsosd %v exited zero:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("error does not name %q:\n%s", tc.want, out)
			}
		})
	}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// httpDo returns the status and body of one request against a daemon's
// HTTP API.
func httpDo(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// job7Event is the event TestCLIDsosd publishes for one rank of job 7.
func job7Event(rank int) jsonmsg.Message {
	return jsonmsg.Message{
		UID: 1, Exe: jsonmsg.NA, JobID: 7, Rank: rank, ProducerName: "nid00041",
		File: jsonmsg.NA, Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write",
		Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: 1024, Dur: 0.1, Timestamp: 1.6e9}},
	}
}

// TestCLIDsosd: dsosd's -topo flags are validated strictly, and both
// placement modes start, serve the HTTP API from the one client, stop
// cleanly on SIGTERM and leave one snapshot per shard under the file
// names each mode has always used.
func TestCLIDsosd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	bin := filepath.Join(t.TempDir(), "dsosd")
	runCmd(t, "build", "-o", bin, "./cmd/dsosd")

	for _, args := range [][]string{
		{"-topo-role", "leaf"},
		{"-topo-ring-seed", "42"},
	} {
		out, err := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...).CombinedOutput()
		if err == nil {
			t.Fatalf("dsosd %v exited zero:\n%s", args, out)
		}
		if !strings.Contains(string(out), "-topo-role") {
			t.Fatalf("dsosd %v: error does not name -topo-role:\n%s", args, out)
		}
	}

	// start spawns dsosd in its own directory and waits for /healthz.
	start := func(t *testing.T, args ...string) (cmd *exec.Cmd, dir, listen, api string, stderr *strings.Builder) {
		dir, listen, api = t.TempDir(), freeAddr(t), freeAddr(t)
		cmd = exec.Command(bin, append([]string{"-listen", listen, "-http", api, "-snapshot-every", "1h"}, args...)...)
		cmd.Dir = dir
		stderr = &strings.Builder{}
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cmd.Process.Kill() })
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get("http://" + api + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("dsosd %v never became healthy (%v):\n%s", args, err, stderr)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// stop sends SIGTERM and checks the exit status and the snapshot set.
	stop := func(t *testing.T, cmd *exec.Cmd, dir string, stderr *strings.Builder, want ...string) {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("dsosd did not shut down cleanly (%v):\n%s", err, stderr)
		}
		snaps, err := filepath.Glob(filepath.Join(dir, "darshan_data.sos*"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range snaps {
			snaps[i] = filepath.Base(snaps[i])
		}
		if !reflect.DeepEqual(snaps, want) {
			t.Fatalf("snapshots %v, want %v", snaps, want)
		}
	}

	// publish sends n events of job 7 and waits until /count shows them.
	publish := func(t *testing.T, listen, api string, n int, stderr *strings.Builder) {
		c, err := ldms.DialTCP(listen)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for rank := 0; rank < n; rank++ {
			m := job7Event(rank)
			if err := c.Publish(streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Data: jsonmsg.FastEncoder{}.Encode(&m)}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, body := httpDo(t, http.MethodGet, "http://"+api+"/count"); strings.TrimSpace(body) == strconv.Itoa(n) {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("/count = %q, want %d:\n%s", body, n, stderr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	t.Run("hash placement grows live", func(t *testing.T) {
		cmd, dir, listen, api, stderr := start(t, "-daemons", "3", "-topo-role", "store")
		base := "http://" + api
		if code, body := httpDo(t, http.MethodPost, base+"/topo/grow?shard=dsosd3"); code != http.StatusOK {
			t.Fatalf("POST /topo/grow = %d %s", code, body)
		}
		if code, body := httpDo(t, http.MethodGet, base+"/topo/stats"); code != http.StatusOK || !strings.HasPrefix(body, "members=4 migrations=1 ") {
			t.Fatalf("/topo/stats after one grow = %d %q", code, body)
		}
		publish(t, listen, api, 16, stderr)
		_, metrics := httpDo(t, http.MethodGet, base+"/metrics")
		for _, series := range []string{"dlc_dsos_shards 4", `dlc_dsos_shard_up{shard="dsosd3"} 1`, "dlc_store_dsos_objects_total 16", "topo_shard_members 4"} {
			if !strings.Contains(metrics, series) {
				t.Errorf("/metrics lacks %q", series)
			}
		}
		if code, body := httpDo(t, http.MethodGet, base+"/healthz"); code != http.StatusOK {
			t.Errorf("/healthz = %d %s", code, body)
		}
		if code, body := httpDo(t, http.MethodGet, base+"/query?job=7&limit=5"); code != http.StatusOK || strings.Count(body, "\n") != 6 {
			t.Errorf("/query?job=7&limit=5 = %d, want the header and 5 rows:\n%s", code, body)
		}
		for _, limit := range []string{"abc", "-1"} {
			if code, body := httpDo(t, http.MethodGet, base+"/query?limit="+limit); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
				t.Errorf("/query?limit=%s = %d %q, want a 400 naming limit", limit, code, body)
			}
		}
		// Every (index, job, rank, limit) shape returns the bytes the
		// per-cell fmt rendering produced: the header, then the matching
		// ranks in order (all 16 events share job and timestamp).
		for _, q := range []struct {
			params      string
			first, last int // ranks returned, first to last
		}{
			{"", 0, 15},
			{"?job=7", 0, 15},
			{"?job=7&rank=3", 3, 3},
			{"?job=7&rank=3&limit=1", 3, 3},
			{"?job=7&limit=5", 0, 4},
			{"?index=job_time_rank&job=7&rank=3", 0, 15},
			{"?index=job_time_rank&job=7&limit=7", 0, 6},
			{"?index=time_job_rank", 0, 15},
			{"?index=time_job_rank&limit=2", 0, 1},
			{"?job=8", 0, -1},
			{"?limit=0", 0, 15},
		} {
			want := jsonmsg.CSVHeader + "\n"
			for rank := q.first; rank <= q.last; rank++ {
				m := job7Event(rank)
				cells := []string{}
				for _, v := range dsos.ObjectsFromMessage(&m)[0].Values() {
					if f, ok := v.(float64); ok {
						cells = append(cells, strconv.FormatFloat(f, 'f', 6, 64))
					} else {
						cells = append(cells, fmt.Sprint(v))
					}
				}
				want += strings.Join(cells, ",") + "\n"
			}
			if code, body := httpDo(t, http.MethodGet, base+"/query"+q.params); code != http.StatusOK || body != want {
				t.Errorf("/query%s = %d:\n%s\nwant:\n%s", q.params, code, body, want)
			}
		}
		// A job filter on an index ordered by time first would seek an
		// int64 into float64 keys; it is a 400 naming the index, and the
		// daemon keeps serving.
		if code, body := httpDo(t, http.MethodGet, base+"/query?index=time_job_rank&job=3"); code != http.StatusBadRequest || !strings.Contains(body, "time_job_rank") {
			t.Errorf("/query?index=time_job_rank&job=3 = %d %q, want a 400 naming the index", code, body)
		}
		if code, body := httpDo(t, http.MethodGet, base+"/count"); code != http.StatusOK || strings.TrimSpace(body) != "16" {
			t.Errorf("/count after the bad query = %d %q, want 16", code, body)
		}
		stop(t, cmd, dir, stderr, "darshan_data.sos.dsosd0", "darshan_data.sos.dsosd1", "darshan_data.sos.dsosd2", "darshan_data.sos.dsosd3")
	})

	// bench/proc.go's dsosd flag line.
	t.Run("round-robin", func(t *testing.T) {
		cmd, dir, _, api, stderr := start(t, "-daemons", "4")
		if code, body := httpDo(t, http.MethodGet, "http://"+api+"/count"); code != http.StatusOK || strings.TrimSpace(body) != "0" {
			t.Errorf("/count = %d %q, want 0", code, body)
		}
		if code, _ := httpDo(t, http.MethodPost, "http://"+api+"/topo/grow?shard=dsosd4"); code != http.StatusNotFound {
			t.Errorf("/topo/grow is mounted without -topo-role store (%d)", code)
		}
		stop(t, cmd, dir, stderr, "darshan_data.sos", "darshan_data.sos.1", "darshan_data.sos.2", "darshan_data.sos.3")
	})

	// Without -stream dsosd stores through the same dedup chain as with
	// it: a stamped batch frame an uplink resends after a redial is
	// stored once.
	t.Run("a resent frame is stored once", func(t *testing.T) {
		cmd, dir, listen, api, stderr := start(t, "-daemons", "2")
		frame := make([]streams.Message, 64)
		for i := range frame {
			m := job7Event(i)
			m.Seq = uint64(i + 1)
			frame[i] = streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Record: event.NewRecord(&m, nil), Producer: "nid00041", Seq: m.Seq}
		}
		conn, err := net.Dial("tcp", listen)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := ldms.WriteBatchFrame(conn, frame); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, metrics := httpDo(t, http.MethodGet, "http://"+api+"/metrics")
			if strings.Contains("\n"+metrics, "\ndlc_dedup_duplicates_total 64\n") {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("/metrics never showed 64 duplicates:\n%s\n%s", metrics, stderr)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if code, body := httpDo(t, http.MethodGet, "http://"+api+"/count"); code != http.StatusOK || strings.TrimSpace(body) != "64" {
			t.Errorf("/count = %d %q, want 64", code, body)
		}
		stop(t, cmd, dir, stderr, "darshan_data.sos", "darshan_data.sos.1")
	})

	// The shutdown snapshot is the store as it stood: dsosql on the shard
	// file prints the bytes the live /query did, for one job and rank and
	// for the whole job, over 600 rows (two sealed pages and an open one).
	t.Run("snapshot reads as the live query", func(t *testing.T) {
		sql := filepath.Join(t.TempDir(), "dsosql")
		runCmd(t, "build", "-o", sql, "./cmd/dsosql")
		cmd, dir, listen, api, stderr := start(t, "-daemons", "1")
		c, err := ldms.DialTCP(listen)
		if err != nil {
			t.Fatal(err)
		}
		const n = 600
		for i := 0; i < n; i++ {
			m := job7Event(i % 8)
			m.Seg[0].Timestamp += float64(i)
			if err := c.Publish(streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Data: jsonmsg.FastEncoder{}.Encode(&m)}); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, body := httpDo(t, http.MethodGet, "http://"+api+"/count"); strings.TrimSpace(body) == strconv.Itoa(n) {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("/count = %q, want %d:\n%s", body, n, stderr)
			}
			time.Sleep(10 * time.Millisecond)
		}
		queries := [][2]string{
			{"?job=7&rank=3", "-job=7 -rank=3"},
			{"?job=7", "-job=7"},
			{"?index=time_job_rank&limit=250", "-index=time_job_rank -limit=250"},
			{"?index=job_time_rank&job=7", "-index=job_time_rank -job=7"},
		}
		live := make([]string, len(queries))
		for i, q := range queries {
			code, body := httpDo(t, http.MethodGet, "http://"+api+"/query"+q[0])
			if code != http.StatusOK || strings.Count(body, "\n") < 2 {
				t.Fatalf("/query%s = %d:\n%s", q[0], code, body)
			}
			live[i] = body
		}
		stop(t, cmd, dir, stderr, "darshan_data.sos")
		if !regexp.MustCompile(`dsosd: snapshot darshan_data.sos \(1 shards, 600 objects, 600 stored\): [1-9][0-9]* bytes in [0-9]+ ms\n`).MatchString(stderr.String()) {
			t.Errorf("no snapshot line with its bytes and time on stderr:\n%s", stderr)
		}
		for i, q := range queries {
			out, err := exec.Command(sql, append([]string{"-snapshot", filepath.Join(dir, "darshan_data.sos")}, strings.Fields(q[1])...)...).Output()
			if err != nil {
				t.Fatalf("dsosql %s: %v", q[1], err)
			}
			if string(out) != live[i] {
				t.Errorf("dsosql %s prints other bytes than /query%s:\n%s\nwant:\n%s", q[1], q[0], out, live[i])
			}
		}
	})

	// The temporary a snapshot is written to must sit beside -snapshot, or
	// the rename onto it fails (EXDEV) whenever that is another filesystem
	// than the working directory, and the store never reaches disk.
	t.Run("snapshot outside the working directory", func(t *testing.T) {
		snapDir := filepath.Join(dirOnAnotherFilesystem(t), "sub")
		if err := os.Mkdir(snapDir, 0o755); err != nil {
			t.Fatal(err)
		}
		snapPath := filepath.Join(snapDir, "data.sos")
		cmd, dir, listen, api, stderr := start(t, "-daemons", "1", "-snapshot", snapPath)
		publish(t, listen, api, 5, stderr)
		stop(t, cmd, dir, stderr) // no snapshot under the default name in the working directory
		f, err := os.Open(snapPath)
		if err != nil {
			t.Fatalf("no snapshot at -snapshot: %v\n%s", err, stderr)
		}
		defer f.Close()
		cont, err := sos.Restore(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := cont.Count(dsos.DarshanSchemaName); got != 5 {
			t.Errorf("restored %d objects, want 5", got)
		}
		for _, d := range []string{dir, snapDir} {
			if left, _ := filepath.Glob(filepath.Join(d, "*.tmp")); len(left) > 0 {
				t.Errorf("temporary snapshot left behind: %v", left)
			}
		}
	})
}

// TestCLIWebReplay: dlc-web -replay streams its demo campaign into the
// store it serves, through a durable stream and ldms.IngestStream, and
// the served store ends up holding every event the campaign stored.
func TestCLIWebReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	bin := filepath.Join(t.TempDir(), "dlc-web")
	runCmd(t, "build", "-o", bin, "./cmd/dlc-web")
	addr := freeAddr(t)
	stderr := startDaemon(t, bin, "-addr", addr, "-jobs", "2", "-scale", "0.02", "-replay", "1000")
	const stored = "campaign stored "
	waitStderr(t, "the dashboard", stderr, func() bool { return strings.Contains(stderr.String(), "dashboard at") })
	out := stderr.String()
	want := -1
	if i := strings.Index(out, stored); i >= 0 {
		fmt.Sscanf(out[i+len(stored):], "%d", &want)
	}
	if want <= 0 {
		t.Fatalf("no campaign size on stderr:\n%s", out)
	}
	series := "\ndlc_store_dsos_objects_total " + strconv.Itoa(want) + "\n"
	waitStderr(t, "every replayed event in the served store", stderr, func() bool {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return err == nil && strings.Contains(string(body), series)
	})
	if strings.Contains(stderr.String(), "dlc-web: ingest") {
		t.Errorf("dlc-web reported an ingest error:\n%s", stderr)
	}
}

// dirOnAnotherFilesystem returns a scratch directory on a filesystem other
// than t.TempDir()'s where the host has one (/dev/shm on Linux), so a
// rename between the two is a real cross-device rename; else any scratch
// directory, and the log says the EXDEV path was not exercised.
func dirOnAnotherFilesystem(t *testing.T) string {
	t.Helper()
	if dir, err := os.MkdirTemp("/dev/shm", "dlc-cli-test-*"); err == nil {
		t.Cleanup(func() { os.RemoveAll(dir) })
		probe := filepath.Join(t.TempDir(), "probe")
		if os.WriteFile(probe, nil, 0o644) == nil && errors.Is(os.Rename(probe, filepath.Join(dir, "probe")), syscall.EXDEV) {
			return dir
		}
	}
	t.Log("no second filesystem found (/dev/shm absent or on the temp dir's device): the cross-device rename is NOT exercised by this run")
	return t.TempDir()
}

// lockedBuffer is a daemon's stderr: written by the exec copier while the
// test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// lastStat returns the value of key in the daemon's most recent stats
// line ("... sent=2496 ... floor=2496 ..."), or -1 when there is none yet.
func lastStat(stderr, key string) int {
	i := strings.LastIndex(stderr, " "+key+"=")
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(strings.FieldsFunc(stderr[i+len(key)+2:], func(r rune) bool { return r < '0' || r > '9' })[0])
	if err != nil {
		return -1
	}
	return n
}

// TestCLIDurablePathEndToEnd crosses both daemons' durable paths with
// real binaries, sockets and files: ldmsd -stream -forward into dsosd
// -stream -wal, typed events in 64-event batch frames, ldmsd SIGTERMed and
// restarted mid-stream on the same segment file. Every event is stored
// exactly once, one rank's rows match what was sent, nothing at rest in
// either stream is JSON, and ldmsd's books balance across the restart.
func TestCLIDurablePathEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	bins := t.TempDir()
	ldmsdBin, dsosdBin := filepath.Join(bins, "ldmsd"), filepath.Join(bins, "dsosd")
	runCmd(t, "build", "-o", ldmsdBin, "./cmd/ldmsd")
	runCmd(t, "build", "-o", dsosdBin, "./cmd/dsosd")

	waitUntil := func(what string, stderr fmt.Stringer, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s:\n%s", what, stderr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	spawn := func(bin, dir string, args ...string) (*exec.Cmd, *lockedBuffer) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		stderr := &lockedBuffer{}
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cmd.Process.Kill() })
		return cmd, stderr
	}

	dsosdDir, ldmsdDir := t.TempDir(), t.TempDir()
	storeAddr, api, nodeAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	dsosd, dsosdErr := spawn(dsosdBin, dsosdDir, "-listen", storeAddr, "-http", api, "-daemons", "2",
		"-snapshot-every", "1h", "-stream", "dsosd.stream", "-wal", "wal")
	waitUntil("dsosd /healthz", dsosdErr, func() bool {
		resp, err := http.Get("http://" + api + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	startLdmsd := func() (*exec.Cmd, *lockedBuffer) {
		cmd, stderr := spawn(ldmsdBin, ldmsdDir, "-listen", nodeAddr, "-forward", storeAddr,
			"-stream", "ldmsd.stream", "-stats", "50ms", "-producer", "nid00040")
		waitUntil("ldmsd listening", stderr, func() bool { return ldms.PingTCP(nodeAddr, 200*time.Millisecond) == nil })
		return cmd, stderr
	}
	countAt := func(api string) int {
		_, body := httpDo(t, http.MethodGet, "http://"+api+"/count")
		n, _ := strconv.Atoi(strings.TrimSpace(body))
		return n
	}
	count := func() int { return countAt(api) }

	const events, frame, ranks, refRank = 5000, 64, 8, 3
	var wantRows int
	var wantLen int64
	mkEvent := func(i int) (*jsonmsg.Message, streams.Message) {
		seq := uint64(i + 1)
		m := &jsonmsg.Message{
			UID: 99066, Exe: "/projects/mpi-io-test", JobID: 7, Rank: i % ranks, ProducerName: "nid00040",
			File: "/nscratch/mpi-io-test.dat", RecordID: 9, Module: "POSIX", Type: jsonmsg.TypeMOD,
			MaxByte: -1, Switches: -1, Flushes: -1, Cnt: 1, Op: "write", Seq: seq,
			Seg: []jsonmsg.Segment{{
				DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1, NPoints: -1,
				Off: int64(i) * 4096, Len: int64(1 + i%977), Dur: 0.000125, Timestamp: jsonmsg.Quant6(1.6e9 + float64(i)/1000),
			}},
		}
		return m, streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Record: event.NewRecord(m, nil), Producer: "nid00040", Seq: seq}
	}
	msgs := make([]streams.Message, events)
	for i := range msgs {
		var m *jsonmsg.Message
		m, msgs[i] = mkEvent(i)
		if m.Rank == refRank {
			wantRows++
			wantLen += m.Seg[0].Len
		}
	}
	sendTo := func(addr string, batch []streams.Message) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for len(batch) > 0 {
			n := min(frame, len(batch))
			if err := ldms.WriteBatchFrame(conn, batch[:n]); err != nil {
				t.Fatal(err)
			}
			batch = batch[n:]
		}
	}
	send := func(batch []streams.Message) { sendTo(nodeAddr, batch) }

	// First half, then SIGTERM ldmsd once it has forwarded all of it.
	const half = 39 * frame
	ldmsd, ldmsdErr := startLdmsd()
	send(msgs[:half])
	waitUntil("first half stored", dsosdErr, func() bool { return count() == half })
	// The uplink counts a round sent after its flush returns, which can be
	// after the round's ack moved the floor: wait for both.
	waitUntil("first incarnation's books", ldmsdErr, func() bool {
		s := ldmsdErr.String()
		return lastStat(s, "floor") == half && lastStat(s, "sent") >= half
	})
	sentFirst := lastStat(ldmsdErr.String(), "sent")
	if err := ldmsd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := ldmsd.Wait(); err != nil {
		t.Fatalf("ldmsd did not shut down cleanly (%v):\n%s", err, ldmsdErr)
	}

	// Restart on the same segment file: the stream and the cursor resume.
	ldmsd, ldmsdErr = startLdmsd()
	if !strings.Contains(ldmsdErr.String(), fmt.Sprintf("recovered seqs [1,%d]", half)) ||
		!strings.Contains(ldmsdErr.String(), fmt.Sprintf("floor %d)", half)) {
		t.Fatalf("restarted ldmsd did not resume stream and cursor at %d:\n%s", half, ldmsdErr)
	}
	send(msgs[half:])
	waitUntil("everything stored", dsosdErr, func() bool { return count() == events })
	waitUntil("second incarnation's books", ldmsdErr, func() bool {
		s := ldmsdErr.String()
		return lastStat(s, "floor") == events && sentFirst+lastStat(s, "sent") >= events
	})
	if sent := sentFirst + lastStat(ldmsdErr.String(), "sent"); sent != events {
		t.Errorf("ldmsd sent %d messages across the restart, want exactly %d", sent, events)
	}
	if lag := lastStat(ldmsdErr.String(), "lag"); lag != 0 {
		t.Errorf("ldmsd lag %d with the floor at the stream's last sequence", lag)
	}
	time.Sleep(100 * time.Millisecond) // a duplicate would land after the count first reads 5000
	if n := count(); n != events {
		t.Fatalf("/count = %d, want exactly %d", n, events)
	}

	// One rank's rows are the rows that were sent.
	code, body := httpDo(t, http.MethodGet, fmt.Sprintf("http://%s/query?job=7&rank=%d", api, refRank))
	lines := strings.Split(strings.TrimSpace(body), "\n")[1:]
	if code != http.StatusOK || len(lines) != wantRows {
		t.Fatalf("/query rank %d: status %d, %d rows, want %d", refRank, code, len(lines), wantRows)
	}
	var gotLen int64
	for _, line := range lines {
		cells := strings.Split(line, ",")
		n, err := strconv.ParseInt(cells[jsonmsg.ColSegLen], 10, 64)
		if err != nil || cells[jsonmsg.ColModule] != "POSIX" {
			t.Fatalf("row %q", line)
		}
		gotLen += n
	}
	if gotLen != wantLen {
		t.Errorf("rank %d: sum(seg_len) = %d, want %d", refRank, gotLen, wantLen)
	}

	for _, d := range []struct {
		cmd    *exec.Cmd
		stderr *lockedBuffer
	}{{ldmsd, ldmsdErr}, {dsosd, dsosdErr}} {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := d.cmd.Wait(); err != nil {
			t.Fatalf("daemon did not shut down cleanly (%v):\n%s", err, d.stderr)
		}
	}
	if strings.Contains(dsosdErr.String(), "ingest:") {
		t.Errorf("dsosd reported ingest errors:\n%s", dsosdErr)
	}
	// Nothing at rest is JSON: both segments hold the binary batch codec.
	for _, path := range []string{filepath.Join(ldmsdDir, "ldmsd.stream"), filepath.Join(dsosdDir, "dsosd.stream")} {
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg) == 0 || bytes.Contains(seg, []byte(`"seg":[`)) {
			t.Errorf("%s: %d bytes, JSON at rest: %v", filepath.Base(path), len(seg), bytes.Contains(seg, []byte(`"seg":[`)))
		}
		if per := len(seg) / events; per > 250 {
			t.Errorf("%s: %d bytes per event at rest", filepath.Base(path), per)
		}
	}

	// SIGKILL dsosd while its ingest lags the stream: n events sent
	// straight to it, dsosd killed once its ingest stream has appended all
	// of them — so the TCP hop's window is not what is measured — at k
	// quarters of the way through the backlog left then, and restarted on
	// the same -stream and -wal. The restart replays each shard log up to the ingest floor and
	// the stream redelivers the rest: /count must come back exactly n.
	const n = 20000
	killMsgs := make([]streams.Message, n)
	for i := range killMsgs {
		_, killMsgs[i] = mkEvent(i)
	}
	metric := func(api, series string) int {
		_, body := httpDo(t, http.MethodGet, "http://"+api+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, _ := strconv.ParseFloat(v, 64)
				return int(f)
			}
		}
		return -1
	}
	for k := 0; k < 4; k++ {
		dir := t.TempDir()
		listen, api := freeAddr(t), freeAddr(t)
		args := []string{"-listen", listen, "-http", api, "-daemons", "2", "-snapshot-every", "1h", "-stream", "dsosd.stream", "-wal", "wal"}
		healthy := func(stderr fmt.Stringer) {
			waitUntil("dsosd /healthz", stderr, func() bool {
				resp, err := http.Get("http://" + api + "/healthz")
				if err != nil {
					return false
				}
				resp.Body.Close()
				return resp.StatusCode == http.StatusOK
			})
		}
		victim, victimErr := spawn(dsosdBin, dir, args...)
		healthy(victimErr)
		sendTo(listen, killMsgs)
		waitUntil("every event appended", victimErr, func() bool {
			return metric(api, `dlc_stream_appended_total{stream="dsosd-ingest"}`) == n
		})
		atKill := countAt(api)
		for target := atKill + k*(n-atKill)/4; atKill < target; {
			atKill = countAt(api)
		}
		if err := victim.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = victim.Wait()

		restarted, restartedErr := spawn(dsosdBin, dir, args...)
		healthy(restartedErr)
		waitUntil("the backlog re-ingested", restartedErr, func() bool { return countAt(api) >= n })
		time.Sleep(200 * time.Millisecond) // a duplicate would land after the count first reads n
		got := countAt(api)
		t.Logf("SIGKILL at kill point %d: count %d at the kill, %d after the restart", k, atKill, got)
		if got != n {
			t.Fatalf("SIGKILL at kill point %d, with %d of %d ingested: /count = %d after the restart, want exactly %d\n%s",
				k, atKill, n, got, n, restartedErr)
		}
		if err := restarted.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := restarted.Wait(); err != nil {
			t.Fatalf("restarted dsosd did not shut down cleanly (%v):\n%s", err, restartedErr)
		}
	}
}

// TestCLILdmsdCountSeries pins what ldmsd's count series read on the
// durable path: ldmsd -stream -http forwarding into dsosd -stream, N
// typed events in batch frames and one legacy JSON frame. The message
// count is every event received on the tag, whichever way the frame
// reached the stream, and the byte count the literal payload bytes
// received: the JSON frame's, as typed records materialize none.
func TestCLILdmsdCountSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	ldmsdBin, dsosdBin := buildDaemons(t)
	spawn := func(bin string, args ...string) *lockedBuffer { return startDaemon(t, bin, args...) }
	waitUntil := func(what string, stderr fmt.Stringer, cond func() bool) {
		t.Helper()
		waitStderr(t, what, stderr, cond)
	}
	storeAddr, storeAPI, nodeAddr, nodeAPI := freeAddr(t), freeAddr(t), freeAddr(t), freeAddr(t)
	dsosdErr := spawn(dsosdBin, "-listen", storeAddr, "-http", storeAPI, "-snapshot-every", "1h", "-stream", "dsosd.stream")
	ldmsdErr := spawn(ldmsdBin, "-listen", nodeAddr, "-http", nodeAPI, "-forward", storeAddr,
		"-stream", "ldmsd.stream", "-stats", "50ms", "-producer", "nid00040")
	waitUntil("ldmsd listening", ldmsdErr, func() bool { return ldms.PingTCP(nodeAddr, 200*time.Millisecond) == nil })

	const frames, frame = 10, 64
	events := make([]streams.Message, frames*frame+1)
	for i := range events {
		m := &jsonmsg.Message{
			UID: 99066, Exe: "/projects/mpi-io-test", JobID: 7, Rank: i % 8, ProducerName: "nid00040",
			File: "/nscratch/mpi-io-test.dat", RecordID: 9, Module: "POSIX", Type: jsonmsg.TypeMOD,
			MaxByte: -1, Switches: -1, Flushes: -1, Cnt: 1, Op: "write", Seq: uint64(i + 1),
			Seg: []jsonmsg.Segment{{
				DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1, NPoints: -1,
				Off: int64(i) * 4096, Len: 4096, Dur: 0.000125, Timestamp: jsonmsg.Quant6(1.6e9 + float64(i)/1000),
			}},
		}
		events[i] = streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Record: event.NewRecord(m, nil), Producer: "nid00040", Seq: m.Seq}
	}
	legacy := events[len(events)-1]
	legacy.Data, legacy.Record = legacy.Record.Payload(), nil
	conn, err := net.Dial("tcp", nodeAddr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := ldms.WriteBatchFrame(conn, events[i*frame:(i+1)*frame]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ldms.WriteFrame(conn, legacy); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	n := len(events)
	waitUntil("every event stored", dsosdErr, func() bool {
		_, body := httpDo(t, http.MethodGet, "http://"+storeAPI+"/count")
		return strings.TrimSpace(body) == strconv.Itoa(n)
	})
	waitUntil("received=N on ldmsd's stats line", ldmsdErr, func() bool { return lastStat(ldmsdErr.String(), "received") == n })
	_, metrics := httpDo(t, http.MethodGet, "http://"+nodeAPI+"/metrics")
	for name, want := range map[string]int{
		"dlc_store_count_messages_total": n,
		"dlc_store_count_bytes_total":    len(legacy.Data),
	} {
		if !strings.Contains(metrics, "\n"+name+" "+strconv.Itoa(want)+"\n") {
			t.Errorf("ldmsd /metrics: want %s %d in\n%s", name, want, metrics)
		}
	}
	if got := lastStat(ldmsdErr.String(), "stored-bytes"); got != len(legacy.Data) {
		t.Errorf("stored-bytes=%d, want %d", got, len(legacy.Data))
	}
}

// buildDaemons builds ldmsd and dsosd into a scratch directory.
func buildDaemons(t *testing.T) (ldmsd, dsosd string) {
	bins := t.TempDir()
	ldmsd, dsosd = filepath.Join(bins, "ldmsd"), filepath.Join(bins, "dsosd")
	runCmd(t, "build", "-o", ldmsd, "./cmd/ldmsd")
	runCmd(t, "build", "-o", dsosd, "./cmd/dsosd")
	return ldmsd, dsosd
}

// startDaemon starts bin in a scratch directory, killed at cleanup, and
// returns its stderr.
func startDaemon(t *testing.T, bin string, args ...string) *lockedBuffer {
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	stderr := &lockedBuffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	return stderr
}

// waitStderr waits up to 20s for cond, failing with the daemon's stderr.
func waitStderr(t *testing.T, what string, stderr fmt.Stringer, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s:\n%s", what, stderr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCLIReconnectSendsBatchFrames: ldmsd -reconnect without -batch takes
// legacy JSON frames in and forwards batch frames of its rounds, never
// one legacy frame per message, and dsosd stores every event.
func TestCLIReconnectSendsBatchFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	ldmsdBin, dsosdBin := buildDaemons(t)
	storeAddr, storeAPI, nodeAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	dsosdErr := startDaemon(t, dsosdBin, "-listen", storeAddr, "-http", storeAPI, "-snapshot-every", "1h")
	ldmsdErr := startDaemon(t, ldmsdBin, "-listen", nodeAddr, "-forward", storeAddr, "-reconnect")
	waitStderr(t, "ldmsd listening", ldmsdErr, func() bool { return ldms.PingTCP(nodeAddr, 200*time.Millisecond) == nil })

	c, err := ldms.DialTCP(nodeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	for rank := 0; rank < n; rank++ {
		m := job7Event(rank)
		if err := c.Publish(streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Data: jsonmsg.FastEncoder{}.Encode(&m)}); err != nil {
			t.Fatal(err)
		}
	}
	waitStderr(t, "every event stored", dsosdErr, func() bool {
		_, body := httpDo(t, http.MethodGet, "http://"+storeAPI+"/count")
		return strings.TrimSpace(body) == strconv.Itoa(n)
	})
	_, metrics := httpDo(t, http.MethodGet, "http://"+storeAPI+"/metrics")
	if !strings.Contains(metrics, "\n"+`dlc_tcp_frames_total{srv="dsosd"} 0`+"\n") ||
		strings.Contains(metrics, "\n"+`dlc_tcp_batch_frames_total{srv="dsosd"} 0`+"\n") {
		t.Errorf("dsosd received legacy frames, or no batch frame, from ldmsd -reconnect:\n%s", metrics)
	}
}

// TestCLIStreamRetentionBoundsTheSegment pushes ~4 MiB of events through
// ldmsd -stream -stream-max-msgs 1000 into dsosd in paced rounds, passing
// the 1 MiB compaction floor several times: after every round the segment
// file holds at most twice the window's bytes plus 1 MiB and a round,
// where without compaction it grows with every event ever received. ldmsd
// is SIGKILLed once mid-run and restarted on the same file: the stream
// reopens at the head it had and the uplink cursor at its floor, and
// dsosd ends up storing every event exactly once.
func TestCLIStreamRetentionBoundsTheSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	ldmsdBin, dsosdBin := buildDaemons(t)
	storeAddr, api, nodeAddr, ldmsdAPI := freeAddr(t), freeAddr(t), freeAddr(t), freeAddr(t)
	dsosdErr := startDaemon(t, dsosdBin, "-listen", storeAddr, "-http", api, "-daemons", "1", "-snapshot-every", "1h")
	waitStderr(t, "dsosd listening", dsosdErr, func() bool { return ldms.PingTCP(storeAddr, 200*time.Millisecond) == nil })
	dir := t.TempDir()
	segPath := filepath.Join(dir, "ldmsd.stream")
	start := func() (*exec.Cmd, *lockedBuffer) {
		cmd := exec.Command(ldmsdBin, "-listen", nodeAddr, "-forward", storeAddr, "-http", ldmsdAPI,
			"-stream", "ldmsd.stream", "-stream-max-msgs", "1000", "-stats", "20ms", "-producer", "nid00040")
		cmd.Dir = dir
		stderr := &lockedBuffer{}
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
		waitStderr(t, "ldmsd listening", stderr, func() bool { return ldms.PingTCP(nodeAddr, 200*time.Millisecond) == nil })
		return cmd, stderr
	}
	// Each event names a file of its own, so each costs about a KiB of
	// segment and a few thousand pass the floor several times.
	const rounds, round, window, floor = 8, 512, 1000, 1 << 20
	event := func(i int) streams.Message {
		m := &jsonmsg.Message{
			UID: 99066, Exe: "/projects/mpi-io-test", JobID: 7, Rank: i % 8, ProducerName: "nid00040",
			File: fmt.Sprintf("/nscratch/%01000d", i), RecordID: 9, Module: "POSIX", Type: jsonmsg.TypeMOD,
			MaxByte: -1, Switches: -1, Flushes: -1, Cnt: 1, Op: "write", Seq: uint64(i + 1),
			Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1, NPoints: -1,
				Off: int64(i) * 4096, Len: 4096, Dur: 0.000125, Timestamp: jsonmsg.Quant6(1.6e9 + float64(i)/1000)}},
		}
		return streams.Message{Tag: "darshanConnector", Type: streams.TypeJSON, Record: event.NewRecord(m, nil), Producer: "nid00040", Seq: uint64(i + 1)}
	}
	send := func(from, n int) {
		t.Helper()
		conn, err := net.Dial("tcp", nodeAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		batch := make([]streams.Message, 0, 64)
		for i := from; i < from+n; i++ {
			if batch = append(batch, event(i)); len(batch) == cap(batch) || i == from+n-1 {
				if err := ldms.WriteBatchFrame(conn, batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	segSize := func() int64 {
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	cmd, stderr := start()
	var perEvent, peak int64
	sent := 0
	for r := 0; r < rounds; r++ {
		send(sent, round)
		sent += round
		if r == rounds/2 {
			// Killed once the round is in the segment, while the uplink
			// may still be forwarding it.
			waitStderr(t, "round received", stderr, func() bool { return lastStat(stderr.String(), "received") == sent })
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			cmd, stderr = start()
			s := stderr.String()
			floorAt := strings.Index(s, "floor ")
			if !strings.Contains(s, fmt.Sprintf("recovered seqs [%d,%d]", sent-window+1, sent)) || floorAt < 0 {
				t.Fatalf("restarted after %d events:\n%s", sent, s)
			}
			if f, _ := strconv.Atoi(strings.TrimRight(strings.Fields(s[floorAt+6:])[0], ")")); f < sent-round || f > sent {
				t.Fatalf("restarted at floor %d, want within the last round (%d..%d]:\n%s", f, sent-round, sent, s)
			}
		}
		waitStderr(t, "round forwarded", stderr, func() bool { return lastStat(stderr.String(), "floor") == sent })
		size := segSize()
		if r == 0 {
			perEvent = size / round
		}
		if bound := 2*window*perEvent + floor + round*perEvent; size > bound {
			t.Fatalf("after %d events the segment holds %d bytes, past 2 x %d retained + 1 MiB + a round = %d", sent, size, window*perEvent, bound)
		}
		peak = max(peak, size)
	}
	waitStderr(t, "every event stored", dsosdErr, func() bool {
		_, body := httpDo(t, http.MethodGet, "http://"+api+"/count")
		n, _ := strconv.Atoi(strings.TrimSpace(body))
		return n == sent
	})
	_, metrics := httpDo(t, http.MethodGet, "http://"+ldmsdAPI+"/metrics")
	if !strings.Contains(metrics, fmt.Sprintf("dlc_stream_segment_bytes{stream=\"ldmsd\"} %d\n", segSize())) ||
		!regexp.MustCompile(`dlc_stream_rewritten_bytes_total\{stream="ldmsd"\} [1-9]`).MatchString(metrics) {
		t.Fatalf("segment series do not match a %d-byte segment compacted since the restart:\n%s", segSize(), metrics)
	}
	t.Logf("%d events, ~%d B each: segment peaked at %d bytes, %d at the end", sent, perEvent, peak, segSize())
}
