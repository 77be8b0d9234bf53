package darshanldms_test

import (
	"encoding/json"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// dlc-lint CLI smoke tests: the binary must exit 0 on the real tree and 1
// on a known-bad fixture, because CI gates on exactly that contract.
// Skipped under -short (they pay `go run` compile time plus a full
// type-check of the module).

func runLint(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/dlc-lint"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("go run ./cmd/dlc-lint %v: %v\n%s", args, err, out)
	}
	// go run itself exits 1 whatever the program's status, which it
	// reports as its last line.
	m := exitStatusRe.FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("go run ./cmd/dlc-lint %v: no exit status in\n%s", args, out)
	}
	code, _ := strconv.Atoi(m[1])
	return string(out), code
}

var exitStatusRe = regexp.MustCompile(`exit status (\d+)\n$`)

func TestCLILintCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	out, code := runLint(t, "./...")
	if code != 0 {
		t.Fatalf("dlc-lint ./... exit %d on the clean tree:\n%s", code, out)
	}
}

func TestCLILintBadFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	out, code := runLint(t, "./internal/lint/testdata/src/maporder")
	if code != 1 {
		t.Fatalf("dlc-lint on bad fixture: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "maporder") {
		t.Fatalf("expected maporder findings, got:\n%s", out)
	}
}

// TestCLILintPatterns: the arguments are go list patterns. A subtree and a
// single fixture directory load; a pattern that matches no package and the
// removed -tests and -baseline flags are load and usage errors (exit 2).
// With -checks, an unused directive is reported only for a selected check.
func TestCLILintPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	cases := []struct {
		args   []string
		code   int
		want   string
		absent string
	}{
		{[]string{"./internal/sim/..."}, 0, "", ""},
		{[]string{"./internal/lint/testdata/src/globalrand"}, 1, "globalrand", ""},
		{[]string{"./docs/..."}, 2, `"./docs/..." matched no packages`, ""},
		{[]string{"-tests", "./..."}, 2, "flag provided but not defined: -tests", ""},
		{[]string{"-baseline", "x", "./..."}, 2, "flag provided but not defined: -baseline", ""},
		{[]string{"-checks", "walltime", "./internal/lint/testdata/src/allow"}, 1, "allow: //lint:allow walltime suppresses nothing", "//lint:allow puberr suppresses nothing"},
	}
	for _, tc := range cases {
		out, code := runLint(t, tc.args...)
		if code != tc.code || !strings.Contains(out, tc.want) || (tc.absent != "" && strings.Contains(out, tc.absent)) {
			t.Errorf("dlc-lint %v: exit %d, want %d with %q and without %q\n%s", tc.args, code, tc.code, tc.want, tc.absent, out)
		}
	}
}

func TestCLILintJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	out, code := runLint(t, "-json", "./internal/lint/testdata/src/puberr")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	var report struct {
		Findings []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Check   string `json:"check"`
			Message string `json:"message"`
		} `json:"findings"`
		Checks []struct {
			Check     string `json:"check"`
			ElapsedNS int64  `json:"elapsed_ns"`
		} `json:"checks"`
	}
	// CombinedOutput appends `go run`'s own "exit status 1" stderr line
	// after the JSON document, so decode just the first value.
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&report); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(report.Findings) == 0 {
		t.Fatal("no findings decoded")
	}
	for _, f := range report.Findings {
		if f.Check != "puberr" || f.Line == 0 || f.File == "" {
			t.Fatalf("malformed finding %+v", f)
		}
	}
	if len(report.Checks) == 0 {
		t.Fatal("no per-check timings in envelope")
	}
	seen := map[string]bool{}
	for _, c := range report.Checks {
		seen[c.Check] = true
	}
	for _, name := range []string{"puberr", "poolleak", "ackleak", "goroleak", "deferloop"} {
		if !seen[name] {
			t.Fatalf("timing for %s missing: %+v", name, report.Checks)
		}
	}
}

func TestCLILintList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	out, code := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d:\n%s", code, out)
	}
	for _, check := range []string{"walltime", "globalrand", "maporder", "lockheld", "puberr"} {
		if !strings.Contains(out, check) {
			t.Fatalf("-list missing %s:\n%s", check, out)
		}
	}
}
