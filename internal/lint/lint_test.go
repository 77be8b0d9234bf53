package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

var fixtureNames = []string{
	"walltime", "obsclock", "globalrand", "maporder", "lockheld",
	"puberr", "hotalloc", "poolleak", "ackleak", "goroleak",
	"deferloop", "allow", "clean",
}

func fixturePattern(name string) string { return "./internal/lint/testdata/src/" + name }

var fixtures = sync.OnceValues(func() (map[string]*Package, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	var patterns []string
	for _, name := range fixtureNames {
		patterns = append(patterns, fixturePattern(name))
	}
	pkgs, err := Load(root, patterns...)
	if err != nil {
		return nil, err
	}
	byName := map[string]*Package{}
	for _, pkg := range pkgs {
		byName[filepath.Base(pkg.Dir)] = pkg
	}
	return byName, nil
})

// loadFixture returns a copy of the named fixture package; all fixtures are
// loaded together, once per test binary.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	byName, err := fixtures()
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := byName[name]
	if !ok {
		t.Fatalf("fixture %s: no package loaded", name)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type-check: %v", name, terr)
	}
	cp := *pkg
	return &cp
}

var wantRe = regexp.MustCompile(`// want (\w+)`)

// wantedFindings parses the fixture's `// want <check>` markers into a set
// of "file.go:line:check" keys.
func wantedFindings(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, m[1])] = true
			}
		}
	}
	return want
}

// TestFixtures runs the whole suite over every golden fixture and compares
// the findings against the inline `// want <check>` markers. The clean
// fixture asserts zero findings; the others each force their check to fire
// and exercise suppression.
func TestFixtures(t *testing.T) {
	for _, name := range fixtureNames {
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, name)
			findings := Run(pkg, Checks())
			got := map[string]bool{}
			for _, f := range findings {
				got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.File), f.Line, f.Check)] = true
			}
			want := wantedFindings(t, pkg.Dir)
			for k := range want {
				if !got[k] {
					t.Errorf("missing finding %s", k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("unexpected finding %s", k)
				}
			}
			if name == "clean" && len(findings) != 0 {
				t.Errorf("clean fixture produced %d findings: %v", len(findings), findings)
			}
		})
	}
}

// TestFixtureZones asserts the //lint:zone directive and the path-based
// classifier both feed Package.Zone correctly.
func TestFixtureZones(t *testing.T) {
	if z := loadFixture(t, "walltime").Zone; z != ZoneSim {
		t.Errorf("walltime fixture zone = %v, want sim (forced by //lint:zone)", z)
	}
	if z := loadFixture(t, "puberr").Zone; z != ZoneReal {
		t.Errorf("puberr fixture zone = %v, want real (no directive, path outside sim zone)", z)
	}
}

// TestWalltimeZoneGate: the walltime check must not run outside the sim
// zone — the same file that fires under //lint:zone sim is silent as real.
func TestWalltimeZoneGate(t *testing.T) {
	pkg := loadFixture(t, "walltime")
	pkg.Zone = ZoneReal
	for _, f := range Run(pkg, Checks()) {
		if f.Check == "walltime" {
			t.Errorf("walltime fired in real zone: %v", f)
		}
	}
}

// TestObsclockZoneGate: obs.WallClock is legitimate in the real zone
// (daemons time telemetry in wall time); the check must stay silent there.
func TestObsclockZoneGate(t *testing.T) {
	pkg := loadFixture(t, "obsclock")
	pkg.Zone = ZoneReal
	for _, f := range Run(pkg, Checks()) {
		if f.Check == "obsclock" {
			t.Errorf("obsclock fired in real zone: %v", f)
		}
	}
}

func TestZoneFor(t *testing.T) {
	cases := map[string]Zone{
		"internal/sim":        ZoneSim,
		"internal/sim/sub":    ZoneSim,
		"internal/mpi":        ZoneSim,
		"internal/analysis":   ZoneSim,
		"internal/darshan":    ZoneSim,
		"internal/darshanlog": ZoneReal, // prefix of a sim path but a different package
		"internal/ldms":       ZoneReal,
		"internal/replay":     ZoneReal,
		"cmd/ldmsd":           ZoneReal,
		"examples/quickstart": ZoneReal,
		".":                   ZoneReal,
	}
	for rel, want := range cases {
		if got := ZoneFor(rel); got != want {
			t.Errorf("ZoneFor(%q) = %v, want %v", rel, got, want)
		}
	}
}

// TestRepoIsClean runs the suite over the real module tree: the
// determinism contract must hold on every commit. This doubles as an
// integration test of the loader against all 20+ packages: a type error
// would mean some check ran on syntax alone.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages — discovery broken?", len(pkgs))
	}
	simSeen := false
	for _, pkg := range pkgs {
		if pkg.Zone == ZoneSim {
			simSeen = true
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type-check: %v", pkg.RelPath, terr)
		}
		for _, f := range Run(pkg, Checks()) {
			t.Errorf("%v", f)
		}
	}
	if !simSeen {
		t.Error("no sim-zone package found — zone classification broken?")
	}
}

func TestFindingJSONAndString(t *testing.T) {
	f := Finding{File: "a/b.go", Line: 12, Col: 3, Check: "walltime", Message: "m", Hint: "h"}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back Finding
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != f {
		t.Fatalf("round trip: %+v != %+v", back, f)
	}
	if got := f.String(); got != "a/b.go:12:3: walltime: m [fix: h]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCheckSuite(t *testing.T) {
	names := CheckNames()
	want := []string{
		"walltime", "obsclock", "globalrand", "maporder", "lockheld",
		"puberr", "hotalloc", "poolleak", "ackleak", "goroleak",
		"deferloop",
	}
	if len(names) != len(want) {
		t.Fatalf("suite = %v, want %v", names, want)
	}
	sort.Strings(names)
	sort.Strings(want)
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("suite = %v, want %v", CheckNames(), want)
		}
	}
	for _, c := range Checks() {
		if c.Doc == "" {
			t.Errorf("check %s has no doc", c.Name)
		}
	}
}

// TestAllowTable covers the suppression placement rules directly.
func TestAllowTable(t *testing.T) {
	line := &allow{pos: token.Position{Filename: "f.go", Line: 10}, check: "walltime", from: 10, to: 11}
	fn := &allow{pos: token.Position{Filename: "f.go", Line: 20}, check: "puberr", from: 20, to: 30}
	tbl := allowTable{line, fn}
	cases := []struct {
		line  int
		check string
		want  bool
	}{
		{10, "walltime", true},  // same line
		{11, "walltime", true},  // directive on the line above
		{12, "walltime", false}, // two lines down: out of scope
		{10, "puberr", false},   // different check
		{30, "puberr", true},    // last line of a doc-comment directive's function
		{31, "puberr", false},   // past the function
	}
	for _, c := range cases {
		if got := tbl.permits("f.go", c.line, c.check); got != c.want {
			t.Errorf("permits(line=%d, %s) = %v, want %v", c.line, c.check, got, c.want)
		}
	}
	if tbl.permits("other.go", 10, "walltime") {
		t.Error("suppression leaked across files")
	}
	if !line.used || !fn.used {
		t.Errorf("used = %v, %v after both directives suppressed a finding", line.used, fn.used)
	}
}
