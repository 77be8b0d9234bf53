package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestLoadersAgree holds Load to the reference directory-walking loader on
// every fixture, on this package and on a sim-zone package: the same
// packages, directories, files, zones and soft type errors, and identical
// findings.
func TestLoadersAgree(t *testing.T) {
	root := repoRoot(t)
	rels := []string{"internal/lint", "internal/sim"}
	for _, name := range fixtureNames {
		rels = append(rels, "internal/lint/testdata/src/"+name)
	}
	var patterns []string
	for _, rel := range rels {
		patterns = append(patterns, "./"+rel)
	}
	got, err := Load(root, patterns...)
	if err != nil {
		t.Fatal(err)
	}

	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewLoader()
	var want []*Package
	for _, rel := range rels {
		pkg, err := ref.LoadDir(root, modPath, filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pkg)
	}

	byRel := map[string]*Package{}
	for _, pkg := range got {
		byRel[pkg.RelPath] = pkg
	}
	if len(got) != len(want) {
		t.Errorf("Load returned %d packages, the reference %d", len(got), len(want))
	}
	for _, w := range want {
		g, ok := byRel[w.RelPath]
		if !ok {
			t.Errorf("%s: loaded by the reference only", w.RelPath)
			continue
		}
		if g.Dir != w.Dir || g.Zone != w.Zone || len(g.TypeErrors) != len(w.TypeErrors) {
			t.Errorf("%s: dir %s zone %v %d type errors, reference dir %s zone %v %d type errors",
				w.RelPath, g.Dir, g.Zone, len(g.TypeErrors), w.Dir, w.Zone, len(w.TypeErrors))
		}
		if gf, wf := fileNames(g), fileNames(w); !reflect.DeepEqual(gf, wf) {
			t.Errorf("%s: files %v, reference %v", w.RelPath, gf, wf)
		}
		gotF, wantF := Run(g, Checks()), Run(w, Checks())
		if !reflect.DeepEqual(gotF, wantF) {
			t.Errorf("%s: findings differ\n got %v\nwant %v", w.RelPath, gotF, wantF)
		}
	}
}

func fileNames(pkg *Package) []string {
	var names []string
	for _, f := range pkg.Files {
		names = append(names, pkg.Fset.Position(f.Package).Filename)
	}
	return names
}

// TestLoadErrors: a pattern with no package, a directory that does not
// exist and export data that cannot be read are load errors, never an
// empty or syntax-only result.
func TestLoadErrors(t *testing.T) {
	root := repoRoot(t)
	for _, pattern := range []string{"./docs/...", "./no/such/dir"} {
		if pkgs, err := Load(root, pattern); err == nil {
			t.Errorf("Load(%s) = %d packages, want an error", pattern, len(pkgs))
		}
	}

	// A go tool whose export data this test binary cannot read, as when
	// the go on PATH is from another release: it lists packages with the
	// real go, points every export file at garbage and reports another
	// version.
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.a")
	if err := os.WriteFile(garbage, []byte("not export data\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	script := "#!/bin/sh\n" +
		"if [ \"$1\" = env ]; then echo go1.0-other; exit 0; fi\n" +
		"\"" + goBin + "\" \"$@\" | sed 's#\"Export\": \"[^\"]*\"#\"Export\": \"" + garbage + "\"#'\n"
	if err := os.WriteFile(filepath.Join(dir, "go"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
	_, err = Load(root, fixturePattern("clean"))
	if err == nil {
		t.Fatal("Load read garbage export data without an error")
	}
	for _, want := range []string{"go1.0-other", runtime.Version()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %s: %v", want, err)
		}
	}
}
