package darshanldms_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The committed seeds under <pkg>/testdata/fuzz/<Target>/ are the fuzz
// corpus: `go test` replays them and `make fuzz-smoke` fuzzes every target
// the Makefile lists. A target missing from FUZZ_TARGETS is never fuzzed,
// and a seed directory whose function is gone is skipped by `go test`
// without a word, so both drift silently unless this test catches them.

// makefileFuzzTargets returns the package:Target pairs of FUZZ_TARGETS.
func makefileFuzzTargets(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "FUZZ_TARGETS") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if entry := strings.TrimSpace(strings.TrimSuffix(line, `\`)); entry != "" {
			out[entry] = true
		}
		if !strings.HasSuffix(line, `\`) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("Makefile: no FUZZ_TARGETS entries found")
	}
	return out
}

// fuzzFuncsAndSeedDirs walks the module once: every `func Fuzz*` in a
// _test.go file as package:Target, and every testdata/fuzz/<Target>
// directory as package:Target.
func fuzzFuncsAndSeedDirs(t *testing.T) (funcs, seeds map[string]bool) {
	t.Helper()
	funcs, seeds = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if d.Name() != "testdata" {
				return nil
			}
			ents, err := os.ReadDir(filepath.Join(path, "fuzz"))
			if err != nil && !os.IsNotExist(err) {
				return err
			}
			for _, e := range ents {
				seeds[filepath.ToSlash(filepath.Dir(path))+":"+e.Name()] = true
			}
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				funcs[filepath.ToSlash(filepath.Dir(path))+":"+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, seeds
}

func TestFuzzTargetsMatch(t *testing.T) {
	listed := makefileFuzzTargets(t)
	funcs, seeds := fuzzFuncsAndSeedDirs(t)
	for _, k := range sortedSet(funcs) {
		if !listed[k] {
			t.Errorf("%s: fuzz function not in the Makefile's FUZZ_TARGETS, so fuzz-smoke never fuzzes it", k)
		}
	}
	for _, k := range sortedSet(listed) {
		if !funcs[k] {
			t.Errorf("%s: in FUZZ_TARGETS but no such fuzz function exists", k)
		}
	}
	for _, k := range sortedSet(seeds) {
		if !funcs[k] {
			t.Errorf("%s: committed seed directory names no live fuzz function; go test skips it silently", k)
		}
	}
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
