package darshanldms_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsKept lists the exported funcs and methods under internal/ that
// no non-test code references, each with the reason it stays. Everything
// else the scan finds is dead weight and fails TestExportsHaveCallers; an
// entry that gained a caller or no longer exists fails it too, so the list
// only ever shrinks deliberately (the same contract as an unused
// //lint:allow, which dlc-lint reports as a finding).
var exportsKept = map[string]string{
	"dsos.Daemon.SetFault":            "test seam: ldms and topo tests inject shard faults with it",
	"dsos.PartialError.Unwrap":        "interface: errors.Unwrap",
	"dsos.nothingWritten.Unwrap":      "interface: errors.Unwrap",
	"dsos.mergeHeap.Less":             "interface: heap.Interface",
	"dsos.mergeHeap.Swap":             "interface: heap.Interface",
	"sim.eventHeap.Less":              "interface: heap.Interface",
	"sim.eventHeap.Swap":              "interface: heap.Interface",
	"faults.Link.Down":                "test seam: the harness stream soak reads link state",
	"faults.NewTCPProxy":              "ROADMAP item 11: the multi-process soak's fault proxy",
	"faults.TCPProxy.Accepted":        "ROADMAP item 11: the multi-process soak's fault proxy",
	"faults.TCPProxy.KillConnections": "ROADMAP item 11: the multi-process soak's fault proxy",
	"faults.TCPProxy.SetDelay":        "ROADMAP item 11: the multi-process soak's fault proxy",
	"faults.TCPProxy.SetPartitioned":  "ROADMAP item 11: the multi-process soak's fault proxy",
	"simfs.FileSystem.Exists":         "test seam: apps tests check the files a workload wrote",
	"simfs.FileSystem.FileSize":       "test seam: apps and mpi tests check the bytes a workload wrote",
	"streams.Bus.UnbindStream":        "test seam: the harness stream soak detaches a crashed stream",
}

// uncalledExports scans the module the way the ratchet defines "no
// caller": by name. It declares every exported func and method in a
// non-test file under internal/, then drops each whose name appears as an
// identifier in any non-test Go file of the module (cmd/, bench/, ci/ and
// examples/ count) other than at its own declaration. Keys are
// "pkg.Func" and "pkg.Type.Method".
func uncalledExports(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	decls := map[string]string{} // key -> file:line
	declName := map[string]string{}
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declIdents := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				declIdents[fn.Name] = true
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					key = f.Name.Name + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls[key] = fset.Position(fn.Name.Pos()).String()
				declName[key] = fn.Name.Name
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	out := map[string]string{}
	for key, pos := range decls {
		if !used[declName[key]] {
			out[key] = pos
		}
	}
	return out
}

func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// TestExportsHaveCallers is the exports ratchet: an exported func or
// method under internal/ that only tests reference is deleted, or it is
// listed in exportsKept with its reason.
func TestExportsHaveCallers(t *testing.T) {
	found := uncalledExports(t)
	var keys []string
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := exportsKept[k]; !ok {
			t.Errorf("%s: exported %s has no caller outside tests; delete it or list it in exportsKept with its reason", found[k], k)
		}
	}
	for k, reason := range exportsKept {
		if _, ok := found[k]; !ok {
			t.Errorf("stale exportsKept entry %s (%s): it has a caller now or no longer exists", k, reason)
		}
	}
}
