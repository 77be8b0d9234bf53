package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// listedPackage is the part of `go list -json` output Load reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Module     struct{ Path string } // zero outside a module
	Error      *struct{ Err string }
}

// Load runs `go list -e -export -deps` on patterns in dir and returns every
// matched package that has non-test Go files, sorted by import path. The go
// tool decides what the patterns match and compiles each package; Load then
// parses each matched package and type-checks it once, resolving every
// import from the compiler's export data.
//
// Load fails when go list reports an error (a package that does not
// compile), when nothing matched, or when an import's export data is
// missing or unreadable: a check that silently fell back to syntax would
// pass as clean. Other type-check errors are soft (Package.TypeErrors).
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, strings.TrimSpace(stderr.String()))
	}

	exports := map[string]string{}
	var targets []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		exports[lp.ImportPath] = lp.Export
		if !lp.DepOnly && len(lp.GoFiles) > 0 {
			targets = append(targets, lp)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: go list %s: no package to analyze\n%s", strings.Join(patterns, " "), strings.TrimSpace(stderr.String()))
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkgs := make([]*Package, 0, len(targets))
	for _, lp := range targets {
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses lp's files and type-checks them against imp.
func check(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", lp.Dir, err)
		}
		files = append(files, f)
	}
	// Resolve every import before the check so that missing or unreadable
	// export data is a load error, not a soft type error. The importer
	// caches, so the check itself imports nothing twice.
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || path == "unsafe" {
				continue
			}
			if _, err := imp.Import(path); err != nil {
				return nil, exportError(lp.Dir, lp.ImportPath, err)
			}
		}
	}

	rel := cmp.Or(strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, lp.Module.Path), "/"), ".")
	pkg := &Package{
		Dir:     lp.Dir,
		RelPath: rel,
		Fset:    fset,
		Files:   files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns an error when any soft error occurred; partial type
	// information is still recorded in pkg.Info.
	pkg.Types, _ = conf.Check(lp.ImportPath, fset, files, pkg.Info)

	if z, ok := zoneDirective(files); ok {
		pkg.Zone = z
	} else {
		pkg.Zone = ZoneFor(rel)
	}
	return pkg, nil
}

// exportError explains a failed import of pkgPath's dependency. Export data
// is only readable by the release that wrote it, so a go on PATH from
// another release than the one that built this program is named.
func exportError(dir, pkgPath string, err error) error {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = dir
	out, _ := cmd.Output()
	if v := strings.TrimSpace(string(out)); v != "" && v != runtime.Version() {
		err = fmt.Errorf("%w (export data written by %s, read by a linter built with %s)", err, v, runtime.Version())
	}
	return fmt.Errorf("lint: %s: %w", pkgPath, err)
}
