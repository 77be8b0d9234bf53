// The directory-walking loader that Load replaced, kept verbatim as the
// reference TestLoadersAgree holds Load to: it discovers packages itself,
// parses every non-test .go file of a directory and type-checks imports
// from source.

package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages for analysis. One Loader shares a
// FileSet and a source importer across packages, so transitively imported
// packages are type-checked once.
type Loader struct {
	Fset *token.FileSet
	// IncludeTests also analyzes _test.go files (off by default: tests
	// legitimately sleep, poll wall clocks and drop errors).
	IncludeTests bool

	imp types.Importer
}

// NewLoader returns a Loader backed by the stdlib source importer, which
// resolves both standard-library and module-internal imports from source.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		imp:  importer.ForCompiler(fset, "source", nil),
	}
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// skipDirs are directory names never descended into while discovering
// packages. testdata is the Go-tools convention for fixture trees — that is
// where dlc-lint's own known-bad fixtures live.
var skipDirs = map[string]bool{
	"testdata":  true,
	"vendor":    true,
	".git":      true,
	"results":   true,
	"dashboard": true,
}

// DiscoverDirs walks root and returns every directory containing buildable
// .go files, in sorted order.
func DiscoverDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (skipDirs[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		seen[filepath.Dir(path)] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadTree loads every package under root (the module root).
func (l *Loader) LoadTree(root string) ([]*Package, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := DiscoverDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the package in dir. The returned package
// is nil when the directory holds no buildable files. Type-check errors are
// soft: they are collected into Package.TypeErrors and analysis proceeds
// with whatever type information was recovered.
func (l *Loader) LoadDir(root, modPath, dir string) (*Package, error) {
	filter := func(fi fs.FileInfo) bool {
		if strings.HasSuffix(fi.Name(), "_test.go") {
			return l.IncludeTests
		}
		return true
	}
	astPkgs, err := parser.ParseDir(l.Fset, dir, filter, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %w", dir, err)
	}
	// A directory can hold at most a package and its external test package;
	// analyze the primary (non _test-suffixed) one, folding in the external
	// test files only when tests are included.
	var names []string
	for name := range astPkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	var fileNames []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test") && !l.IncludeTests {
			continue
		}
		for fn := range astPkgs[name].Files {
			fileNames = append(fileNames, fn)
		}
	}
	if len(fileNames) == 0 {
		return nil, nil
	}
	sort.Strings(fileNames)
	for _, fn := range fileNames {
		for _, name := range names {
			if f, ok := astPkgs[name].Files[fn]; ok {
				files = append(files, f)
				break
			}
		}
	}

	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	pkgPath := modPath
	if rel != "." {
		pkgPath = modPath + "/" + rel
	}

	pkg := &Package{
		Dir:     dir,
		RelPath: rel,
		Fset:    l.Fset,
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
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns an error when any soft error occurred; partial type
	// information is still recorded in pkg.Info.
	tpkg, _ := conf.Check(pkgPath, l.Fset, files, pkg.Info)
	pkg.Types = tpkg

	if z, ok := zoneDirective(files); ok {
		pkg.Zone = z
	} else {
		pkg.Zone = ZoneFor(rel)
	}
	return pkg, nil
}
