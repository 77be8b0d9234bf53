package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var hotallocCheck = &Check{
	Name: "hotalloc",
	Doc:  "no fmt.Sprint* or per-element interface boxing ([]any composite literals) on the per-event hot path (connector, event, jsonmsg, ldms, dsos, sos)",
	Run:  runHotalloc,
}

// hotPathPaths are the packages on the per-event fast path: every Darshan
// event the connector emits passes through them, so a fmt.Sprintf there
// costs an interface boxing plus a string allocation *per event* — the
// exact overhead the paper measures as the sprintf-encoder ablation
// (Table IIc) and the lazy message plane exists to avoid. Matching is by
// whole path segment, like ZoneFor. internal/dsos joined the list with
// the arena-pooled wire path: ingest builds store rows per event, so
// boxing regressions there are exactly as hot as codec ones. internal/sos,
// the store engine under it, runs once per event too.
var hotPathPaths = []string{
	"internal/connector",
	"internal/event",
	"internal/jsonmsg",
	"internal/ldms",
	"internal/dsos",
	"internal/sos",
}

// sprintNames are the fmt formatting calls that allocate their result
// per call; Sprintf's siblings count too.
var sprintNames = []string{"Sprintf", "Sprint", "Sprintln"}

// hotPathDirective is how a package outside hotPathPaths (fixtures) forces
// hot-path treatment.
const hotPathDirective = "//lint:hotpath"

// coldMethodNames are formatting methods that exist *for* human-readable
// output and run off the hot path (debug strings, flag help, error text).
// Sprintf inside them is idiomatic, not a leak.
var coldMethodNames = map[string]bool{
	"String": true,
	"Name":   true,
	"Error":  true,
}

func isHotPath(pkg *Package) bool {
	for _, p := range hotPathPaths {
		if pkg.RelPath == p || strings.HasPrefix(pkg.RelPath, p+"/") {
			return true
		}
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if c.Text == hotPathDirective {
					return true
				}
			}
		}
	}
	return false
}

// isAnySliceLit reports whether cl is a non-empty composite literal whose
// type's underlying is []any (sos.Key and friends): each element is boxed
// into an interface at construction, so one literal on the hot path is
// len(Elts) allocations per event. Store rows are typed words built by
// copying (sos.RowBuilder, dsos.RowArena) to avoid this.
func (p *Pass) isAnySliceLit(cl *ast.CompositeLit) bool {
	if len(cl.Elts) == 0 {
		return false
	}
	t := p.TypeOf(cl)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	iface, ok := sl.Elem().Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 0
}

// runHotalloc flags fmt.Sprint* call sites and boxing []any composite
// literals in hot-path packages, skipping cold formatting methods
// (String/Name/Error). A deliberate ablation is suppressed like any other
// finding, usually for the whole function by a //lint:allow hotalloc
// <reason> on its doc comment.
func runHotalloc(p *Pass) {
	if !isHotPath(p.Package) {
		return
	}
	for _, file := range p.Files {
		f := file
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if isFunc && coldMethodNames[fd.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.CallExpr:
					for _, name := range sprintNames {
						if _, ok := p.IsPkgCall(f, v, "fmt", name); ok {
							p.Reportf(v.Pos(),
								"build with append/strconv or a pooled buffer; //lint:allow hotalloc <reason> for a deliberate ablation",
								"fmt.%s on the per-event hot path allocates per call", name)
							break
						}
					}
				case *ast.CompositeLit:
					if p.isAnySliceLit(v) {
						p.Reportf(v.Pos(),
							"build rows through a copying row builder (sos.RowBuilder, dsos.RowArena) instead of a boxing literal; //lint:allow hotalloc <reason> if this site is deliberately cold",
							"[]any composite literal on the per-event hot path boxes every element")
					}
				}
				return true
			})
		}
	}
}
