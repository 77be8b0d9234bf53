package lint

import (
	"go/ast"
	"go/types"
)

var poolleakCheck = &Check{
	Name: "poolleak",
	Doc:  "a value checked out of an instrumented pool (BufferPool/SlabPool.Get) must reach Put or Release on every non-escaping path",
	Run:  runPoolleak,
}

// runPoolleak tracks every `v := pool.Get()` where pool's named type ends
// in "Pool" and either has a Put method (event.BufferPool)
// or checks out values with their own Release method (event.SlabPool's
// ref-counted slabs) — sync.Pool itself is exempt, its Get legitimately
// feeds type assertions that discard on miss. The CFG walk demands that
// every path from the Get reaches a `*.Put(v)` or `v.Release()` (directly
// or deferred), or that ownership escapes (v returned, stored into a
// field, handed to a non-borrowing call). A path that reaches the
// function exit with the value still held leaks a pooled buffer: the
// pool's Get/Put counters drift and the arena the batching hot loop
// depends on quietly degrades to per-flush allocation.
func runPoolleak(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				p.poolleakFunc(body)
			}
			return true
		})
	}
}

func (p *Pass) poolleakFunc(body *ast.BlockStmt) {
	type site struct {
		assign *ast.AssignStmt
		call   *ast.CallExpr
		ob     *obligation
	}
	var sites []site
	inspectSameFunc(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) < 1 {
			return true
		}
		call := unwrapPoolGet(as.Rhs[0])
		if call == nil || !p.isPoolGet(call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		sites = append(sites, site{
			assign: as,
			call:   call,
			ob: &obligation{
				acquire: as,
				obj:     p.ObjectOf(id),
				name:    id.Name,
			},
		})
		return true
	})
	if len(sites) == 0 {
		return
	}
	g := buildCFG(body)
	for _, s := range sites {
		blk, idx := findNode(g, s.assign)
		if blk == nil {
			continue
		}
		spec := &obligationSpec{
			isRelease: func(ob *obligation, call *ast.CallExpr) bool {
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				switch sel.Sel.Name {
				case "Put":
					for _, a := range call.Args {
						if usesObligation(p, a, ob) {
							return true
						}
					}
				case "Release":
					// Ref-counted checkout: v.Release() is the discharge.
					return usesObligation(p, sel.X, ob)
				}
				return false
			},
		}
		spec.escapes = func(ob *obligation, n ast.Node) bool {
			return valueEscapes(p, ob, n, func(c *ast.CallExpr) bool { return spec.isRelease(ob, c) })
		}
		leaks := walkObligation(g, blk, idx+1, s.ob, spec)
		if len(leaks) == 0 {
			continue
		}
		recv := types.ExprString(s.call.Fun.(*ast.SelectorExpr).X)
		p.Reportf(s.call.Pos(),
			"return it with `defer "+recv+".Put("+s.ob.name+")` (or `defer "+s.ob.name+".Release()` for ref-counted checkouts) right after the Get, or discharge on every early-exit path",
			"%s.Get leaks: %q does not reach Put/Release on every path (%d leaking)", recv, s.ob.name, len(leaks))
	}
}

// unwrapPoolGet digs the Get call out of the RHS expression, looking
// through a type assertion (`pool.Get().(*T)` is the sync.Pool idiom).
func unwrapPoolGet(e ast.Expr) *ast.CallExpr {
	switch v := e.(type) {
	case *ast.CallExpr:
		return v
	case *ast.TypeAssertExpr:
		if call, ok := v.X.(*ast.CallExpr); ok {
			return call
		}
	}
	return nil
}

// isPoolGet matches x.Get() where x's named type ends in "Pool", is not
// sync.Pool itself, and discharges either through the pool (a Put
// method) or through the checked-out value (its Get result has a
// Release method — the SlabPool shape).
func (p *Pass) isPoolGet(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" || len(call.Args) != 0 {
		return false
	}
	t := p.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	name := obj.Name()
	if len(name) < 4 || name[len(name)-4:] != "Pool" {
		return false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
		return false
	}
	if hasMethod(t, "Put") {
		return true
	}
	if rt := p.TypeOf(call); rt != nil && hasMethod(rt, "Release") {
		return true
	}
	return false
}
