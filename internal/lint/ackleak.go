package lint

import (
	"go/ast"
	"go/types"
)

var ackleakCheck = &Check{
	Name: "ackleak",
	Doc:  "deliveries returned by Consumer.Fetch must reach Ack/Nak/dead-letter (or escape) on every path",
	Run:  runAckleak,
}

// settleCallNames are the calls that settle a fetched delivery's fate.
// AckBatch settles a whole round in one call. Term/DeadLetter are
// accepted for forward compatibility with explicit dead-letter APIs.
var settleCallNames = map[string]bool{
	"Ack": true, "Nak": true, "AckBatch": true, "Term": true, "DeadLetter": true,
}

// runAckleak tracks every `ds, err := c.Fetch(n)` whose result is a
// slice of Delivery values. A fetched-but-never-settled batch is the
// silent failure mode of the at-least-once consumer contract: the
// messages sit inflight until the ack deadline, the floor stalls, and
// the stream redelivers — a retry storm with no error anywhere. The CFG
// walk requires every path from the Fetch to reach a settle call
// (Ack/Nak/Term/DeadLetter — on the consumer or via a helper taking the
// delivery or its Seq), or to hand the slice off (returned, stored,
// passed whole to another function). Paths guarded by `err != nil` or
// `len(ds) == 0` are vacuous and exempt.
func runAckleak(p *Pass) {
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
				p.ackleakFunc(body)
			}
			return true
		})
	}
}

func (p *Pass) ackleakFunc(body *ast.BlockStmt) {
	type site struct {
		assign *ast.AssignStmt
		call   *ast.CallExpr
		ob     *obligation
	}
	var sites []site
	inspectSameFunc(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !p.isDeliveryFetch(call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		ob := &obligation{acquire: as, obj: p.ObjectOf(id), name: id.Name}
		if len(as.Lhs) > 1 {
			if eid, ok := as.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
				ob.errObj = p.ObjectOf(eid)
				if ob.errObj == nil {
					// Keep name-based guard matching alive without type info.
					ob.errObj = types.NewVar(eid.Pos(), nil, eid.Name, nil)
				}
			}
		}
		sites = append(sites, site{assign: as, call: call, ob: ob})
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
		// derived tracks range/index variables bound from the fetched
		// slice along the walk, so `u.nak(d.Seq)` inside
		// `for _, d := range ds` counts as settling ds.
		derived := map[string]bool{}
		spec := &obligationSpec{}
		spec.isRelease = func(ob *obligation, call *ast.CallExpr) bool {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && settleCallNames[sel.Sel.Name] {
				return true
			}
			// A helper call taking a delivery (or its Seq) settles it:
			// the fate decision moved into the callee.
			for _, a := range call.Args {
				if derivedSettleArg(a, derived) {
					return true
				}
			}
			return false
		}
		spec.escapes = func(ob *obligation, n ast.Node) bool {
			// Record derivations before judging escapes so the range
			// header itself does not read as an escape. A loop over the
			// fetched slice whose body settles the per-delivery variable
			// settles the whole batch (including the zero-iteration case:
			// an empty slice has nothing to settle).
			if rh, ok := n.(*rangeHeader); ok {
				if usesObligation(p, rh.rng.X, ob) {
					if id, ok := rh.rng.Value.(*ast.Ident); ok && id.Name != "_" {
						derived[id.Name] = true
					}
					if id, ok := rh.rng.Key.(*ast.Ident); ok && id.Name != "_" {
						derived[id.Name] = true
					}
					if rangeBodySettles(p, ob, rh.rng.Body, derived) {
						return true
					}
				}
				return false
			}
			// d := ds[i] derives; recording it is not an escape.
			recordIndexDerivations(p, ob, n, derived)
			return valueEscapes(p, ob, n, func(c *ast.CallExpr) bool { return spec.isRelease(s.ob, c) })
		}
		leaks := walkObligation(g, blk, idx+1, s.ob, spec)
		if len(leaks) == 0 {
			continue
		}
		recv := types.ExprString(s.call.Fun.(*ast.SelectorExpr).X)
		p.Reportf(s.call.Pos(),
			"settle every delivery: Ack on success, Nak for redelivery, or hand the batch to a function that does",
			"%s.Fetch deliveries in %q are dropped without Ack/Nak on %d path(s) — they stay inflight until the ack deadline and redeliver",
			recv, s.ob.name, len(leaks))
	}
}

// rangeBodySettles reports whether a loop body settles the per-delivery
// variable: an Ack/Nak-family call, or any call taking the derived
// delivery (or its Seq) as an argument. Index derivations inside the
// body (`d := ds[i]`) are registered first so a settle through them
// counts.
func rangeBodySettles(p *Pass, ob *obligation, body *ast.BlockStmt, derived map[string]bool) bool {
	inspectSameFunc(body, func(n ast.Node) bool {
		recordIndexDerivations(p, ob, n, derived)
		return true
	})
	found := false
	inspectSameFunc(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && settleCallNames[sel.Sel.Name] {
			found = true
		}
		for _, a := range call.Args {
			if derivedSettleArg(a, derived) {
				found = true
			}
		}
		return !found
	})
	return found
}

// recordIndexDerivations registers `d := ds[i]`-style bindings from the
// fetched slice into derived.
func recordIndexDerivations(p *Pass, ob *obligation, n ast.Node, derived map[string]bool) {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	for i, r := range as.Rhs {
		if ix, ok := r.(*ast.IndexExpr); ok && usesObligation(p, ix.X, ob) && i < len(as.Lhs) {
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				derived[id.Name] = true
			}
		}
	}
}

// derivedSettleArg reports whether arg is a derived delivery `d` or its
// sequence `d.Seq` — the forms that carry the settle decision. Other
// fields (d.Msg) are payload reads, not settlement.
func derivedSettleArg(arg ast.Expr, derived map[string]bool) bool {
	switch a := arg.(type) {
	case *ast.Ident:
		return derived[a.Name]
	case *ast.SelectorExpr:
		if id, ok := a.X.(*ast.Ident); ok && derived[id.Name] && a.Sel.Name == "Seq" {
			return true
		}
	}
	return false
}

// isDeliveryFetch matches x.Fetch(...) returning ([]Delivery, error) —
// by result type when type info is available, by method-name shape
// otherwise.
func (p *Pass) isDeliveryFetch(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Fetch" {
		return false
	}
	t := p.TypeOf(call)
	if t == nil {
		return true // no type info: name-shape fallback
	}
	tup, ok := t.(*types.Tuple)
	if !ok || tup.Len() != 2 {
		return false
	}
	sl, ok := tup.At(0).Type().(*types.Slice)
	if !ok {
		return false
	}
	elem := sl.Elem()
	named, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Delivery"
}
