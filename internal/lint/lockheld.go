package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var lockheldCheck = &Check{
	Name: "lockheld",
	Doc:  "every Lock needs an Unlock on all paths, and no blocking primitive (sim, or a stream consumer's Wait) may run under a held lock",
	Run:  runLockheld,
}

// Blocking virtual-time primitives. Parking a goroutine inside the DES
// while holding a mutex stalls every other process that touches the lock —
// in the simulator that is not slowness, it is deadlock, because virtual
// time only advances when runnable processes yield.
var blockingPrimNames = map[string]bool{
	"Wait": true, "Recv": true, "Acquire": true, "Use": true, "Sleep": true,
}

// simPrimitiveTypeNames lets fixture packages (and future sim-like types)
// participate without living under internal/sim. Consumer is the durable
// stream's: its Wait parks the caller in wall time until the stream has
// something to deliver, which may be never — a lock held across it is held
// for as long as the stream stays quiet.
var simPrimitiveTypeNames = map[string]bool{
	"Proc": true, "Engine": true, "Barrier": true, "Mailbox": true,
	"Resource": true, "WaitGroup": true, "Comm": true, "Consumer": true,
}

func runLockheld(p *Pass) {
	for _, file := range p.Files {
		f := file
		ast.Inspect(f, func(n ast.Node) bool {
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
				p.lockheldFunc(body)
			}
			return true
		})
	}
}

type lockSite struct {
	stmt *ast.ExprStmt // the statement holding the Lock call
	call *ast.CallExpr
	recv string // printed receiver expression, e.g. "s.mu"
	read bool   // RLock vs Lock
}

func (p *Pass) lockheldFunc(body *ast.BlockStmt) {
	var locks []lockSite
	inspectSameFunc(body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, read, ok := p.asLockCall(call)
		if !ok {
			return true
		}
		locks = append(locks, lockSite{stmt: es, call: call, recv: recv, read: read})
		return true
	})
	if len(locks) == 0 {
		return
	}
	g := buildCFG(body)
	for _, l := range locks {
		p.checkLock(g, body, l)
	}
}

// asLockCall matches x.Lock() / x.RLock() where x's type (when known) has a
// matching unlock method in its method set.
func (p *Pass) asLockCall(call *ast.CallExpr) (recv string, read, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		read = false
	case "RLock":
		read = true
	default:
		return "", false, false
	}
	if t := p.TypeOf(sel.X); t != nil && !hasMethod(t, unlockName(read)) {
		return "", false, false
	}
	return types.ExprString(sel.X), read, true
}

func unlockName(read bool) string {
	if read {
		return "RUnlock"
	}
	return "Unlock"
}

func hasMethod(t types.Type, name string) bool {
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(tt)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				return true
			}
		}
	}
	return false
}

// checkLock walks the CFG from one Lock call with the unlock as the
// obligation's release. Report policy, preserved from the pre-CFG
// heuristic so fixtures and suppressions stay stable:
//
//   - no unlock anywhere downstream → one finding at the Lock;
//   - unlocks exist but a path leaks → one finding per leaking return;
//   - a blocking primitive while the lock is open → finding at the
//     blocking call (observed via onOpen, i.e. precisely on held paths,
//     where the old heuristic used textual Lock..firstUnlock bounds).
func (p *Pass) checkLock(g *funcCFG, funcBody *ast.BlockStmt, l lockSite) {
	want := unlockName(l.read)

	// A deferred unlock anywhere in the function covers every path.
	if p.hasDeferredUnlock(funcBody, l.recv, want) {
		return
	}

	ob := &obligation{acquire: l.call, recv: l.recv}
	seenBlocking := map[token.Pos]bool{}
	spec := &obligationSpec{
		isRelease: func(_ *obligation, call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == want && types.ExprString(sel.X) == l.recv
		},
		onOpen: func(n ast.Node) {
			inspectSameFunc(scanTarget(n), func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !blockingPrimNames[sel.Sel.Name] || !p.isSimBlockingRecv(sel.X) {
					return true
				}
				if seenBlocking[call.Pos()] {
					return true
				}
				seenBlocking[call.Pos()] = true
				p.Reportf(call.Pos(),
					"release "+l.recv+" before blocking; a parked holder stalls every user of the lock (in virtual time it deadlocks the event loop)",
					"blocking primitive %s.%s called while %s is held",
					types.ExprString(sel.X), sel.Sel.Name, l.recv)
				return true
			})
		},
	}
	blk, idx := findNode(g, l.stmt)
	if blk == nil {
		return
	}
	leaks := walkObligation(g, blk, idx+1, ob, spec)
	if len(leaks) == 0 {
		return
	}
	hasUnlock := false
	inspectSameFunc(funcBody, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() > l.call.Pos() && spec.isRelease(ob, call) {
			hasUnlock = true
		}
		return !hasUnlock
	})
	if !hasUnlock {
		p.Reportf(l.call.Pos(),
			"add `defer "+l.recv+"."+want+"()` immediately after the Lock",
			"%s.%s with no matching %s on any path", l.recv, lockName(l.read), want)
		return
	}
	for _, lk := range leaks {
		if ret, ok := lk.at.(*ast.ReturnStmt); ok {
			p.Reportf(ret.Pos(),
				"unlock before returning, or hoist a `defer "+l.recv+"."+want+"()`",
				"early return leaves %s locked", l.recv)
			continue
		}
		p.Reportf(lk.at.Pos(),
			"unlock on this path, or hoist a `defer "+l.recv+"."+want+"()`",
			"path leaves %s locked at function exit", l.recv)
	}
}

func lockName(read bool) string {
	if read {
		return "RLock"
	}
	return "Lock"
}

func (p *Pass) hasDeferredUnlock(funcBody *ast.BlockStmt, recv, want string) bool {
	found := false
	inspectSameFunc(funcBody, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		if sel, ok := def.Call.Fun.(*ast.SelectorExpr); ok &&
			sel.Sel.Name == want && types.ExprString(sel.X) == recv {
			found = true
		}
		return !found
	})
	return found
}

// isSimBlockingRecv reports whether e's type is a virtual-time primitive:
// declared under internal/sim or internal/mpi, or named like one (fixture
// escape hatch). sync.Cond and friends stay exempt.
func (p *Pass) isSimBlockingRecv(e ast.Expr) bool {
	t := p.TypeOf(e)
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
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path == "sync" || path == "time" {
		return false
	}
	if strings.Contains(path, "internal/sim") || strings.Contains(path, "internal/mpi") {
		return true
	}
	return simPrimitiveTypeNames[obj.Name()]
}
