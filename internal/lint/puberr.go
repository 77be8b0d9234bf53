package lint

import (
	"go/ast"
	"go/types"
)

var puberrCheck = &Check{
	Name: "puberr",
	Doc:  "errors from Publish/Store/Ingest call sites must not be silently discarded",
	Run:  runPuberr,
}

// pubErrNames are the delivery-path methods whose error return reports data
// loss. Dropping one silently is how a diagnosis pipeline develops holes
// nobody notices until the anomaly table is wrong. Insert/Append cover the
// durable DSOS ingest path (a dropped insert or WAL append error breaks the
// ack contract); Restart/Recover cover crash recovery, where a swallowed
// error leaves a shard silently empty. Ack/Nak/Fetch/AppendStream cover the
// durable-stream consumer protocol: a swallowed Ack error stalls the floor
// (redelivery storms), a swallowed Fetch error looks like an empty stream.
// AppendBatch/AckBatch are the same calls for a whole frame or round, where
// a dropped error loses or stalls sixty-four messages at once; PublishBatch
// is listed beside Publish (both return receiver counts today, so only an
// error-returning namesake is flagged).
// InsertBatch covers placement — dsos.Client.InsertBatch, the one insert
// path under either strategy — and Grow/Shrink cover topo.HashCluster's
// shard migration: a dropped Grow error hides a move that did not
// happen, so the shard set is not what the operator asked for.
var pubErrNames = map[string]bool{
	"Publish": true, "PublishJSON": true, "PublishString": true,
	"Store": true, "Ingest": true,
	"Insert": true, "Append": true, "Restart": true, "Recover": true,
	"Ack": true, "Nak": true, "Fetch": true, "AppendStream": true,
	"AppendBatch": true, "AckBatch": true, "PublishBatch": true,
	"InsertBatch": true, "Grow": true, "Shrink": true,
}

// runPuberr flags bare expression statements calling a pubErrNames method
// whose (last) result is an error. An explicit `_ = x.Publish(m)` is
// accepted as a deliberate, visible discard; the bare call is not, because
// it is indistinguishable from a forgotten check.
func runPuberr(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !pubErrNames[sel.Sel.Name] {
				return true
			}
			if !p.callReturnsError(call) {
				return true
			}
			p.Reportf(call.Pos(),
				"handle the error (retry, count, or log it); for true fire-and-forget use `_ =` or //lint:allow puberr <reason>",
				"error from %s.%s discarded — a failed publish/store is silent data loss",
				types.ExprString(sel.X), sel.Sel.Name)
			return true
		})
	}
}

// callReturnsError reports whether the call's sole or last result is error.
// Without type information the call is not flagged (Bus.Publish returns a
// drop count, not an error; guessing by name alone would cry wolf).
func (p *Pass) callReturnsError(call *ast.CallExpr) bool {
	t := p.TypeOf(call)
	if t == nil {
		return false
	}
	switch rt := t.(type) {
	case *types.Tuple:
		if rt.Len() == 0 {
			return false
		}
		return isErrorType(rt.At(rt.Len() - 1).Type())
	default:
		return isErrorType(rt)
	}
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) || t.String() == "error"
}
