package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// batchSiblings maps a per-element method name to the batched entry
// points that supersede it inside loops. These are the repo's batching
// seams: store.Backend/tsdb.DB grew InsertBatch, cache.Cache grew
// StoreBatch and the sink layer grew PushBatch/PushSeries so the hot
// ingest and tick paths take each lock once per batch instead of once
// per reading; one level up, the backends grew InsertBatches and the
// sink PushBurst, so a burst of batches takes the write-ahead log and
// the ingest lock once instead of once per batch.
var batchSiblings = map[string][]string{
	"Insert":      {"InsertBatch"},
	"Store":       {"StoreBatch"},
	"Push":        {"PushBatch", "PushSeries"},
	"InsertBatch": {"InsertBatches"},
	"PushSeries":  {"PushBurst"},
}

// BatchInsert flags per-element Insert/Store/Push calls — and per-batch
// InsertBatch/PushSeries calls — inside loops when the receiver's method
// set offers a batched sibling (InsertBatch/StoreBatch/PushBatch/
// PushSeries, InsertBatches/PushBurst): each such call pays the
// receiver's lock, lookup or log write once per element, which is
// exactly the convoying the batched entry points were built to remove.
//
// The batched sibling's own implementation is exempt — a PushBatch that
// degrades single-element runs to Push is the batching layer, not a
// caller that missed it.
func BatchInsert() *Analyzer {
	return &Analyzer{
		Name: "batchinsert",
		Doc:  "per-element Insert/Store/Push (or per-batch InsertBatch/PushSeries) in a loop where a batched sibling exists",
		Run:  runBatchInsert,
	}
}

func runBatchInsert(m *Module) []Finding {
	var out []Finding
	walkFuncs(m, func(pkg *Package, decl *ast.FuncDecl) {
		// Inside the body of a batched entry point, per-element calls are
		// the implementation pattern.
		exempt := map[string]bool{}
		for single, batched := range batchSiblings {
			for _, b := range batched {
				if decl.Name.Name == b {
					exempt[single] = true
				}
			}
		}
		var walk func(n ast.Node, loopDepth int)
		walk = func(n ast.Node, loopDepth int) {
			switch n := n.(type) {
			case nil:
				return
			case *ast.ForStmt:
				walk(n.Init, loopDepth)
				walk(n.Cond, loopDepth)
				walk(n.Post, loopDepth)
				walk(n.Body, loopDepth+1)
				return
			case *ast.RangeStmt:
				walk(n.X, loopDepth)
				walk(n.Body, loopDepth+1)
				return
			case *ast.FuncLit:
				// A literal's execution point is unknowable here; start it
				// at depth zero rather than inheriting the enclosing loop.
				walk(n.Body, 0)
				return
			case *ast.CallExpr:
				if loopDepth > 0 {
					if f := perElementCall(m, pkg, n, exempt); f != nil {
						out = append(out, *f)
					}
				}
			}
			// Generic descent.
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n {
					return true
				}
				walk(c, loopDepth)
				return false
			})
		}
		walk(decl.Body, 0)
	})
	return out
}

// perElementCall reports a per-element call whose receiver offers a
// batched sibling, or nil.
func perElementCall(m *Module, pkg *Package, call *ast.CallExpr, exempt map[string]bool) *Finding {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	name := sel.Sel.Name
	siblings, ok := batchSiblings[name]
	if !ok || exempt[name] {
		return nil
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	recv := s.Recv()
	for _, sib := range siblings {
		if methodSetHas(recv, sib) {
			return &Finding{
				Pos:      m.Fset.Position(call.Pos()),
				Analyzer: "batchinsert",
				Message: fmt.Sprintf("per-element %s call in a loop; %s has %s — batch the loop body instead",
					name, types.TypeString(recv, shortQualifier), sib),
			}
		}
	}
	return nil
}

// shortQualifier renders package-qualified type names with the bare
// package name, keeping findings readable.
func shortQualifier(p *types.Package) string { return p.Name() }
