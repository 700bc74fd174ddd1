package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// batchSiblings maps a per-element method name to the batched entry
// points that supersede it inside loops. It lists only pairs some type in
// the tree has: the burst seam, where store.Backend and tsdb.DB offer
// InsertBatches so a burst of batches takes the write-ahead log and the
// ingest lock once instead of once per batch.
var batchSiblings = map[string][]string{
	"InsertBatch": {"InsertBatches"},
}

// BatchInsert flags per-batch InsertBatch calls inside loops when the
// receiver's method set offers InsertBatches: each such call pays the
// receiver's lock and log write once per batch, which is exactly the
// convoying the burst entry point was built to remove.
//
// The batched sibling's own implementation is exempt — an InsertBatches
// that hands each batch to InsertBatch is the batching layer, not a
// caller that missed it.
func BatchInsert() *Analyzer {
	return &Analyzer{
		Name: "batchinsert",
		Doc:  "per-batch InsertBatch in a loop where the receiver has InsertBatches",
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
