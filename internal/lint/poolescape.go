package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape enforces the pooling ownership contract: a value obtained
// from a sync.Pool — directly via (*sync.Pool).Get or through a trivial
// accessor such as getTickContext that merely wraps one — must not
// outlive the function that got it. Once Put returns the value to the
// pool another goroutine may reuse it, so any retained reference is a
// use-after-recycle waiting to happen. Flagged escapes:
//
//   - storing the value (or anything derived from it: &x, x.field, *x,
//     x[i]) into a struct field or a package-level variable,
//   - sending it on a channel,
//   - returning it,
//   - handing it to a new goroutine (captured by the literal or passed
//     as an argument).
//
// Copying the data out is the sanctioned pattern and is recognized:
// append(dst, x...) element spreads, copy(dst, x), and len/cap queries
// never retain the pooled memory.
//
// The same rule covers the transport BurstHandler contract: inside a
// function literal passed to SubscribeLocal, the burst parameter — the
// message slice and every Readings slice in it — is connection-owned
// recycled memory, valid only for the duration of the call. Ranging
// over pooled memory makes the element variable pooled too.
func PoolEscape() *Analyzer {
	return &Analyzer{
		Name: "poolescape",
		Doc:  "sync.Pool values must not be retained past the acquiring call",
		Run:  runPoolEscape,
	}
}

func runPoolEscape(m *Module) []Finding {
	accessors := poolAccessors(m)
	var out []Finding
	walkFuncs(m, func(pkg *Package, decl *ast.FuncDecl) {
		pe := &poolEscapePass{
			m:         m,
			pkg:       pkg,
			accessors: accessors,
			pooled:    map[types.Object]bool{},
			out:       &out,
		}
		pe.run(decl.Body)
	})
	return out
}

// poolAccessors finds the module's trivial pool accessors: functions
// whose body is exactly one return of a pool-source expression (e.g.
// getTickContext wrapping tickCtxPool.Get). Calls to them count as pool
// sources themselves; chains of wrappers resolve by fixpoint.
func poolAccessors(m *Module) map[*types.Func]bool {
	accessors := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		walkFuncs(m, func(pkg *Package, decl *ast.FuncDecl) {
			fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
			if !ok || accessors[fn] || len(decl.Body.List) != 1 {
				return
			}
			ret, ok := decl.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return
			}
			if isPoolSource(pkg.Info, ret.Results[0], accessors) {
				accessors[fn] = true
				changed = true
			}
		})
	}
	return accessors
}

// isPoolSource reports whether expr yields a pooled value: a
// (*sync.Pool).Get call, a call to a known trivial accessor, or a type
// assertion over either.
func isPoolSource(info *types.Info, expr ast.Expr, accessors map[*types.Func]bool) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.TypeAssertExpr:
		return isPoolSource(info, e.X, accessors)
	case *ast.CallExpr:
		fn := calleeFunc(info, e)
		if fn == nil {
			return false
		}
		if fn.Name() == "Get" {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isNamed(sig.Recv().Type(), "sync", "Pool") {
				return true
			}
		}
		return accessors[fn]
	}
	return false
}

// poolEscapePass tracks one function's pooled values and reports their
// escapes. Closures share the enclosing function's pooled set (they
// close over the same variables); each FuncDecl starts fresh.
type poolEscapePass struct {
	m         *Module
	pkg       *Package
	accessors map[*types.Func]bool
	// pooled holds the variables currently known to alias pool memory.
	pooled map[types.Object]bool
	out    *[]Finding
}

func (pe *poolEscapePass) run(body *ast.BlockStmt) {
	// Pass 1: seed pooled variables (and handler params), with a fixpoint
	// so local aliases (y := x), range variables over pooled slices and
	// aliases of a burst's messages are caught regardless of statement
	// order in nested closures.
	pe.markHandlerLiterals(body)
	for changed := true; changed; {
		changed = false
		mark := func(lhs, rhs ast.Expr) {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return
			}
			obj := pe.pkg.Info.Defs[id]
			if obj == nil {
				obj = pe.pkg.Info.Uses[id]
			}
			if obj == nil || pe.pooled[obj] {
				return
			}
			if isPoolSource(pe.pkg.Info, rhs, pe.accessors) || pe.isPooledAlias(rhs) {
				pe.pooled[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						mark(lhs, n.Rhs[i])
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					mark(n.Value, n.X)
				}
			}
			return true
		})
	}
	// Pass 2: report escapes.
	pe.checkEscapes(body)
}

// markHandlerLiterals records the burst parameters of function literals
// passed to SubscribeLocal: they are recycled memory.
func (pe *poolEscapePass) markHandlerLiterals(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "SubscribeLocal" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			for _, field := range lit.Type.Params.List {
				for _, name := range field.Names {
					if obj := pe.pkg.Info.Defs[name]; obj != nil {
						pe.pooled[obj] = true
					}
				}
			}
		}
		return true
	})
}

// isPooledAlias reports whether expr is directly derived from a pooled
// variable: x, &x, *x, x.field, x[i] or a type assertion over one.
func (pe *poolEscapePass) isPooledAlias(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := pe.pkg.Info.Uses[e]
		return obj != nil && pe.pooled[obj]
	case *ast.UnaryExpr:
		return pe.isPooledAlias(e.X)
	case *ast.StarExpr:
		return pe.isPooledAlias(e.X)
	case *ast.IndexExpr:
		return pe.isPooledAlias(e.X)
	case *ast.SliceExpr:
		return pe.isPooledAlias(e.X)
	case *ast.TypeAssertExpr:
		return pe.isPooledAlias(e.X)
	case *ast.SelectorExpr:
		return pe.isPooledAlias(e.X)
	}
	return false
}

// containsPooled reports whether any subexpression of expr aliases
// pooled memory, skipping the copying carve-outs (append element
// spread, copy, len, cap) and nested function literals (their bodies
// are checked as part of the same pass, with their own statements).
func (pe *poolEscapePass) containsPooled(expr ast.Expr) (ast.Expr, bool) {
	var found ast.Expr
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if name, ok := builtinName(pe.pkg.Info, n); ok {
				switch name {
				case "len", "cap", "copy":
					return false // reads or copies elements, never retains
				case "append":
					if n.Ellipsis.IsValid() {
						// append(dst, x...) copies x's elements into dst.
						for _, arg := range n.Args[:len(n.Args)-1] {
							if e, ok := pe.containsPooled(arg); ok {
								found = e
							}
						}
						return false
					}
				}
			}
		case ast.Expr:
			if pe.isPooledAlias(n) {
				found = n
				return false
			}
		}
		return true
	})
	return found, found != nil
}

// builtinName resolves a call to the predeclared builtin it invokes.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

// checkEscapes walks the function (including nested literals) and
// reports every statement that lets pooled memory outlive the call.
func (pe *poolEscapePass) checkEscapes(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			pe.checkAssign(n)
		case *ast.SendStmt:
			if e, ok := pe.containsPooled(n.Value); ok {
				pe.report(n.Pos(), "pooled value %s sent on a channel; the receiver outlives the pool ownership", render(pe.m, e))
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if e, ok := pe.containsPooled(r); ok {
					pe.report(n.Pos(), "pooled value %s returned; the caller would retain recycled memory", render(pe.m, e))
				}
			}
		case *ast.GoStmt:
			pe.checkGo(n)
		}
		return true
	})
}

// checkAssign reports stores of pooled memory into locations that
// outlive the function: struct fields and package-level variables.
func (pe *poolEscapePass) checkAssign(assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		if i >= len(assign.Rhs) {
			break // x, y := f() — a call result is never a tracked alias
		}
		var sink string
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if f := selField(pe.pkg.Info, l); f != nil && !pe.isPooledAlias(l.X) {
				sink = "struct field " + l.Sel.Name
			}
		case *ast.Ident:
			if v := pkgLevelVar(pe.pkg.Info, l); v != nil {
				sink = "package variable " + v.Name()
			}
		case *ast.IndexExpr:
			// m[k] = x where m is a field or package var.
			switch x := ast.Unparen(l.X).(type) {
			case *ast.SelectorExpr:
				if f := selField(pe.pkg.Info, x); f != nil && !pe.isPooledAlias(x.X) {
					sink = "struct field " + x.Sel.Name
				}
			case *ast.Ident:
				if v := pkgLevelVar(pe.pkg.Info, x); v != nil {
					sink = "package variable " + v.Name()
				}
			}
		}
		if sink == "" {
			continue
		}
		if e, ok := pe.containsPooled(assign.Rhs[i]); ok {
			pe.report(assign.Pos(), "pooled value %s stored into %s; it outlives the pool ownership", render(pe.m, e), sink)
		}
	}
}

// checkGo reports pooled memory handed to a new goroutine, either as a
// call argument or captured by the goroutine's function literal.
func (pe *poolEscapePass) checkGo(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if e, ok := pe.containsPooled(arg); ok {
			pe.report(g.Pos(), "pooled value %s passed to a goroutine; it may be recycled while the goroutine runs", render(pe.m, e))
		}
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && pe.isPooledAlias(e) {
			pe.report(g.Pos(), "goroutine captures pooled value %s; it may be recycled while the goroutine runs", render(pe.m, e))
			return false
		}
		return true
	})
}

func (pe *poolEscapePass) report(pos token.Pos, format string, args ...any) {
	*pe.out = append(*pe.out, Finding{
		Pos:      pe.m.Fset.Position(pos),
		Analyzer: "poolescape",
		Message:  fmt.Sprintf(format, args...),
	})
}

// render prints a small expression for a finding message.
func render(m *Module, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name + "." + e.Sel.Name
		}
		return e.Sel.Name
	default:
		return "derived from a pool"
	}
}
