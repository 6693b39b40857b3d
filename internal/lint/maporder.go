package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// simScheduleMethods are the sim.Engine calls that enqueue events; doing
// so in map-iteration order randomizes the event heap's tie-breaking seq
// numbers and with them the whole run.
var simScheduleMethods = map[string]bool{"At": true, "After": true, "Defer": true}

// obsEmitMethods are the *obs.Tracer calls that write to the trace; the
// byte-identical-trace determinism tests fail if their order floats.
var obsEmitMethods = map[string]bool{"Emit": true, "RunStart": true}

// Maporder flags `range` over a map whose body lets the iteration order
// escape: appending to a slice that is never sorted, scheduling a sim
// event, emitting an obs event, or writing a Results field. Go randomizes
// map iteration per run, so any of these turns into nondeterministic
// output. The sanctioned shape is collect-keys-then-sort (the append is
// allowed when the slice is sorted later in the same function).
func Maporder() *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "flag map iteration whose order leaks into slices, sim events, obs events, or Results",
	}
	a.Run = func(p *Package) []Finding {
		var out []Finding
		report := func(n ast.Node, format string, args ...any) {
			out = append(out, Finding{
				Pos:      p.Fset.Position(n.Pos()),
				Analyzer: a.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		}
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
				if body == nil {
					return true
				}
				ast.Inspect(body, func(n ast.Node) bool {
					rng, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					t := exprType(p, rng.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						return true
					}
					checkMapRangeBody(p, rng, body, report)
					return true
				})
				// The walk above covered nested function literals, so
				// stop here: each range is checked once, against its
				// outermost enclosing function body.
				return false
			})
		}
		return out
	}
	return a
}

// checkMapRangeBody inspects one map-range body for order leaks. body is
// the outermost enclosing function body, used to look for a later sort of
// any slice the range appends to.
func checkMapRangeBody(p *Package, rng *ast.RangeStmt, body *ast.BlockStmt, report func(ast.Node, string, ...any)) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && isAppendCall(n.Rhs[i]) {
					checkAppend(p, lhs, n, rng, body, report)
				}
				if sel, ok := lhs.(*ast.SelectorExpr); ok && isResultsField(p, sel) {
					report(n, "writes Results.%s in map-iteration order; iterate sorted keys instead", sel.Sel.Name)
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && isResultsField(p, sel) {
				report(n, "writes Results.%s in map-iteration order; iterate sorted keys instead", sel.Sel.Name)
			}
		case *ast.CallExpr:
			if m, ok := methodCallOn(p, n, "internal/sim", "Engine"); ok && simScheduleMethods[m] {
				report(n, "schedules a sim event (Engine.%s) in map-iteration order; iterate sorted keys instead", m)
			}
			if m, ok := methodCallOn(p, n, "internal/obs", "Tracer"); ok && obsEmitMethods[m] {
				report(n, "emits an obs event (Tracer.%s) in map-iteration order; iterate sorted keys instead", m)
			}
		}
		return true
	})
}

// isAppendCall matches the builtin append.
func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// isResultsField reports whether sel selects a field of the top-level
// Results type (the simulator's published per-run output).
func isResultsField(p *Package, sel *ast.SelectorExpr) bool {
	t := exprType(p, sel.X)
	return t != nil && isNamedType(t, "gcsteering", "Results")
}

// checkAppend handles `s = append(s, ...)` inside a map range: allowed
// only when s is a local identifier that some later statement of the
// enclosing function passes to a sort call (the collect-then-sort idiom).
func checkAppend(p *Package, lhs ast.Expr, at ast.Node, rng *ast.RangeStmt, body *ast.BlockStmt, report func(ast.Node, string, ...any)) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		report(at, "appends to %s in map-iteration order; collect keys and sort first", exprIdentName(lhs))
		return
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj != nil && sortedAfter(p, body, rng.End(), obj) {
		return
	}
	report(at, "appends to %s in map-iteration order without a later sort; collect keys and sort first", id.Name)
}

// sortedAfter reports whether, after pos, the function body calls into
// package sort or slices with obj as an argument (sort.Strings(keys),
// sort.Slice(keys, ...), slices.Sort(keys), ...).
func sortedAfter(p *Package, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg := importedPackage(p, sel.X); pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && p.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
