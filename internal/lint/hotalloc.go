package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc enforces the allocation-free hot path (PR 7's invariant,
// measured by the bench gate) statically: a function reachable from a
// //gcsvet:hot root through the CHA call graph may not contain
// heap-allocating constructs. The scratch-buffer idioms the hot path is
// built from are recognized as safe:
//
//   - append whose destination is a reslice (s[:0]), a struct field, an
//     index expression, a parameter, or a local derived from one of
//     those (exts := a.lay.Split(a.scratch[:0], ...))
//   - non-capturing function literals
//   - value composite literals of struct type (no escape)
//
// Failure paths are cold by construction: panic arguments, if-bodies
// that terminate in panic, and return statements whose error result is
// non-nil are not checked. Episodic or opt-in work reached from the hot
// path (GC planning, journal writes) is fenced off with //gcsvet:cold
// on the callee, which stops traversal. Callbacks reached only through
// func values scheduled on the engine (a field bound once and handed to
// Engine.At or Defer) are not traversed, so the deferred background
// pumps (reclaim, rebuild, scrub, resync) are pinned by AllocsPerRun
// tests instead.
func Hotalloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "forbid heap-allocating constructs in functions reachable from //gcsvet:hot roots",
	}
	a.RunProgram = func(prog *Program) []Finding {
		var out []Finding
		for _, fn := range prog.hotReachable() {
			c := &hotChecker{p: fn.pkg, decl: fn.decl, name: a.Name}
			c.check()
			out = append(out, c.out...)
		}
		return out
	}
	return a
}

// hotChecker walks one hot-reachable function body.
type hotChecker struct {
	p    *Package
	decl *ast.FuncDecl
	name string
	cold []posRange // source ranges excluded as failure paths
	// fieldMakes are make calls whose result lands directly in a struct
	// field (a.scratch = make(...)): amortized growth of retained
	// storage, the sanctioned warm-up shape — not a per-request cost.
	fieldMakes map[*ast.CallExpr]bool
	out        []Finding
}

type posRange struct{ start, end token.Pos }

func (c *hotChecker) report(n ast.Node, format string, args ...any) {
	c.out = append(c.out, Finding{
		Pos:      c.p.Fset.Position(n.Pos()),
		Analyzer: c.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (c *hotChecker) check() {
	c.markColdRegions()
	c.markFieldMakes()
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if c.inCold(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n, "composite literal escapes to the heap (&T{...}); reuse a preallocated object")
				}
			}
		case *ast.CompositeLit:
			if t := exprType(c.p, n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					c.report(n, "map literal allocates on the hot path")
				case *types.Slice:
					c.report(n, "slice literal allocates a backing array on the hot path; reuse a scratch buffer")
				}
			}
		case *ast.FuncLit:
			if caps := capturedVars(c.p, c.decl, n); len(caps) > 0 {
				c.report(n, "closure captures %s and allocates per call; hoist the state or sanction the site with //lint:allow", quoteList(caps))
			}
		case *ast.RangeStmt:
			if t := exprType(c.p, n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					c.report(n, "iterates a map on the hot path; map iteration is randomized and costs an iterator")
				}
			}
		}
		return true
	})
}

// markColdRegions records the failure-path subtrees the walk skips:
// panic arguments, if-bodies ending in panic, and non-nil error returns.
func (c *hotChecker) markColdRegions() {
	errType := types.Universe.Lookup("error").Type()
	returnsError := false
	if res := c.decl.Type.Results; res != nil && len(res.List) > 0 {
		last := res.List[len(res.List)-1]
		if t := exprType(c.p, last.Type); t != nil && types.Identical(t, errType) {
			returnsError = true
		}
	}
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, ok := c.p.Info.Uses[id].(*types.Builtin); ok {
					for _, arg := range n.Args {
						c.cold = append(c.cold, posRange{arg.Pos(), arg.End()})
					}
				}
			}
		case *ast.IfStmt:
			if blockEndsInPanic(c.p, n.Body) {
				c.cold = append(c.cold, posRange{n.Body.Pos(), n.Body.End()})
			}
		case *ast.ReturnStmt:
			if returnsError && len(n.Results) > 0 {
				last := n.Results[len(n.Results)-1]
				t := exprType(c.p, last)
				if t != nil && types.Identical(t, errType) && !isNilIdent(last) {
					c.cold = append(c.cold, posRange{n.Pos(), n.End()})
				}
			}
		}
		return true
	})
}

// markFieldMakes records make calls assigned directly to struct fields.
func (c *hotChecker) markFieldMakes() {
	c.fieldMakes = make(map[*ast.CallExpr]bool)
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if _, ok := lhs.(*ast.SelectorExpr); !ok {
				continue
			}
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" {
					if _, b := c.p.Info.Uses[id].(*types.Builtin); b {
						c.fieldMakes[call] = true
					}
				}
			}
		}
		return true
	})
}

func (c *hotChecker) inCold(pos token.Pos) bool {
	for _, r := range c.cold {
		if pos >= r.start && pos < r.end {
			return true
		}
	}
	return false
}

func blockEndsInPanic(p *Package, b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}

func (c *hotChecker) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if importedPackage(c.p, sel.X) == "fmt" {
			c.report(call, "calls fmt.%s on the hot path; fmt formats through interfaces and allocates", sel.Sel.Name)
			return
		}
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := c.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				c.checkAppend(call)
			case "make":
				if !c.fieldMakes[call] {
					c.report(call, "make allocates on the hot path; preallocate in a constructor and reuse")
				}
			case "new":
				c.report(call, "new(T) allocates on the hot path; reuse a preallocated object")
			}
			return
		}
	}
	// Explicit conversion of a concrete value to an interface type.
	if tv, ok := c.p.Info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			if at := exprType(c.p, call.Args[0]); at != nil && !types.IsInterface(at) && !isNilIdent(call.Args[0]) {
				c.report(call, "converts %s to an interface on the hot path; boxing allocates", at)
			}
		}
	}
}

// checkAppend flags appends whose destination does not reuse backing
// storage the hot path already owns.
func (c *hotChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	if c.safeDst(dst, make(map[types.Object]bool)) {
		return
	}
	name := exprIdentName(dst)
	if name == "" {
		name = "destination"
	}
	c.report(call, "appends to %s, which does not reuse preallocated backing storage; grow a scratch buffer (s := b.scratch[:0]) instead", name)
}

// safeDst reports whether an append destination reuses existing backing
// storage: a reslice, field, index expression, call result, parameter,
// or a local that some assignment in the function derives from one of
// those. visited breaks x = append(x, ...) self-cycles.
func (c *hotChecker) safeDst(e ast.Expr, visited map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr, *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.CallExpr:
		if isAppendCall(e) {
			return len(e.Args) > 0 && c.safeDst(e.Args[0], visited)
		}
		return true // a callee handing out storage owns the decision
	case *ast.Ident:
		obj := c.p.Info.Uses[e]
		if obj == nil {
			obj = c.p.Info.Defs[e]
		}
		if obj == nil || visited[obj] {
			return false
		}
		visited[obj] = true
		if c.isParamOrRecv(obj) {
			return true
		}
		safe := false
		ast.Inspect(c.decl.Body, func(n ast.Node) bool {
			if safe {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || c.objOf(id) != obj {
						continue
					}
					rhs := n.Rhs[0]
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					if c.safeDst(rhs, visited) {
						safe = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if c.objOf(name) != obj || i >= len(n.Values) {
						continue
					}
					if c.safeDst(n.Values[i], visited) {
						safe = true
					}
				}
			}
			return true
		})
		return safe
	}
	return false
}

func (c *hotChecker) objOf(id *ast.Ident) types.Object {
	if o := c.p.Info.Defs[id]; o != nil {
		return o
	}
	return c.p.Info.Uses[id]
}

// isParamOrRecv reports whether obj is declared in the function's
// receiver or parameter list (appending into caller-provided storage is
// the caller's contract, as in appendReconstruct(dst []SubOp, ...)).
func (c *hotChecker) isParamOrRecv(obj types.Object) bool {
	pos := obj.Pos()
	if r := c.decl.Recv; r != nil && pos >= r.Pos() && pos < r.End() {
		return true
	}
	if p := c.decl.Type.Params; p != nil && pos >= p.Pos() && pos < p.End() {
		return true
	}
	return false
}

// capturedVars lists the enclosing-function variables a function literal
// closes over (a capturing closure allocates its context per call).
func capturedVars(p *Package, decl *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := make(map[string]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if pos := v.Pos(); pos >= decl.Pos() && pos < lit.Pos() && !seen[v.Name()] {
			seen[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}

func quoteList(names []string) string {
	var b bytes.Buffer
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q", n)
	}
	return b.String()
}
