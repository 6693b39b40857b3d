package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-program layer under the interprocedural
// analyzers (hotalloc, inert, suppaudit): a CHA-style call graph built
// from nothing but the go/types information the loader already produces.
//
// Function identity is a string key ("pkgpath.Func" or
// "pkgpath.Recv.Method") rather than a *types.Func pointer. Each package
// is type-checked from source while its dependencies are loaded from
// compiler export data, so the same declaration is represented by
// distinct objects in different packages; the key is what stays stable
// across those views.
//
// Edges cover direct calls, interface method calls, and method values.
// An interface call edge goes to every named type declared in the module
// that implements the interface (the class-hierarchy approximation).
// Calls through plain func values — event callbacks, hook fields — are
// NOT followed: the simulator's convention is that such callbacks are
// constructed on an annotated path, so their bodies are reached through
// the function literal or the method value (x.M, bound once into a pooled
// record) that created them, not through the dynamic call.

// funcDirective marks the gcsvet traversal annotations on a FuncDecl.
const (
	hotDirective  = "gcsvet:hot"  // allocation-free hot-path root
	coldDirective = "gcsvet:cold" // traversal boundary: episodic/opt-in work
)

// progFunc is one function or method declared (with a body) in a module
// package.
type progFunc struct {
	key  string
	pkg  *Package
	decl *ast.FuncDecl
	hot  bool
	cold bool
}

// Program is the whole-module view handed to interprocedural analyzers:
// every analyzed package plus a lazily built call graph.
type Program struct {
	Pkgs []*Package

	built bool
	funcs map[string]*progFunc // declared module functions by key
	calls map[string][]string  // caller key -> callee keys
	// implCache memoizes interface-method resolution by a structural
	// interface signature, shared across call sites and packages.
	implCache map[string][]string
}

// NewProgram wraps a set of loaded packages. The call graph is built on
// first use so per-package analyzers pay nothing for it.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs}
}

// funcKey derives the stable cross-package identity of fn.
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pathOf := func(p *types.Package) string {
		if p == nil {
			return "builtin"
		}
		return p.Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			obj := n.Origin().Obj()
			return pathOf(obj.Pkg()) + "." + obj.Name() + "." + fn.Name()
		}
		// Interface receivers never correspond to a module declaration;
		// CHA resolves their call sites to concrete methods instead.
		return "interface." + fn.Name()
	}
	return pathOf(fn.Pkg()) + "." + fn.Name()
}

// funcDirectives parses the gcsvet traversal annotations from a doc
// comment.
func funcDirectives(doc *ast.CommentGroup) (hot, cold bool) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		switch strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) {
		case hotDirective:
			hot = true
		case coldDirective:
			cold = true
		}
	}
	return
}

// build populates the function registry and the call edges.
func (prog *Program) build() {
	if prog.built {
		return
	}
	prog.built = true
	prog.funcs = make(map[string]*progFunc)
	prog.calls = make(map[string][]string)
	prog.implCache = make(map[string][]string)
	for _, p := range prog.Pkgs {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				hot, cold := funcDirectives(decl.Doc)
				prog.funcs[funcKey(obj)] = &progFunc{
					key: funcKey(obj), pkg: p, decl: decl, hot: hot, cold: cold,
				}
			}
		}
	}
	// Edge lists are built in sorted caller order so the graph — and with
	// it every analyzer's traversal — is identical run to run.
	keys := make([]string, 0, len(prog.funcs))
	for k := range prog.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		caller := prog.funcs[k]
		ast.Inspect(caller.decl.Body, func(n ast.Node) bool {
			if n, ok := n.(ast.Expr); ok {
				prog.calls[caller.key] = append(prog.calls[caller.key], prog.callees(caller.pkg, n)...)
			}
			return true
		})
	}
}

// callees resolves one expression to the keys of the functions it may
// invoke: a call of a named function, or a method selection x.M — called,
// or bound as a callback, which then runs on the path that bound it just
// as a function literal's body does (CHA for interface receivers).
// Dynamic calls through func values resolve to nothing.
func (prog *Program) callees(p *Package, e ast.Expr) []string {
	var fn *types.Func
	switch e := e.(type) {
	case *ast.CallExpr:
		fun := ast.Unparen(e.Fun)
		if sel, ok := fun.(*ast.SelectorExpr); ok && p.Info.Selections[sel] == nil {
			fun = sel.Sel // package-qualified call (pkg.Func) or a conversion
		}
		if id, ok := fun.(*ast.Ident); ok {
			fn, _ = p.Info.Uses[id].(*types.Func)
		}
	case *ast.SelectorExpr:
		sel := p.Info.Selections[e]
		if sel == nil || sel.Kind() != types.MethodVal {
			return nil
		}
		fn, _ = sel.Obj().(*types.Func)
		if iface, ok := deref(sel.Recv()).Underlying().(*types.Interface); ok && fn != nil {
			return prog.implementers(iface, fn.Name())
		}
	}
	if fn == nil {
		return nil
	}
	return []string{funcKey(fn)}
}

// implementers returns the keys of every method named name on a module
// type that satisfies iface — the CHA resolution of an interface call.
func (prog *Program) implementers(iface *types.Interface, name string) []string {
	cacheKey := iface.String() + "\x00" + name
	if out, ok := prog.implCache[cacheKey]; ok {
		return out
	}
	var out []string
	for _, p := range prog.Pkgs {
		scope := p.Pkg.Scope()
		for _, tn := range scope.Names() {
			obj, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			recv := types.Type(named)
			if !types.Implements(recv, iface) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, iface) {
					continue
				}
			}
			m, _, _ := types.LookupFieldOrMethod(recv, true, p.Pkg, name)
			if fn, ok := m.(*types.Func); ok {
				out = append(out, funcKey(fn))
			}
		}
	}
	sort.Strings(out)
	prog.implCache[cacheKey] = out
	return out
}

// hotReachable returns the module functions reachable from //gcsvet:hot
// roots without entering a //gcsvet:cold boundary, keyed and also listed
// in deterministic (sorted-key) order.
func (prog *Program) hotReachable() []*progFunc {
	prog.build()
	roots := make([]string, 0, len(prog.funcs))
	for key := range prog.funcs {
		roots = append(roots, key)
	}
	sort.Strings(roots)
	seen := make(map[string]bool)
	var queue []string
	for _, key := range roots {
		if fn := prog.funcs[key]; fn.hot && !fn.cold {
			seen[key] = true
			queue = append(queue, key)
		}
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		for _, callee := range prog.calls[key] {
			if seen[callee] {
				continue
			}
			fn, ok := prog.funcs[callee]
			if !ok || fn.cold {
				continue // not a module function, or an annotated boundary
			}
			seen[callee] = true
			queue = append(queue, callee)
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*progFunc, 0, len(keys))
	for _, k := range keys {
		out = append(out, prog.funcs[k])
	}
	return out
}
