// Package flow is the flow layer under lockflow: a call graph over the
// whole loaded package set plus a lightweight per-function dataflow view
// (single-assignment def/use chains, canonical selector paths, defer
// context at call sites). It is computed from the already-typechecked ASTs
// that internal/lint/analysis produces — no extra loading, no extra
// dependencies — and lets lockflow reason across function boundaries,
// mapping a callee's lock effects through the caller's receiver expression.
//
// The graph is deliberately conservative where Go is dynamic: calls through
// interface methods or function values have no Callee (analyzers decide
// whether "unknown" means clean or dangerous for their invariant), and a
// function value is resolved only when it is a local with exactly one
// definition that is a function literal.
package flow

import (
	"go/ast"
	"go/types"
	"sync"

	"repro/internal/lint/analysis"
)

// Graph is the call graph of one analysis run's package set.
type Graph struct {
	// Funcs holds every function declaration with a body, in package load
	// order then source order — deterministic for summary fixpoints.
	Funcs []*Func

	byObj map[*types.Func]*Func
	pkgs  []*analysis.Package
}

// Func is one declared function or method and its outgoing calls.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.Package
	// Calls lists the function's call sites in source order, including
	// those inside nested function literals.
	Calls []*Call

	defs map[*types.Var]ast.Expr // single-assignment locals (nil value: multiply assigned)
}

// Call is one call site inside a Func.
type Call struct {
	Site *ast.CallExpr
	// Callee is the called function when it is declared (with a body) in
	// the loaded package set; nil otherwise.
	Callee *Func
	// CalleeObj is the static callee object when the call target is a
	// declared function or method, even one whose body is outside the
	// loaded set (stdlib, export-data-only dependency).
	CalleeObj *types.Func
	// Lit is the called function literal when the callee is a local
	// variable with a single definition that is a FuncLit (w := func(){...};
	// w()), or an immediately-invoked literal.
	Lit *ast.FuncLit
	// Dynamic marks a call through a function value (parameter, field,
	// interface method value) that could not be resolved to a body.
	Dynamic bool
	// InDefer marks calls syntactically inside a defer statement (the
	// deferred call itself, or calls in a deferred literal's body).
	InDefer bool
}

var cache struct {
	sync.Mutex
	pkgs []*analysis.Package
	g    *Graph
}

// Of returns the call graph for the package set, building it on first use
// and reusing it while the same set keeps flowing through analyzer passes
// (analysis.RunKnown hands every pass the same slice).
func Of(pkgs []*analysis.Package) *Graph {
	cache.Lock()
	defer cache.Unlock()
	if sameSet(cache.pkgs, pkgs) {
		return cache.g
	}
	g := build(pkgs)
	cache.pkgs, cache.g = pkgs, g
	return g
}

func sameSet(a, b []*analysis.Package) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) > 0
}

func build(pkgs []*analysis.Package) *Graph {
	g := &Graph{byObj: map[*types.Func]*Func{}, pkgs: pkgs}
	// Pass 1: nodes.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Pkg: pkg}
				g.Funcs = append(g.Funcs, fn)
				g.byObj[obj] = fn
			}
		}
	}
	// Pass 2: defs, then call edges (call resolution through local function
	// values needs the def map).
	for _, fn := range g.Funcs {
		fn.defs = collectDefs(fn.Pkg, fn.Decl.Body)
	}
	for _, fn := range g.Funcs {
		g.collectCalls(fn)
	}
	return g
}

// collectDefs records each local variable's unique defining expression;
// variables assigned more than once map to nil and stay unresolvable.
func collectDefs(pkg *analysis.Package, body ast.Node) map[*types.Var]ast.Expr {
	defs := map[*types.Var]ast.Expr{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		obj, _ := pkg.Info.Defs[id].(*types.Var)
		if obj == nil {
			// Plain assignment to an existing variable: redefinition.
			if uobj, ok := pkg.Info.Uses[id].(*types.Var); ok {
				defs[uobj] = nil
			}
			return
		}
		if _, seen := defs[obj]; seen {
			defs[obj] = nil
			return
		}
		defs[obj] = rhs
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, n.Rhs[i])
					}
				}
			} else {
				// Multi-value: v, ok := f(). No single defining expression.
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, nil)
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, id := range n.Names {
					record(id, n.Values[i])
				}
			} else {
				for _, id := range n.Names {
					record(id, nil)
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					record(id, nil)
				}
			}
		}
		return true
	})
	return defs
}

// SingleDef returns the unique defining expression of a local variable, or
// nil when the variable is reassigned (or unknown).
func (f *Func) SingleDef(v *types.Var) ast.Expr {
	return f.defs[v]
}

// collectCalls walks the function body recording call sites with their
// defer context. Function literal bodies belong to the enclosing declared
// function's call list (there is no separate node for a literal).
func (g *Graph) collectCalls(fn *Func) {
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				// Arguments evaluate now; the call runs at return.
				for _, a := range n.Call.Args {
					walk(a, inDefer)
				}
				c := g.resolve(fn, n.Call)
				c.InDefer = true
				fn.Calls = append(fn.Calls, c)
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, true)
				}
				return false
			case *ast.CallExpr:
				c := g.resolve(fn, n)
				c.InDefer = inDefer
				fn.Calls = append(fn.Calls, c)
			}
			return true
		})
	}
	walk(fn.Decl.Body, false)
}

// resolve classifies one call site.
func (g *Graph) resolve(fn *Func, call *ast.CallExpr) *Call {
	c := &Call{Site: call}
	info := fn.Pkg.Info
	// Type conversions parse as calls; so do builtins. Neither is an edge.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return c
	}
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			c.CalleeObj = obj
			c.Callee = g.byObj[obj]
		case *types.Var:
			if lit, ok := fn.SingleDef(obj).(*ast.FuncLit); ok {
				c.Lit = lit
			} else {
				c.Dynamic = true
			}
		case *types.Builtin, *types.Nil, *types.TypeName:
			// not an edge
		default:
			c.Dynamic = true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				if obj, ok := sel.Obj().(*types.Func); ok {
					c.CalleeObj = obj
					c.Callee = g.byObj[obj]
				}
			case types.FieldVal:
				c.Dynamic = true // func-typed field
			}
		} else if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			// Package-qualified call: pkg.Fn(...).
			c.CalleeObj = obj
			c.Callee = g.byObj[obj]
		} else if _, ok := info.Uses[f.Sel].(*types.Var); ok {
			c.Dynamic = true
		}
	case *ast.FuncLit:
		c.Lit = f
	default:
		c.Dynamic = true
	}
	return c
}

// Canon renders an expression as a canonical selector path ("s.mu",
// "sn.s.mu"), resolving local aliases through their single definition
// (mu := &s.mu canonicalizes to "s.mu") and unwrapping parens, derefs and
// address-of. It returns "" for expressions with no stable path (indexing,
// call results, reassigned locals), which analyzers treat as untrackable.
func (f *Func) Canon(e ast.Expr) string {
	return f.canon(e, 0)
}

func (f *Func) canon(e ast.Expr, depth int) string {
	if depth > 8 {
		return ""
	}
	switch e := e.(type) {
	case *ast.Ident:
		switch obj := f.Pkg.Info.Uses[e].(type) {
		case *types.Var:
			if def := f.defs[obj]; def != nil {
				if c := f.canon(def, depth+1); c != "" {
					return c
				}
				// A single definition that is itself uncanonicalizable
				// (call result): the local's own name is still stable.
			}
			if obj.IsField() {
				return ""
			}
			return e.Name
		}
		return ""
	case *ast.SelectorExpr:
		base := f.canon(e.X, depth+1)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return f.canon(e.X, depth+1)
	case *ast.StarExpr:
		return f.canon(e.X, depth+1)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return f.canon(e.X, depth+1)
		}
	}
	return ""
}

// ParamNames returns the function's receiver (if any) followed by its
// parameter names, aligned with ParamCanon's root mapping: index 0 is the
// receiver for methods.
func (f *Func) ParamNames() []string {
	var names []string
	if f.Decl.Recv != nil {
		for _, field := range f.Decl.Recv.List {
			for _, id := range field.Names {
				names = append(names, id.Name)
			}
		}
	}
	if f.Decl.Type.Params != nil {
		for _, field := range f.Decl.Type.Params.List {
			for _, id := range field.Names {
				names = append(names, id.Name)
			}
		}
	}
	return names
}
