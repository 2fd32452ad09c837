package flow_test

import (
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/flow"
)

const src = `package flowfix

import "sync"

type store struct {
	mu sync.RWMutex
	n  int
}

func helper() int { return 1 }

func (s *store) get() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

func caller(s *store, cb func() int) int {
	total := 0
	for i := 0; i < 3; i++ {
		total += helper()
		for j := 0; j < 2; j++ {
			total += s.get()
		}
	}
	total += cb()
	walk := func() int { return helper() }
	total += walk()
	mu := &s.mu
	mu.Lock()
	mu.Unlock()
	return total
}
`

func load(t *testing.T) (*analysis.Package, *flow.Graph) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(analysis.Fset(), "flowfix.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.CheckFiles(wd, "repro/internal/flowfix", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	return pkg, flow.Of([]*analysis.Package{pkg})
}

func fnNamed(t *testing.T, g *flow.Graph, name string) *flow.Func {
	t.Helper()
	for _, fn := range g.Funcs {
		if fn.Obj.Name() == name {
			return fn
		}
	}
	t.Fatalf("no function %q in graph", name)
	return nil
}

func TestCallGraphEdges(t *testing.T) {
	_, g := load(t)
	caller := fnNamed(t, g, "caller")
	get := fnNamed(t, g, "get")
	helper := fnNamed(t, g, "helper")

	var helperCalls, getCalls int
	var sawDynamic, sawLit bool
	for _, c := range caller.Calls {
		switch {
		case c.Callee == helper:
			helperCalls++
		case c.Callee == get:
			getCalls++
		case c.Dynamic:
			sawDynamic = true
		case c.Lit != nil:
			sawLit = true
		}
	}
	// One helper() call sits in the loop, the other in walk's literal body,
	// which belongs to caller's call list.
	if helperCalls != 2 {
		t.Errorf("helper() resolved at %d sites, want 2", helperCalls)
	}
	if getCalls != 1 {
		t.Errorf("s.get() resolved at %d sites, want 1", getCalls)
	}
	if !sawDynamic {
		t.Error("cb() not classified Dynamic")
	}
	if !sawLit {
		t.Error("walk() not resolved to its defining function literal")
	}
}

func TestDeferMarksCalls(t *testing.T) {
	_, g := load(t)
	get := fnNamed(t, g, "get")
	var deferred, direct int
	for _, c := range get.Calls {
		if c.InDefer {
			deferred++
		} else {
			direct++
		}
	}
	if deferred != 1 || direct != 1 {
		t.Errorf("get: %d deferred + %d direct calls, want 1 + 1", deferred, direct)
	}
}

func TestCanonResolvesAliases(t *testing.T) {
	pkg, g := load(t)
	caller := fnNamed(t, g, "caller")
	// The mu.Lock() call site: Canon of its receiver should see through the
	// mu := &s.mu alias.
	for _, c := range caller.Calls {
		sel, ok := c.Site.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Lock" {
			continue
		}
		if got := caller.Canon(sel.X); got != "s.mu" {
			t.Errorf("Canon(mu) = %q, want %q", got, "s.mu")
		}
		return
	}
	_ = pkg
	t.Fatal("mu.Lock() call site not found")
}

func TestSingleDefAndReassignment(t *testing.T) {
	pkg, g := load(t)
	caller := fnNamed(t, g, "caller")
	var total, mu *types.Var
	for id, obj := range pkg.Info.Defs {
		v, ok := obj.(*types.Var)
		if !ok {
			continue
		}
		switch id.Name {
		case "total":
			total = v
		case "mu":
			// Defs also holds the store.mu field; we want the local alias.
			if !v.IsField() {
				mu = v
			}
		}
	}
	if total == nil || mu == nil {
		t.Fatal("fixture locals not found")
	}
	if def := caller.SingleDef(total); def != nil {
		t.Errorf("SingleDef(total) = %v, want nil (reassigned via +=)", def)
	}
	if def := caller.SingleDef(mu); def == nil {
		t.Error("SingleDef(mu) = nil, want the &s.mu expression")
	}
}

func TestParamNamesReceiverFirst(t *testing.T) {
	_, g := load(t)
	get := fnNamed(t, g, "get")
	names := get.ParamNames()
	if len(names) != 1 || names[0] != "s" {
		t.Errorf("get.ParamNames() = %v, want [s]", names)
	}
	caller := fnNamed(t, g, "caller")
	names = caller.ParamNames()
	if len(names) != 2 || names[0] != "s" || names[1] != "cb" {
		t.Errorf("caller.ParamNames() = %v, want [s cb]", names)
	}
}
