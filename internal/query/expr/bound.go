package expr

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/grin"
)

// BoundRef is the bind-time resolution of one alias(.prop) reference: the
// fixed row column holding the referenced element, plus the property still to
// be fetched from it at eval time ("" when the column already holds the final
// value — the alias itself, or an output column named "alias.prop").
type BoundRef struct {
	Col  int
	Prop string
}

// Binder resolves alias references against a row layout at compile time. It
// decides once, per reference, between the alias-column and the
// output-column-name fallback that rowBinding used to re-decide per row.
type Binder interface {
	BindRef(alias, prop string) (BoundRef, error)
	// Need is told each GRIN trait a called function relies on as the call
	// is bound: required for a correct answer (label()), or exploited when
	// the store has it (id() falls back to the internal ID).
	Need(t grin.Trait, required bool)
}

// function is one row of the call table — the only list of callable names.
// Bind checks a KindCall against it once, so a bound program never re-checks
// per row; the interpreted evaluator, which has no bind step, consults it per
// call.
type function struct {
	arity     int        // -1: any number of arguments
	usesStore bool       // the call reads the store through trait
	trait     grin.Trait // reported to Binder.Need when usesStore
	required  bool       // without trait the call fails (else it degrades)
}

var functions = map[string]function{
	"id":       {arity: 1, trait: grin.TraitIndex, usesStore: true},
	"label":    {arity: 1, trait: grin.TraitProperty, required: true, usesStore: true},
	"abs":      {arity: 1},
	"size":     {arity: 1},
	"coalesce": {arity: -1},
}

// checkCall looks fn up in the call table and checks the argument count.
func checkCall(fn string, nargs int) (function, error) {
	f, ok := functions[fn]
	if !ok {
		return f, fmt.Errorf("expr: unknown function %q", fn)
	}
	if f.arity >= 0 && nargs != f.arity {
		return f, fmt.Errorf("expr: %s() takes %d argument(s), got %d", fn, f.arity, nargs)
	}
	return f, nil
}

// BoundEnv is the per-execution state a bound program needs: the store (for
// property access) and the query parameters. Rows are passed per evaluation.
// The optional-trait handles a program touches (property reads, external-ID
// lookups) are memoized on first use, so evaluating a predicate over a whole
// batch performs each trait discovery once rather than once per row.
type BoundEnv struct {
	Graph  grin.Graph
	Params map[string]graph.Value

	pr            grin.PropertyReader
	idx           grin.Index
	prSet, idxSet bool
	prOK, idxOK   bool
}

// propertyReader resolves and memoizes the store's property trait.
func (env *BoundEnv) propertyReader() (grin.PropertyReader, bool) {
	if !env.prSet {
		env.pr, env.prOK = grin.AsPropertyReader(env.Graph)
		env.prSet = true
	}
	return env.pr, env.prOK
}

// index resolves and memoizes the store's external-ID index trait.
func (env *BoundEnv) index() (grin.Index, bool) {
	if !env.idxSet {
		env.idx, env.idxOK = grin.AsIndex(env.Graph)
		env.idxSet = true
	}
	return env.idx, env.idxOK
}

// Bound is a compiled expression program: the same tree shape as Expr, but
// with every variable reference resolved to a row column index. Per-row
// evaluation is array indexing — no map lookups, no key-string allocation.
type Bound struct {
	kind  Kind
	val   graph.Value // kindLiteral
	ref   BoundRef    // kindVar
	param string      // kindParam
	op    Op          // kindBinary/kindUnary
	left  *Bound
	right *Bound
	fn    string   // kindCall
	args  []*Bound // kindCall / kindList
}

// Bind compiles the expression against a row layout. A nil expression binds
// to a nil program, which EvalBool treats as `true`. An unbound alias, an
// unknown function and a wrong argument count are errors here, so a program
// that binds never fails for its shape at eval time.
func Bind(e *Expr, b Binder) (*Bound, error) {
	if e == nil {
		return nil, nil
	}
	out := &Bound{kind: e.Kind, val: e.Val, param: e.Param, op: e.Op, fn: e.Fn}
	switch e.Kind {
	case KindVar:
		ref, err := b.BindRef(e.Alias, e.Prop)
		if err != nil {
			return nil, err
		}
		out.ref = ref
	case KindCall:
		f, err := checkCall(e.Fn, len(e.Args))
		if err != nil {
			return nil, err
		}
		if f.usesStore {
			b.Need(f.trait, f.required)
		}
	}
	var err error
	if out.left, err = Bind(e.Left, b); err != nil {
		return nil, err
	}
	if out.right, err = Bind(e.Right, b); err != nil {
		return nil, err
	}
	if len(e.Args) > 0 {
		out.args = make([]*Bound, len(e.Args))
		for i, a := range e.Args {
			if out.args[i], err = Bind(a, b); err != nil {
				return nil, err
			}
		}
	}
	// Constant fold all-literal lists at bind time: `x IN [1,2,3]` then
	// evaluates against one shared list value instead of rebuilding (and
	// reallocating) the list for every row.
	if out.kind == KindList {
		items := make([]graph.Value, len(out.args))
		constant := true
		for i, a := range out.args {
			if a.kind != KindLiteral {
				constant = false
				break
			}
			items[i] = a.val
		}
		if constant {
			return &Bound{kind: KindLiteral, val: graph.ListValue(items)}, nil
		}
	}
	return out, nil
}

// PropRef reports whether the program is exactly one bound alias.prop (or
// bare alias / output-column) reference — the shape the runtime can gather
// columnar through the storage batch-property trait instead of walking the
// expression tree per row. prop is "" when the referenced column already
// holds the final value.
func (p *Bound) PropRef() (col int, prop string, ok bool) {
	if p == nil || p.kind != KindVar {
		return 0, "", false
	}
	return p.ref.Col, p.ref.Prop, true
}

// IDRef reports whether the program is exactly id(x) over one bound column
// that already holds the element (no property still to fetch) — the shape
// the runtime can resolve column-at-a-time through the index trait, with the
// trait looked up once per batch instead of once per row.
func (p *Bound) IDRef() (col int, ok bool) {
	if p == nil || p.kind != KindCall || p.fn != "id" {
		return 0, false
	}
	a := p.args[0]
	if a.kind != KindVar || a.ref.Prop != "" {
		return 0, false
	}
	return a.ref.Col, true
}

// RefCols appends to dst the distinct row columns the program reads — the
// only entries of the row a caller must fill before Eval. Callers collect
// them once at compile time so a wide batch boxes just those columns per
// evaluated row.
func (p *Bound) RefCols(dst []int) []int {
	if p == nil {
		return dst
	}
	if p.kind == KindVar {
		for _, c := range dst {
			if c == p.ref.Col {
				return dst
			}
		}
		return append(dst, p.ref.Col)
	}
	dst = p.left.RefCols(dst)
	dst = p.right.RefCols(dst)
	for _, a := range p.args {
		dst = a.RefCols(dst)
	}
	return dst
}

// Eval evaluates the program over one row.
func (p *Bound) Eval(env *BoundEnv, row []graph.Value) (graph.Value, error) {
	switch p.kind {
	case KindLiteral:
		return p.val, nil
	case KindParam:
		v, ok := env.Params[p.param]
		if !ok {
			return graph.NullValue, fmt.Errorf("expr: unbound parameter $%s", p.param)
		}
		return v, nil
	case KindVar:
		v := row[p.ref.Col]
		if p.ref.Prop == "" {
			return v, nil
		}
		pr, ok := env.propertyReader()
		if !ok {
			return graph.NullValue, fmt.Errorf("expr: store lacks property trait")
		}
		return propValueVia(pr, v, p.ref.Prop)
	case KindList:
		items := make([]graph.Value, len(p.args))
		for i, a := range p.args {
			v, err := a.Eval(env, row)
			if err != nil {
				return graph.NullValue, err
			}
			items[i] = v
		}
		return graph.ListValue(items), nil
	case KindUnary:
		v, err := p.left.Eval(env, row)
		if err != nil {
			return graph.NullValue, err
		}
		switch p.op {
		case OpNot:
			return boolVal(!v.Bool()), nil
		case OpNeg:
			if v.K == graph.KindInt {
				return intVal(-v.I), nil
			}
			return floatVal(-v.Float()), nil
		}
	case KindCall:
		return p.evalCall(env, row)
	case KindBinary:
		// Short-circuit booleans.
		if p.op == OpAnd || p.op == OpOr {
			l, err := p.left.Eval(env, row)
			if err != nil {
				return graph.NullValue, err
			}
			if p.op == OpAnd && !l.Bool() {
				return boolVal(false), nil
			}
			if p.op == OpOr && l.Bool() {
				return boolVal(true), nil
			}
			r, err := p.right.Eval(env, row)
			if err != nil {
				return graph.NullValue, err
			}
			return boolVal(r.Bool()), nil
		}
		l, err := p.left.Eval(env, row)
		if err != nil {
			return graph.NullValue, err
		}
		r, err := p.right.Eval(env, row)
		if err != nil {
			return graph.NullValue, err
		}
		return applyBinary(p.op, l, r)
	}
	return graph.NullValue, fmt.Errorf("expr: cannot evaluate bound node kind %d", p.kind)
}

// EvalBool evaluates the program as a predicate; a nil program is `true`.
func (p *Bound) EvalBool(env *BoundEnv, row []graph.Value) (bool, error) {
	if p == nil {
		return true, nil
	}
	v, err := p.Eval(env, row)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

// evalCall applies a function Bind already checked against the call table:
// the name is known and the arguments are all there.
func (p *Bound) evalCall(env *BoundEnv, row []graph.Value) (graph.Value, error) {
	if p.fn == "coalesce" {
		for _, a := range p.args {
			v, err := a.Eval(env, row)
			if err != nil {
				return graph.NullValue, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return graph.NullValue, nil
	}
	v, err := p.args[0].Eval(env, row)
	if err != nil {
		return graph.NullValue, err
	}
	switch p.fn {
	case "id":
		if idx, ok := env.index(); ok && v.K == graph.KindVertex {
			return intVal(idx.ExternalID(v.Vertex())), nil
		}
		return intVal(v.I), nil
	case "label":
		pr, ok := env.propertyReader()
		if !ok {
			return graph.NullValue, fmt.Errorf("expr: label() needs property trait")
		}
		return labelName(pr, v)
	}
	return applyUnary(p.fn, v)
}
