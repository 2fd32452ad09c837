package expr

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/grin"
)

func intVal(i int64) graph.Value     { return graph.IntValue(i) }
func floatVal(f float64) graph.Value { return graph.FloatValue(f) }
func strVal(s string) graph.Value    { return graph.StringValue(s) }
func boolVal(b bool) graph.Value     { return graph.BoolValue(b) }
func nullVal() graph.Value           { return graph.NullValue }

// Binding resolves variable references for one row.
type Binding interface {
	// Resolve returns the value bound to alias ("" prop: the element
	// itself; otherwise the element's property).
	Resolve(alias, prop string) (graph.Value, error)
}

// Env is the evaluation environment: the store (for property access),
// bindings, and query parameters.
type Env struct {
	Graph   grin.Graph
	Binding Binding
	Params  map[string]graph.Value
}

// propValueVia reads a property of a bound vertex or edge element by name,
// resolving the property ID through the element's label — the per-row path
// for bound programs, which memoize the property trait per batch.
func propValueVia(pr grin.PropertyReader, elem graph.Value, prop string) (graph.Value, error) {
	switch elem.K {
	case graph.KindVertex:
		v := elem.Vertex()
		label := pr.VertexLabel(v)
		pid := pr.Schema().VertexPropID(label, prop)
		if pid == graph.NoProp {
			return graph.NullValue, nil
		}
		val, _ := pr.VertexProp(v, pid)
		return val, nil
	case graph.KindEdge:
		e := elem.Edge()
		label := pr.EdgeLabel(e)
		pid := pr.Schema().EdgePropID(label, prop)
		if pid == graph.NoProp {
			return graph.NullValue, nil
		}
		val, _ := pr.EdgeProp(e, pid)
		return val, nil
	}
	return graph.NullValue, fmt.Errorf("expr: property access on %v", elem.K)
}

// Eval evaluates the expression under the environment by walking the tree.
// The runtime never calls it — exec binds every expression to a Bound — and
// it stays as the independent reference Bound is tested against.
func (e *Expr) Eval(env *Env) (graph.Value, error) {
	switch e.Kind {
	case KindLiteral:
		return e.Val, nil
	case KindParam:
		v, ok := env.Params[e.Param]
		if !ok {
			return graph.NullValue, fmt.Errorf("expr: unbound parameter $%s", e.Param)
		}
		return v, nil
	case KindVar:
		return env.Binding.Resolve(e.Alias, e.Prop)
	case KindList:
		items := make([]graph.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := a.Eval(env)
			if err != nil {
				return graph.NullValue, err
			}
			items[i] = v
		}
		return graph.ListValue(items), nil
	case KindUnary:
		v, err := e.Left.Eval(env)
		if err != nil {
			return graph.NullValue, err
		}
		switch e.Op {
		case OpNot:
			return boolVal(!v.Bool()), nil
		case OpNeg:
			if v.K == graph.KindInt {
				return intVal(-v.I), nil
			}
			return floatVal(-v.Float()), nil
		}
	case KindCall:
		return e.evalCall(env)
	case KindBinary:
		// Short-circuit booleans.
		if e.Op == OpAnd || e.Op == OpOr {
			l, err := e.Left.Eval(env)
			if err != nil {
				return graph.NullValue, err
			}
			if e.Op == OpAnd && !l.Bool() {
				return boolVal(false), nil
			}
			if e.Op == OpOr && l.Bool() {
				return boolVal(true), nil
			}
			r, err := e.Right.Eval(env)
			if err != nil {
				return graph.NullValue, err
			}
			return boolVal(r.Bool()), nil
		}
		l, err := e.Left.Eval(env)
		if err != nil {
			return graph.NullValue, err
		}
		r, err := e.Right.Eval(env)
		if err != nil {
			return graph.NullValue, err
		}
		return applyBinary(e.Op, l, r)
	}
	return graph.NullValue, fmt.Errorf("expr: cannot evaluate %v", e)
}

func applyBinary(op Op, l, r graph.Value) (graph.Value, error) {
	switch op {
	case OpEq:
		return boolVal(l.Equal(r)), nil
	case OpNe:
		return boolVal(!l.Equal(r)), nil
	case OpLt:
		return boolVal(l.Compare(r) < 0), nil
	case OpLe:
		return boolVal(l.Compare(r) <= 0), nil
	case OpGt:
		return boolVal(l.Compare(r) > 0), nil
	case OpGe:
		return boolVal(l.Compare(r) >= 0), nil
	case OpIn:
		if r.K != graph.KindList {
			return graph.NullValue, fmt.Errorf("expr: IN requires a list, got %v", r.K)
		}
		for _, item := range r.Lst {
			if l.Equal(item) {
				return boolVal(true), nil
			}
		}
		return boolVal(false), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return arith(op, l, r)
	}
	return graph.NullValue, fmt.Errorf("expr: unknown operator")
}

func arith(op Op, l, r graph.Value) (graph.Value, error) {
	if op == OpAdd && l.K == graph.KindString && r.K == graph.KindString {
		return strVal(l.S + r.S), nil
	}
	if l.K == graph.KindInt && r.K == graph.KindInt {
		a, b := l.I, r.I
		switch op {
		case OpAdd:
			return intVal(a + b), nil
		case OpSub:
			return intVal(a - b), nil
		case OpMul:
			return intVal(a * b), nil
		case OpDiv:
			if b == 0 {
				return graph.NullValue, fmt.Errorf("expr: division by zero")
			}
			return intVal(a / b), nil
		case OpMod:
			if b == 0 {
				return graph.NullValue, fmt.Errorf("expr: modulo by zero")
			}
			return intVal(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case OpAdd:
		return floatVal(a + b), nil
	case OpSub:
		return floatVal(a - b), nil
	case OpMul:
		return floatVal(a * b), nil
	case OpDiv:
		if b == 0 {
			return graph.NullValue, fmt.Errorf("expr: division by zero")
		}
		return floatVal(a / b), nil
	case OpMod:
		return floatVal(math.Mod(a, b)), nil
	}
	return graph.NullValue, fmt.Errorf("expr: unknown arith op")
}

func (e *Expr) evalCall(env *Env) (graph.Value, error) {
	// The interpreted path has no bind step, so it consults the call table
	// itself.
	if _, err := checkCall(e.Fn, len(e.Args)); err != nil {
		return graph.NullValue, err
	}
	if e.Fn == "coalesce" {
		for _, a := range e.Args {
			v, err := a.Eval(env)
			if err != nil {
				return graph.NullValue, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return graph.NullValue, nil
	}
	v, err := e.Args[0].Eval(env)
	if err != nil {
		return graph.NullValue, err
	}
	switch e.Fn {
	case "id":
		if idx, ok := grin.AsIndex(env.Graph); ok && v.K == graph.KindVertex {
			return intVal(idx.ExternalID(v.Vertex())), nil
		}
		return intVal(v.I), nil
	case "label":
		pr, ok := grin.AsPropertyReader(env.Graph)
		if !ok {
			return graph.NullValue, fmt.Errorf("expr: label() needs property trait")
		}
		return labelName(pr, v)
	}
	return applyUnary(e.Fn, v)
}

// labelName is label() with the property trait resolved.
func labelName(pr grin.PropertyReader, v graph.Value) (graph.Value, error) {
	switch v.K {
	case graph.KindVertex:
		return strVal(pr.Schema().VertexLabelName(pr.VertexLabel(v.Vertex()))), nil
	case graph.KindEdge:
		return strVal(pr.Schema().EdgeLabelName(pr.EdgeLabel(v.Edge()))), nil
	}
	return graph.NullValue, fmt.Errorf("expr: label() on %v", v.K)
}

// applyUnary applies the one-argument functions that need no store.
func applyUnary(fn string, v graph.Value) (graph.Value, error) {
	switch fn {
	case "abs":
		if v.K == graph.KindInt {
			if v.I < 0 {
				return intVal(-v.I), nil
			}
			return v, nil
		}
		return floatVal(math.Abs(v.Float())), nil
	case "size":
		if v.K == graph.KindList {
			return intVal(int64(len(v.Lst))), nil
		}
		return intVal(int64(len(v.S))), nil
	}
	return graph.NullValue, fmt.Errorf("expr: function %q is in the call table but has no evaluator", fn)
}
