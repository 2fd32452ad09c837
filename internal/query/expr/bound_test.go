package expr

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
)

// sliceBinder binds aliases to fixed columns, mimicking exec's layout:
// bare aliases first, then "alias.prop" fallback names.
type sliceBinder map[string]int

func (sb sliceBinder) BindRef(alias, prop string) (BoundRef, error) {
	if col, ok := sb[alias]; ok {
		return BoundRef{Col: col, Prop: prop}, nil
	}
	if prop != "" {
		if col, ok := sb[alias+"."+prop]; ok {
			return BoundRef{Col: col}, nil
		}
	}
	return BoundRef{}, fmt.Errorf("unbound %q", alias)
}

func (sliceBinder) Need(grin.Trait, bool) {}

func TestBoundMatchesInterpretedEval(t *testing.T) {
	row := []graph.Value{graph.IntValue(10), graph.FloatValue(2.5), graph.StringValue("abc")}
	binder := sliceBinder{"a": 0, "b": 1, "s": 2}
	// The same row exposed through the interpreted Binding interface.
	interp := mapBinding{"a": row[0], "b": row[1], "s": row[2]}
	params := map[string]graph.Value{"p": graph.IntValue(4)}

	exprs := []string{
		"a + b * 2",
		"a > 5 AND b < 3.0",
		"a > 5 OR 1 / 0 > 0", // short-circuit must skip the division
		"NOT (a = 10)",
		"-a + abs(0 - b)",
		"a IN [1, 10, 100]",
		"s + 'd'",
		"size(s) + $p",
		"coalesce(s, 'fallback')",
		"a % 3",
	}
	for _, src := range exprs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", src, err)
		}
		want, err := e.Eval(&Env{Binding: interp, Params: params})
		if err != nil {
			t.Fatalf("%s: interpreted eval: %v", src, err)
		}
		prog, err := Bind(e, binder)
		if err != nil {
			t.Fatalf("%s: bind: %v", src, err)
		}
		got, err := prog.Eval(&BoundEnv{Params: params}, row)
		if err != nil {
			t.Fatalf("%s: bound eval: %v", src, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: bound %v != interpreted %v", src, got, want)
		}
	}
}

func TestBindOutputColumnFallback(t *testing.T) {
	// After a projection the row holds a column literally named "f.name";
	// binding f.name must fall back to it with no residual property fetch.
	binder := sliceBinder{"f.name": 0}
	prog, err := Bind(MustParse("f.name = 'x'"), binder)
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(&BoundEnv{}, []graph.Value{graph.StringValue("x")})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bool() {
		t.Fatal("fallback column not used")
	}
}

func TestBindUnboundAliasFailsAtCompileTime(t *testing.T) {
	if _, err := Bind(MustParse("nope.x = 1"), sliceBinder{}); err == nil {
		t.Fatal("unbound alias accepted at bind time")
	}
}

func TestBoundErrors(t *testing.T) {
	binder := sliceBinder{"a": 0}
	row := []graph.Value{graph.IntValue(1)}
	for _, src := range []string{"a / 0", "a % 0", "$missing + 1", "a IN a"} {
		prog, err := Bind(MustParse(src), binder)
		if err != nil {
			t.Fatalf("%s: bind: %v", src, err)
		}
		if _, err := prog.Eval(&BoundEnv{}, row); err == nil {
			t.Fatalf("%s: error swallowed", src)
		}
	}
	// Nil program is a pass-all predicate.
	var nilProg *Bound
	ok, err := nilProg.EvalBool(&BoundEnv{}, row)
	if err != nil || !ok {
		t.Fatalf("nil program: %v %v", ok, err)
	}
}

// TestConstantListFoldsAtBind pins the bind-time constant fold: an
// all-literal list is built once, so evaluating `a IN [...]` allocates
// nothing per row. Before the fold, Eval rebuilt the list value every call.
func TestConstantListFoldsAtBind(t *testing.T) {
	p, err := Bind(MustParse("a IN [1, 10, 100]"), sliceBinder{"a": 0})
	if err != nil {
		t.Fatal(err)
	}
	env := &BoundEnv{}
	row := []graph.Value{graph.IntValue(10)}
	ok, err := p.EvalBool(env, row)
	if err != nil || !ok {
		t.Fatalf("10 IN [1,10,100] = %v, %v", ok, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.EvalBool(env, row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("constant-list membership allocates %v per row, want 0", allocs)
	}
	// A list with a non-literal element must still evaluate per row.
	p, err = Bind(MustParse("a IN [1, a, 100]"), sliceBinder{"a": 0})
	if err != nil {
		t.Fatal(err)
	}
	ok, err = p.EvalBool(env, row)
	if err != nil || !ok {
		t.Fatalf("10 IN [1,a,100] with a=10 = %v, %v", ok, err)
	}
}

// TestRefCols pins the referenced-column set a bound program reports:
// distinct columns in first-use order, through every node kind.
func TestRefCols(t *testing.T) {
	binder := sliceBinder{"a": 0, "b": 1, "s": 2, "u": 3, "v": 4}
	cases := map[string][]int{
		"1 + 2":                              nil,
		"a > 5":                              {0},
		"s.name = 'x' AND a < b":             {2, 0, 1},
		"NOT (v = 10) OR v > $p":             {4},
		"coalesce(u.k, s, a) IN [b, 1]":      {3, 2, 0, 1},
		"size(s) + abs(0 - b) > a AND a > b": {2, 1, 0},
	}
	for src, want := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		prog, err := Bind(e, binder)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got := prog.RefCols(nil)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: RefCols %v, want %v", src, got, want)
		}
	}
	var nilProg *Bound
	if got := nilProg.RefCols([]int{7}); len(got) != 1 || got[0] != 7 {
		t.Errorf("nil program changed dst: %v", got)
	}
}

// needRecorder is a sliceBinder that keeps what Bind reports through Need.
type needRecorder struct {
	sliceBinder
	required, optional []grin.Trait
}

func (r *needRecorder) Need(t grin.Trait, required bool) {
	if required {
		r.required = append(r.required, t)
	} else {
		r.optional = append(r.optional, t)
	}
}

// TestBindChecksTheCallTable pins the one place a call's name and arity are
// checked, and what it tells the binder about the store.
func TestBindChecksTheCallTable(t *testing.T) {
	binder := sliceBinder{"a": 0}
	for src, want := range map[string]string{
		"bogus(a)":        `unknown function "bogus"`,
		"id(a, a)":        "id() takes 1 argument(s), got 2",
		"label()":         "label() takes 1 argument(s), got 0",
		"abs(a) + size()": "size() takes 1 argument(s), got 0",
	} {
		if _, err := Bind(MustParse(src), binder); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v does not mention %q", src, err, want)
		}
	}
	if _, err := Bind(MustParse("coalesce()"), binder); err != nil {
		t.Errorf("coalesce takes any number of arguments: %v", err)
	}
	rec := &needRecorder{sliceBinder: binder}
	if _, err := Bind(MustParse("id(a) = 1 AND label(a) = 'x' AND abs(a) > 0"), rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.required) != 1 || rec.required[0] != grin.TraitProperty {
		t.Errorf("label() must require the property trait, got %v", rec.required)
	}
	if len(rec.optional) != 1 || rec.optional[0] != grin.TraitIndex {
		t.Errorf("id() must exploit the index trait, got %v", rec.optional)
	}
}
