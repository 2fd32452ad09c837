package expr

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage/column"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzFloats are the float payloads Compare orders specially, beside
// ordinary ones.
var fuzzFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2, 3, math.MaxFloat64, math.SmallestNonzeroFloat64}

var fuzzStrings = []string{"", "a", "b", "ab", "ba", "A", "é", "a\x00"}

// value draws a non-NULL value of kind.
func (b *fuzzBytes) value(kind graph.Kind) graph.Value {
	c := b.next()
	switch kind {
	case graph.KindInt:
		switch c {
		case 255:
			return graph.IntValue(math.MaxInt64)
		case 254:
			return graph.IntValue(math.MinInt64)
		}
		return graph.IntValue(int64(int8(c)) % 8)
	case graph.KindFloat:
		return graph.FloatValue(fuzzFloats[int(c)%len(fuzzFloats)])
	case graph.KindString:
		return graph.StringValue(fuzzStrings[int(c)%len(fuzzStrings)])
	}
	return graph.BoolValue(c%2 == 1)
}

// arg draws a comparison argument: mostly a value of the column's kind,
// sometimes NULL or another kind, which the kernel must decline.
func (b *fuzzBytes) arg(kind graph.Kind) graph.Value {
	switch c := b.next(); c % 8 {
	case 6:
		return graph.NullValue
	case 7:
		return b.value(fuzzKinds[int(c/8)%len(fuzzKinds)])
	}
	return b.value(kind)
}

var (
	fuzzKinds = []graph.Kind{graph.KindInt, graph.KindFloat, graph.KindString, graph.KindBool}
	fuzzOps   = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIn}
)

// FuzzSelKernel holds every selection kernel CompileSelKernel builds to the
// boxed evaluator it replaces: over a random typed column (int, float with
// NaN, ±0 and ±Inf, string or bool, with NULL rows), a random operator and
// argument (an IN list may hold NULL or another kind), and all rows or a
// random candidate selection, the kernel keeps exactly the rows for which
// `x OP arg` is true under Bound.EvalBool, in order.
func FuzzSelKernel(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 8, 1, 2, 0, 3, 4, 5, 0, 0},
		{1, 2, 12, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 1, 0, 1, 0},
		{2, 6, 6, 1, 2, 0, 3, 4, 5, 1, 4, 1, 6, 2, 3},
		{3, 1, 5, 1, 0, 0, 1, 1, 1, 1, 0},
		{0, 6, 10, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 1, 6, 2, 3, 0, 1, 0, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		kind := fuzzKinds[int(in.next())%len(fuzzKinds)]
		op := fuzzOps[int(in.next())%len(fuzzOps)]
		n := int(in.next() % 64)
		col := column.New(kind)
		for r := 0; r < n; r++ {
			if in.next()%4 == 0 {
				col.AppendNull()
			} else if err := col.Append(in.value(kind)); err != nil {
				t.Fatal(err)
			}
		}
		arg := in.arg(kind)
		if op == OpIn {
			items := make([]graph.Value, in.next()%5)
			for i := range items {
				items[i] = in.arg(kind)
			}
			arg = graph.ListValue(items)
		}
		kernel, ok := CompileSelKernel(kind, op, arg)
		if !ok {
			return
		}
		var rows []int32 // nil: every row
		if in.next()%2 == 1 {
			rows = make([]int32, 0, n)
			for r := 0; r < n; r++ {
				if in.next()%2 == 0 {
					rows = append(rows, int32(r))
				}
			}
		}
		got := kernel(col, rows, nil)

		p := &Bound{kind: KindBinary, op: op, left: &Bound{kind: KindVar}, right: &Bound{kind: KindLiteral, val: arg}}
		cand := rows
		if cand == nil {
			for r := 0; r < n; r++ {
				cand = append(cand, int32(r))
			}
		}
		var want []int32
		for _, r := range cand {
			v, _ := col.Get(int(r))
			pass, err := p.EvalBool(&BoundEnv{}, []graph.Value{v})
			if err != nil {
				t.Fatalf("boxed %v %v %v: %v", v, op, arg, err)
			}
			if pass {
				want = append(want, r)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v column, x %v %v, candidates %v: kernel kept %v, boxed evaluator %v", kind, op, arg, rows, got, want)
		}
	})
}
