// Micro-benchmarks for the columnar runtime's two core mechanisms, so the
// typed-vs-boxed win is visible in the benchmark trajectory on its own, not
// only through end-to-end query latencies: selection-vector FILTER vs the
// materializing filter it replaced, and typed comparison kernels vs the
// boxed row-at-a-time evaluator.
package bench

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
	"repro/internal/storage/column"
)

func init() {
	register("micro-vector", MicroVector)
}

// colBinder binds every bare alias to column 0 — the single-column row
// layout of the micro-benchmark.
type colBinder struct{}

func (colBinder) BindRef(alias, prop string) (expr.BoundRef, error) {
	return expr.BoundRef{Col: 0}, nil
}

func (colBinder) Need(grin.Trait, bool) {}

// microSink defeats dead-code elimination across timing loops.
var microSink int

// MicroVector times FILTER and predicate evaluation over one int column in
// all four shapes: boxed materializing filter (the pre-columnar runtime:
// box every value, copy every survivor), selection-vector filter (install a
// selection, copy nothing), boxed per-row predicate evaluation, and the
// monomorphic typed kernel over the raw int payload.
func MicroVector() (*Table, error) {
	n := scaled(1<<20, 1<<16)
	reps := scaled(20, 5)

	col := column.New(graph.KindInt)
	for i := 0; i < n; i++ {
		col.AppendInt(int64(i % 100))
	}
	arg := graph.IntValue(50) // ~half the rows survive

	// Boxed materializing filter: every value round-trips through a
	// graph.Value box and every survivor is appended to a fresh column.
	matDur := timeIt(reps, func() {
		out := column.New(graph.KindInt)
		for i := 0; i < col.Len(); i++ {
			v, ok := col.Get(i)
			if ok && v.Int() > arg.I {
				_ = out.Append(v)
			}
		}
		microSink = out.Len()
	})

	// Selection-vector filter: the typed kernel writes surviving row indexes
	// into a reused selection buffer; no value is boxed or copied.
	kern, ok := expr.CompileSelKernel(graph.KindInt, expr.OpGt, arg)
	if !ok {
		return nil, fmt.Errorf("micro-vector: int > kernel did not compile")
	}
	sel := make([]int32, 0, n)
	selDur := timeIt(reps, func() {
		sel = kern(col, nil, sel[:0])
		microSink = len(sel)
	})

	// Boxed predicate evaluation: the row-at-a-time Bound program over a
	// one-column boxed row — the path every FILTER took before typed
	// kernels, and the fallback for unknown kinds.
	e, err := expr.Parse("x > 50")
	if err != nil {
		return nil, err
	}
	prog, err := expr.Bind(e, colBinder{})
	if err != nil {
		return nil, err
	}
	benv := expr.BoundEnv{}
	row := make([]graph.Value, 1)
	boxedDur := timeIt(reps, func() {
		cnt := 0
		for i := 0; i < col.Len(); i++ {
			v, _ := col.Get(i)
			row[0] = v
			ok, err := prog.EvalBool(&benv, row)
			if err != nil {
				return
			}
			if ok {
				cnt++
			}
		}
		microSink = cnt
	})

	// Typed kernel evaluation: the same predicate as one monomorphic loop
	// over the raw []int64 payload (counting via the selection output).
	kernDur := timeIt(reps, func() {
		sel = kern(col, nil, sel[:0])
		microSink = len(sel)
	})

	tab := &Table{
		ID:     "micro-vector",
		Title:  "Columnar runtime micro-benchmarks: selection vectors and typed kernels",
		Header: []string{"path", "time/pass", "speedup"},
		Rows: [][]string{
			{"FILTER boxed materializing", ms(matDur), "1.0x"},
			{"FILTER selection-vector kernel", ms(selDur), speedup(matDur, selDur)},
			{"predicate boxed EvalBool/row", ms(boxedDur), "1.0x"},
			{"predicate typed int kernel", ms(kernDur), speedup(boxedDur, kernDur)},
		},
		Notes: []string{
			fmt.Sprintf("one int column, %d rows, ~50%% selectivity, %d passes per measurement", n, reps),
			"selection-vector FILTER installs row indexes over the typed payload; the materializing filter boxes every value and copies every survivor",
		},
	}
	return tab, nil
}
