package exec_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/query/exec"
	"repro/internal/query/expr"
	"repro/internal/query/ir"
	"repro/internal/storage/vineyard"
)

func mustParsePred(t *testing.T, s string) *expr.Expr {
	t.Helper()
	e, err := expr.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBatchAppendTruncateReuse(t *testing.T) {
	b := exec.NewBatch(3, 0)
	if b.Width() != 3 || b.Len() != 0 {
		t.Fatalf("fresh batch: width=%d len=%d", b.Width(), b.Len())
	}
	b.AppendRow([]graph.Value{graph.IntValue(1), {}, {}})
	b.AppendRow([]graph.Value{graph.IntValue(7), graph.StringValue("x"), {}})
	if b.Len() != 2 {
		t.Fatalf("len=%d", b.Len())
	}
	if v := b.Value(1, 0); v.Int() != 7 {
		t.Fatalf("row 1 col 0: %v", v)
	}
	if v := b.Value(1, 1); v.Str() != "x" {
		t.Fatalf("row 1 col 1: %v", v)
	}
	if v := b.Value(1, 2); !v.IsNull() {
		t.Fatalf("row 1 col 2 not null: %v", v)
	}
	if got := b.Value(0, 0).Int(); got != 1 {
		t.Fatalf("row 0: %d", got)
	}
	// Pop the failed row, then reuse the arena.
	b.Truncate(1)
	if b.Len() != 1 {
		t.Fatalf("after truncate: %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("reset kept rows")
	}
	row := make([]graph.Value, 3)
	for i := 0; i < 100; i++ {
		row[0] = graph.IntValue(int64(i))
		b.AppendRow(row)
	}
	v := b.View(10, 20)
	if v.Len() != 10 || v.Value(0, 0).Int() != 10 || v.Value(9, 0).Int() != 19 {
		t.Fatalf("view: len=%d first=%v last=%v", v.Len(), v.Value(0, 0), v.Value(9, 0))
	}
	rows := b.Rows()
	if len(rows) != 100 || rows[42][0].Int() != 42 {
		t.Fatalf("Rows materialization wrong")
	}
}

// TestBatchSelection: a selection vector narrows the logical view without
// copying, AppendBatch compacts it, and Reset drops it.
func TestBatchSelection(t *testing.T) {
	b := exec.NewBatchKinds([]graph.Kind{graph.KindInt}, 0)
	row := make([]graph.Value, 1)
	for i := 0; i < 10; i++ {
		row[0] = graph.IntValue(int64(i))
		b.AppendRow(row)
	}
	b.SetSel([]int32{1, 4, 7})
	if b.Len() != 3 || b.PhysLen() != 10 {
		t.Fatalf("sel: len=%d phys=%d", b.Len(), b.PhysLen())
	}
	for i, want := range []int64{1, 4, 7} {
		if got := b.Value(i, 0).Int(); got != want {
			t.Fatalf("sel row %d = %d, want %d", i, got, want)
		}
	}
	// AppendBatch compacts the selection into dense rows.
	dst := exec.NewBatchKinds([]graph.Kind{graph.KindInt}, 0)
	dst.AppendBatch(b)
	if dst.Len() != 3 || dst.PhysLen() != 3 {
		t.Fatalf("compacted: len=%d phys=%d", dst.Len(), dst.PhysLen())
	}
	if got := dst.Value(2, 0).Int(); got != 7 {
		t.Fatalf("compacted row 2 = %d", got)
	}
	// An empty (non-nil) selection means zero logical rows, not dense.
	b.SetSel([]int32{})
	if b.Len() != 0 {
		t.Fatalf("empty sel: len=%d", b.Len())
	}
	b.Reset()
	if b.Sel() != nil || b.Len() != 0 {
		t.Fatal("reset kept selection or rows")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

// TestBatchAppendBatchWidthMismatchPanics: appending across mismatched widths
// used to silently corrupt column alignment; it must panic naming both widths,
// and View/Truncate must refuse batches with live selections.
func TestBatchAppendBatchWidthMismatchPanics(t *testing.T) {
	wide := exec.NewBatch(3, 0)
	narrow := exec.NewBatch(2, 0)
	narrow.AppendRow([]graph.Value{graph.IntValue(1), graph.IntValue(2)})
	mustPanic(t, "AppendBatch width", func() { wide.AppendBatch(narrow) })

	sel := exec.NewBatch(1, 0)
	sel.AppendRow([]graph.Value{graph.IntValue(1)})
	sel.SetSel([]int32{0})
	mustPanic(t, "View with sel", func() { sel.View(0, 1) })
	mustPanic(t, "Truncate with sel", func() { sel.Truncate(0) })
	mustPanic(t, "AppendBatch into sel", func() { sel.AppendBatch(narrow) })
}

// countingStore exposes only the topology and property traits, forcing
// ScanLabel onto the full-scan path so VertexLabel calls count scanned
// vertices.
type countingStore struct {
	st      *vineyard.Store
	scanned atomic.Int64
	props   atomic.Int64
}

func (c *countingStore) NumVertices() int { return c.st.NumVertices() }
func (c *countingStore) NumEdges() int    { return c.st.NumEdges() }
func (c *countingStore) Degree(v graph.VID, d graph.Direction) int {
	return c.st.Degree(v, d)
}
func (c *countingStore) Neighbors(v graph.VID, d graph.Direction, yield func(graph.VID, graph.EID) bool) {
	c.st.Neighbors(v, d, yield)
}
func (c *countingStore) Schema() *graph.Schema { return c.st.Schema() }
func (c *countingStore) VertexLabel(v graph.VID) graph.LabelID {
	c.scanned.Add(1)
	return c.st.VertexLabel(v)
}
func (c *countingStore) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	c.props.Add(1)
	return c.st.VertexProp(v, p)
}
func (c *countingStore) EdgeLabel(e graph.EID) graph.LabelID { return c.st.EdgeLabel(e) }
func (c *countingStore) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	return c.st.EdgeProp(e, p)
}

func bigStore(t *testing.T) *vineyard.Store {
	t.Helper()
	s := graph.NewSchema(
		[]graph.VertexLabel{{Name: "N", Props: []graph.PropDef{{Name: "x", Kind: graph.KindInt}}}},
		nil,
	)
	b := graph.NewBatch(s)
	for i := 0; i < 5000; i++ {
		b.AddVertex(0, int64(i), graph.IntValue(int64(i)))
	}
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLimitShortCircuitsSource: with LIMIT n directly after the pipeline,
// the serial driver must stop the scan once n rows are buffered instead of
// scanning all 5000 vertices.
func TestLimitShortCircuitsSource(t *testing.T) {
	cs := &countingStore{st: bigStore(t)}
	plan := &ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpScan, Alias: "a", Label: 0},
		{Kind: ir.OpLimit, Limit: 5},
	}}
	c, err := exec.Compile(plan, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 64, 1024} {
		cs.scanned.Store(0)
		rows, err := c.Run(context.Background(), &exec.Env{Graph: cs, Request: exec.Request{BatchSize: bs}})
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		if len(rows) != 5 {
			t.Fatalf("bs=%d: %d rows", bs, len(rows))
		}
		// The first 5 vertices in scan order, exactly.
		for i, r := range rows {
			if r[0].Vertex() != graph.VID(i) {
				t.Fatalf("bs=%d: row %d = %v", bs, i, r[0])
			}
		}
		// At most the limit plus a batch or two of slack — not the full
		// 5000-vertex store.
		if n := cs.scanned.Load(); n > int64(5+2*bs+2) {
			t.Fatalf("bs=%d: scanned %d vertices, want short-circuit", bs, n)
		}
	}
}

// TestScanIDFallbackSinglePass: without the index trait, `id(a) = k` must
// fold into the scan predicate — results identical to the indexed path.
func TestScanIDFallbackSinglePass(t *testing.T) {
	st := bigStore(t)
	cs := &countingStore{st: st} // no Index trait: forces the fallback
	plan := &ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpScan, Alias: "a", Label: 0, Pred: mustParsePred(t, "id(a) = 137")},
	}}
	c, err := exec.Compile(plan, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Run(context.Background(), &exec.Env{Graph: cs})
	if err != nil {
		t.Fatal(err)
	}
	// Without the index trait id() falls back to the raw value; internal and
	// external ids coincide in this store.
	if len(rows) != 1 || rows[0][0].Vertex() != graph.VID(137) {
		t.Fatalf("fallback rows: %v", rows)
	}
	// And the indexed store agrees without scanning.
	rowsIdx, err := c.Run(context.Background(), &exec.Env{Graph: st})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsIdx) != 1 || rowsIdx[0][0].Vertex() != rows[0][0].Vertex() {
		t.Fatalf("index rows: %v", rowsIdx)
	}
}

// TestBoxedFilterReadsOnlyReferencedColumns drives the boxed per-row filter
// fallback over a four-column batch whose predicate reads two of them: the
// row bridge carries only the referenced columns, and rows, the first error
// and the store-call count are exactly the short-circuiting row-at-a-time
// evaluator's.
func TestBoxedFilterReadsOnlyReferencedColumns(t *testing.T) {
	cs := &countingStore{st: bigStore(t)}
	plan := func(pred string) *ir.Plan {
		return &ir.Plan{Ops: []*ir.Op{
			{Kind: ir.OpScan, Alias: "a", Label: 0},
			{Kind: ir.OpProject, Items: []ir.ProjItem{
				{Expr: mustParsePred(t, "'pad'"), Alias: "z"},
				{Expr: mustParsePred(t, "a"), Alias: "a"},
				{Expr: mustParsePred(t, "a.x + 1"), Alias: "y"},
				{Expr: mustParsePred(t, "'pad' + 'ding'"), Alias: "w"},
			}},
			{Kind: ir.OpSelect, Pred: mustParsePred(t, pred)},
		}}
	}
	// No schema: no conjunct kernelizes, the whole predicate is the residual.
	c, err := exec.Compile(plan("a.x % 7 = 3 AND y > 10"), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Run(context.Background(), &exec.Env{Graph: cs})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for x := 0; x < 5000; x++ {
		if x%7 == 3 && x+1 > 10 {
			if want >= len(rows) || rows[want][1].Vertex() != graph.VID(x) || rows[want][2].Int() != int64(x+1) ||
				rows[want][0].S != "pad" || rows[want][3].S != "padding" {
				t.Fatalf("row %d: got %v, want vertex %d", want, rows, x)
			}
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	// PROJECT reads a.x once per row; the filter reads it once per row (the
	// second conjunct makes no store call).
	if n := cs.props.Load(); n != 2*5000 {
		t.Fatalf("%d VertexProp calls, want %d", n, 2*5000)
	}

	// First error in row order: x = 38 is the first row to pass the first
	// conjunct and divide by zero in the second.
	c, err = exec.Compile(plan("a.x % 7 = 3 AND y / (a.x - 38) >= 0"), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs.props.Store(0)
	if _, err := c.Run(context.Background(), &exec.Env{Graph: cs}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("error %v, want division by zero", err)
	}
	// One 64-row morsel projected (64 reads), rows 0..38 through the first
	// conjunct (39), the six passing rows 3, 10, …, 38 through the second (6).
	if n := cs.props.Load(); n != 64+39+6 {
		t.Fatalf("%d VertexProp calls before the error, want %d", n, 64+39+6)
	}
}
