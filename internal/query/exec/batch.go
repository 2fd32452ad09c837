package exec

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// DefaultBatchSize is the target row count per batch when Request.BatchSize
// is unset. ~1K rows amortizes per-batch overhead while keeping a batch's
// column payloads comfortably cache-resident.
const DefaultBatchSize = 1024

// Batch is a fixed-width columnar row container: one Vec per column (typed
// payload arrays when the kind is known at compile time, boxed escape hatch
// otherwise) plus an optional selection vector. With sel == nil the batch is
// dense — logical row i is physical row i of every column. A FILTER sets sel
// instead of materializing survivors: logical row i becomes physical row
// sel[i], downstream operators iterate `for _, i := range sel`, and the
// filtered-out rows are never copied. Operators append columns in lockstep
// and reuse payload arrays across batches (Reset), so steady-state pipeline
// execution allocates per batch, not per row or per value.
type Batch struct {
	cols []Vec
	rows int     // physical row count (every column's Len)
	sel  []int32 // selection vector; nil = dense
	view bool    // shares another batch's payload arrays (never pooled)

	// selArr double-buffers selection storage for fused filter passes: each
	// pass writes survivors into the slot sel does not currently point at,
	// so the candidate list being read is never overwritten mid-pass. The
	// buffers travel with the batch (and through the pool), keeping
	// steady-state filtering allocation-free. selIdx is the slot sel points
	// at, or -1 when sel is nil or externally owned.
	selArr [2][]int32
	selIdx int8
}

// NewBatch returns an empty batch of the given row width with all-boxed
// columns — the compatibility constructor for callers with no kind
// information. capRows pre-sizes the boxed arenas (0: grow on demand — cheap
// point queries never pay for a full batch arena).
func NewBatch(width, capRows int) *Batch {
	kinds := make([]graph.Kind, width)
	return NewBatchKinds(kinds, capRows)
}

// NewBatchKinds returns an empty batch with one column per kind entry —
// typed for concrete kinds, boxed for graph.KindNil.
func NewBatchKinds(kinds []graph.Kind, capRows int) *Batch {
	b := &Batch{cols: make([]Vec, len(kinds)), selIdx: -1}
	for i, k := range kinds {
		b.cols[i].resetKind(k)
		if k == graph.KindNil && capRows > 0 {
			b.cols[i].box = make([]graph.Value, 0, capRows)
		}
	}
	return b
}

// Width returns the number of columns per row.
func (b *Batch) Width() int { return len(b.cols) }

// Len returns the number of logical rows (after selection).
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.rows
}

// PhysLen returns the number of physical rows each column holds, ignoring
// any selection.
func (b *Batch) PhysLen() int { return b.rows }

// Sel returns the selection vector (nil = dense). Logical row i is physical
// row Sel()[i] of every column.
func (b *Batch) Sel() []int32 { return b.sel }

// SetSel installs a selection over the batch's physical rows (nil restores
// density). The batch keeps the slice; callers hand over ownership.
func (b *Batch) SetSel(sel []int32) {
	b.sel = sel
	b.selIdx = -1
}

// Col returns column c for direct typed access.
func (b *Batch) Col(c int) *Vec { return &b.cols[c] }

// physRow maps a logical row index through the selection.
func (b *Batch) physRow(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// Value returns column col of logical row i.
func (b *Batch) Value(i, col int) graph.Value {
	return b.cols[col].Value(b.physRow(i))
}

// CopyRow materializes logical row i into dst (len ≥ Width) — the boxed
// bridge for row-at-a-time expression evaluation.
func (b *Batch) CopyRow(i int, dst []graph.Value) {
	p := b.physRow(i)
	for c := range b.cols {
		dst[c] = b.cols[c].Value(p)
	}
}

// AppendRow appends one row from the boxed prefix vals (len(vals) ≤ width;
// remaining columns are NULL). The batch must be dense.
func (b *Batch) AppendRow(vals []graph.Value) {
	for c := range b.cols {
		if c < len(vals) {
			b.cols[c].AppendValue(vals[c])
		} else {
			b.cols[c].appendNull()
		}
	}
	b.rows++
}

// AppendBatch appends all logical rows of o. Both batches must have the same
// width — appending across widths silently interleaved columns in the old
// flat-arena layout, so it is a panic now — and the destination must be
// dense (a selection on the destination would leave the appended rows
// unreachable).
func (b *Batch) AppendBatch(o *Batch) {
	if len(o.cols) != len(b.cols) {
		panic(fmt.Sprintf("exec: AppendBatch width mismatch: dst width %d, src width %d", len(b.cols), len(o.cols)))
	}
	if b.sel != nil {
		panic("exec: AppendBatch into a batch with a selection")
	}
	if o.sel != nil {
		for c := range b.cols {
			b.cols[c].appendRows(&o.cols[c], o.sel)
		}
		b.rows += len(o.sel)
		return
	}
	for c := range b.cols {
		b.cols[c].appendAll(&o.cols[c])
	}
	b.rows += o.rows
}

// Truncate keeps the first n physical rows of a dense batch. Expansion
// operators use it to drop rows they just appended when a predicate fails.
func (b *Batch) Truncate(n int) {
	if b.sel != nil {
		panic("exec: Truncate on a batch with a selection")
	}
	for c := range b.cols {
		b.cols[c].truncate(n)
	}
	b.rows = n
}

// Reset empties the batch keeping every column's kind and payload arrays for
// reuse, and drops any selection.
func (b *Batch) Reset() {
	for c := range b.cols {
		b.cols[c].reset()
	}
	b.rows = 0
	b.sel = nil
	b.selIdx = -1
}

// viewOf re-slices dst in place as a read-only view of rows [lo, hi) of b,
// sharing the column payloads — how a Feed cuts morsels, through one
// arena-owned header per goroutine instead of one allocation per morsel.
// The view must not be appended to, and b must stay alive and unwritten
// while it circulates. Views of a batch with a selection are not supported:
// sources and barrier outputs are always dense.
func (b *Batch) viewOf(dst *Batch, lo, hi int) {
	if b.sel != nil {
		panic("exec: view of a batch with a selection")
	}
	if cap(dst.cols) < len(b.cols) {
		dst.cols = make([]Vec, len(b.cols))
	}
	dst.cols = dst.cols[:len(b.cols)]
	for c := range b.cols {
		dst.cols[c] = b.cols[c].slice(lo, hi)
	}
	dst.rows = hi - lo
	dst.sel = nil
	dst.selIdx = -1
	dst.view = true
}

// Rows materializes the batch as boxed []Row — the final conversion to the
// engines' public result type, and the only place a typed column pays the
// boxing cost (once per result row, not once per operator).
func (b *Batch) Rows() []Row {
	n := b.Len()
	w := len(b.cols)
	arena := make([]graph.Value, n*w)
	out := make([]Row, n)
	for i := 0; i < n; i++ {
		out[i] = Row(arena[i*w : (i+1)*w : (i+1)*w])
	}
	// Fill column-major with monomorphic loops over the typed payloads; the
	// per-value kind switch of Column.Get would otherwise dominate result
	// materialization on wide results.
	for c := range b.cols {
		t := b.cols[c].Typed()
		if t == nil {
			box := b.cols[c].Box()
			for i := 0; i < n; i++ {
				arena[i*w+c] = box[b.physRow(i)]
			}
			continue
		}
		kind := t.Kind()
		nulls := t.HasNulls()
		switch {
		case !nulls && (kind == graph.KindInt || kind == graph.KindVertex || kind == graph.KindEdge):
			ints := t.RawInts()
			for i := 0; i < n; i++ {
				arena[i*w+c] = graph.Value{K: kind, I: ints[b.physRow(i)]}
			}
		case !nulls && kind == graph.KindFloat:
			fs := t.Floats()
			for i := 0; i < n; i++ {
				arena[i*w+c] = graph.Value{K: kind, F: fs[b.physRow(i)]}
			}
		case !nulls && kind == graph.KindString:
			ss := t.Strings()
			for i := 0; i < n; i++ {
				arena[i*w+c] = graph.Value{K: kind, S: ss[b.physRow(i)]}
			}
		default:
			for i := 0; i < n; i++ {
				arena[i*w+c] = b.cols[c].Value(b.physRow(i))
			}
		}
	}
	return out
}

// BatchPool recycles the batches that outlive the goroutine or segment that
// filled them — everything else is Arena's. Gaia publishes one output batch
// per morsel, which whichever worker completes the in-order prefix appends,
// and carries segment accumulators across barriers; pooling those payload
// arrays removes the steady-state per-morsel allocation. Get reshapes a pooled
// batch to the requested column layout; Put must only receive batches that
// own their payloads (never Views) and that the caller will not touch again.
type BatchPool struct{ pool sync.Pool }

// Get returns an empty batch with the given column layout, reusing pooled
// payload arrays when available (capRows only sizes fresh boxed arenas).
func (p *BatchPool) Get(kinds []graph.Kind, capRows int) *Batch {
	b, _ := p.GetHit(kinds, capRows)
	return b
}

// GetHit is Get plus a recycling report: hit is true when the batch reused a
// pooled arena, false when the pool was empty and a fresh batch was
// allocated — the signal the observability layer's pool hit/miss counters
// record.
func (p *BatchPool) GetHit(kinds []graph.Kind, capRows int) (b *Batch, hit bool) {
	b, _ = p.pool.Get().(*Batch)
	if b == nil {
		return NewBatchKinds(kinds, capRows), false
	}
	b.reshape(kinds)
	return b, true
}

// reshape empties a recycled batch and retypes it to the given column layout,
// keeping every payload array and selection buffer for reuse. Whatever state
// the previous user left behind — rows, a selection, half-appended columns
// after a panic — is discarded.
func (b *Batch) reshape(kinds []graph.Kind) {
	if cap(b.cols) < len(kinds) {
		b.cols = append(b.cols[:cap(b.cols)], make([]Vec, len(kinds)-cap(b.cols))...)
	}
	b.cols = b.cols[:len(kinds)]
	for i, k := range kinds {
		b.cols[i].resetKind(k)
	}
	b.rows = 0
	b.sel = nil
	b.selIdx = -1
}

// Put recycles a batch's payload arrays; views are dropped (their payloads
// belong to another batch). The payload Values are deliberately not cleared:
// a pooled morsel arena is overwritten on the next Get/Append cycle,
// retention is bounded by pool size × arena size, and a per-morsel memset of
// the hottest arrays in the engine would cost more than the references it
// frees (row values overwhelmingly reference store-resident strings that are
// alive regardless).
func (p *BatchPool) Put(b *Batch) {
	if b != nil && !b.view {
		p.pool.Put(b)
	}
}
