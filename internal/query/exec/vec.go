package exec

import (
	"repro/internal/graph"
	"repro/internal/storage/column"
)

// Vec is one batch column: a typed column.Column when the column's kind is
// known at compile time (int64/float64/string/bool/vertex/edge payloads with
// a lazy null bitmap), or a boxed []graph.Value escape hatch when it is not
// (kind == graph.KindNil). Typed vectors are the hot path — kernels and
// gathers touch the raw payload arrays — and every typed vector can demote
// itself to boxed at runtime if a value of an unexpected kind shows up, so a
// wrong compile-time kind hint costs speed, never correctness.
type Vec struct {
	kind graph.Kind // declared kind; graph.KindNil = boxed escape hatch
	col  column.Column
	box  []graph.Value
}

// Kind returns the vector's declared kind (graph.KindNil for boxed vectors).
func (v *Vec) Kind() graph.Kind { return v.kind }

// Typed exposes the typed payload column, or nil for boxed vectors. Callers
// must re-check after any append that could demote.
func (v *Vec) Typed() *column.Column {
	if v.kind == graph.KindNil {
		return nil
	}
	return &v.col
}

// Box exposes the boxed payload, or nil for typed vectors.
func (v *Vec) Box() []graph.Value {
	if v.kind != graph.KindNil {
		return nil
	}
	return v.box
}

// Len returns the number of rows.
func (v *Vec) Len() int {
	if v.kind == graph.KindNil {
		return len(v.box)
	}
	return v.col.Len()
}

// Value returns the value at physical row i (NullValue for NULL rows).
func (v *Vec) Value(i int) graph.Value {
	if v.kind == graph.KindNil {
		return v.box[i]
	}
	val, _ := v.col.Get(i)
	return val
}

// AppendValue appends one value. A typed vector accepts NULLs and values of
// its own kind directly; any other kind demotes the whole vector to boxed
// first, so the append always succeeds.
func (v *Vec) AppendValue(val graph.Value) {
	if v.kind == graph.KindNil {
		v.box = append(v.box, val)
		return
	}
	if err := v.col.Append(val); err != nil {
		v.demote()
		v.box = append(v.box, val)
	}
}

// appendNull appends one NULL row.
func (v *Vec) appendNull() {
	if v.kind == graph.KindNil {
		v.box = append(v.box, graph.NullValue)
		return
	}
	v.col.AppendNull()
}

// demote converts a typed vector to the boxed representation in place —
// the correctness escape hatch when a runtime value contradicts the
// compile-time kind hint.
func (v *Vec) demote() {
	n := v.col.Len()
	if cap(v.box) < n {
		v.box = make([]graph.Value, 0, n)
	}
	v.box = v.box[:0]
	for i := 0; i < n; i++ {
		val, _ := v.col.Get(i)
		v.box = append(v.box, val)
	}
	v.col.Reset(graph.KindNil)
	v.kind = graph.KindNil
}

// resetKind empties the vector and retypes it, keeping payload arrays for
// reuse — the pool-recycling path.
func (v *Vec) resetKind(kind graph.Kind) {
	v.kind = kind
	v.col.Reset(kind)
	v.box = v.box[:0]
}

// reset empties the vector keeping its kind.
func (v *Vec) reset() { v.resetKind(v.kind) }

// adoptIfEmpty retypes an empty destination to the source's layout so the
// first append into a pooled or freshly-built batch never forces a demotion
// (a boxed morsel flowing into a typed accumulator, or vice versa).
func (v *Vec) adoptIfEmpty(src *Vec) {
	if v.Len() == 0 && v.kind != src.kind {
		v.resetKind(src.kind)
	}
}

// appendAll appends every row of src — the dense batch-concatenation path;
// same-kind typed vectors copy flat payload slices.
func (v *Vec) appendAll(src *Vec) {
	v.adoptIfEmpty(src)
	if v.kind != graph.KindNil && v.kind == src.kind {
		if err := v.col.AppendAll(&src.col); err == nil {
			return
		}
		v.demote()
	}
	if v.kind == graph.KindNil && src.kind == graph.KindNil {
		v.box = append(v.box, src.box...)
		return
	}
	n := src.Len()
	for i := 0; i < n; i++ {
		v.AppendValue(src.Value(i))
	}
}

// appendRows gather-appends src's physical rows at the given indexes — the
// selection-vector compaction path.
func (v *Vec) appendRows(src *Vec, rows []int32) {
	v.adoptIfEmpty(src)
	if v.kind != graph.KindNil && v.kind == src.kind {
		if err := v.col.AppendRows(&src.col, rows); err == nil {
			return
		}
		v.demote()
	}
	if v.kind == graph.KindNil && src.kind == graph.KindNil {
		for _, r := range rows {
			v.box = append(v.box, src.box[r])
		}
		return
	}
	for _, r := range rows {
		v.AppendValue(src.Value(int(r)))
	}
}

// appendFrom appends one physical row of src.
func (v *Vec) appendFrom(src *Vec, row int) {
	v.AppendValue(src.Value(row))
}

// appendVertex appends one vertex ID, using the monomorphic path on vertex
// vectors.
func (v *Vec) appendVertex(id graph.VID) {
	if v.kind == graph.KindVertex {
		v.col.AppendVertex(id)
		return
	}
	v.AppendValue(graph.VertexValue(id))
}

// appendEdge appends one edge ID, using the monomorphic path on edge vectors.
func (v *Vec) appendEdge(id graph.EID) {
	if v.kind == graph.KindEdge {
		v.col.AppendEdge(id)
		return
	}
	v.AppendValue(graph.EdgeValue(id))
}

// appendInt appends one int, using the monomorphic path on int vectors.
func (v *Vec) appendInt(n int64) {
	if v.kind == graph.KindInt {
		v.col.AppendInt(n)
		return
	}
	v.AppendValue(graph.IntValue(n))
}

// appendIntFamily appends one int-family payload of kind k (int, vertex or
// edge), using the monomorphic path when the vector holds that kind: all
// three keep their payload in the column's shared int64 array.
func (v *Vec) appendIntFamily(k graph.Kind, x int64) {
	if v.kind == k {
		v.col.AppendInt(x)
		return
	}
	v.AppendValue(intFamilyValue(k, x))
}

// appendVIDs bulk-appends a frontier chunk.
func (v *Vec) appendVIDs(vs []graph.VID) {
	if v.kind == graph.KindVertex {
		v.col.AppendVIDs(vs)
		return
	}
	for _, id := range vs {
		v.AppendValue(graph.VertexValue(id))
	}
}

// truncate keeps the first n physical rows.
func (v *Vec) truncate(n int) {
	if v.kind == graph.KindNil {
		v.box = v.box[:n]
		return
	}
	v.col.Truncate(n)
}

// slice returns a read-only view of physical rows [lo, hi) sharing the
// payload arrays.
func (v *Vec) slice(lo, hi int) Vec {
	if v.kind == graph.KindNil {
		return Vec{kind: graph.KindNil, box: v.box[lo:hi:hi]}
	}
	return Vec{kind: v.kind, col: v.col.Slice(lo, hi)}
}
