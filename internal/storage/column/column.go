// Package column implements typed property columns shared by the storage
// backends (Vineyard, GART, GraphAr) and the query runtime's batch vectors. A
// column stores one property of one label — or one operator-pipeline column —
// in a dense, cache-friendly array keyed by row index, with a lazy null
// bitmap.
package column

import (
	"fmt"

	"repro/internal/graph"
)

// Column is a typed dense array of property values. Int, vertex and edge
// payloads share the int64 array (a VID/EID is its 32-bit ID widened), so
// every fixed-width kind is an 8-byte pointer-free element the GC never
// scans. The null bitmap is lazy twice over: nil until the first NULL, and
// allowed to be shorter than the row count — rows past its end are non-null —
// so typed appends never maintain it. The zero Column is not usable;
// construct with New or Reset.
type Column struct {
	kind graph.Kind

	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	nulls   []bool // lazy prefix; len(nulls) <= numRows, missing rows are non-null
	numRows int
}

// New returns an empty column of the kind.
func New(kind graph.Kind) *Column {
	return &Column{kind: kind}
}

// Kind returns the column's value kind.
func (c *Column) Kind() graph.Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int { return c.numRows }

// Reset empties the column and retypes it to kind, keeping every payload
// array for reuse — the pool-recycling path of the query runtime's batch
// vectors.
func (c *Column) Reset(kind graph.Kind) {
	c.kind = kind
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	c.strs = c.strs[:0]
	c.bools = c.bools[:0]
	c.nulls = c.nulls[:0]
	c.numRows = 0
}

// Append adds a value; NULL values of any kind are accepted, others must
// match the column kind.
func (c *Column) Append(v graph.Value) error {
	if v.IsNull() {
		c.AppendNull()
		return nil
	}
	if v.K != c.kind {
		return fmt.Errorf("column: append %v into %v column", v.K, c.kind)
	}
	switch c.kind {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		c.ints = append(c.ints, v.I)
	case graph.KindFloat:
		c.floats = append(c.floats, v.F)
	case graph.KindString:
		c.strs = append(c.strs, v.S)
	case graph.KindBool:
		c.bools = append(c.bools, v.I != 0)
	default:
		return fmt.Errorf("column: unsupported kind %v", c.kind)
	}
	c.numRows++
	return nil
}

// AppendNull appends one NULL row.
func (c *Column) AppendNull() {
	c.appendZero()
	c.markNull(c.numRows - 1)
}

// AppendInt appends one int64 to an int column without boxing. The caller
// must know the column kind; no check is performed (monomorphic hot path).
func (c *Column) AppendInt(v int64) {
	c.ints = append(c.ints, v)
	c.numRows++
}

// AppendVertex appends one vertex ID to a vertex column without boxing.
func (c *Column) AppendVertex(v graph.VID) {
	c.ints = append(c.ints, int64(v))
	c.numRows++
}

// AppendEdge appends one edge ID to an edge column without boxing.
func (c *Column) AppendEdge(e graph.EID) {
	c.ints = append(c.ints, int64(e))
	c.numRows++
}

// AppendVIDs bulk-appends a frontier chunk to a vertex column.
func (c *Column) AppendVIDs(vs []graph.VID) {
	for _, v := range vs {
		c.ints = append(c.ints, int64(v))
	}
	c.numRows += len(vs)
}

func (c *Column) appendZero() {
	switch c.kind {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		c.ints = append(c.ints, 0)
	case graph.KindFloat:
		c.floats = append(c.floats, 0)
	case graph.KindString:
		c.strs = append(c.strs, "")
	case graph.KindBool:
		c.bools = append(c.bools, false)
	}
	c.numRows++
}

// padNulls extends the lazy null prefix with non-null entries up to the
// current row count (allocating the bitmap on first use).
func (c *Column) padNulls() {
	for len(c.nulls) < c.numRows {
		c.nulls = append(c.nulls, false)
	}
}

func (c *Column) markNull(row int) {
	c.padNulls()
	c.nulls[row] = true
}

// NullAt reports whether the row holds NULL.
func (c *Column) NullAt(row int) bool {
	return row < len(c.nulls) && c.nulls[row]
}

// HasNulls reports whether the column may contain NULLs (conservative: true
// once the bitmap has been materialized). Typed kernels use it to pick the
// bitmap-free loop.
func (c *Column) HasNulls() bool { return len(c.nulls) > 0 }

// Nulls exposes the lazy null prefix (may be shorter than Len; missing rows
// are non-null). Monomorphic kernels consult it directly.
func (c *Column) Nulls() []bool { return c.nulls }

// Get returns the value at row; ok is false for NULL or out-of-range rows.
func (c *Column) Get(row int) (graph.Value, bool) {
	if row < 0 || row >= c.numRows {
		return graph.NullValue, false
	}
	if c.NullAt(row) {
		return graph.NullValue, false
	}
	switch c.kind {
	case graph.KindInt:
		return graph.IntValue(c.ints[row]), true
	case graph.KindFloat:
		return graph.FloatValue(c.floats[row]), true
	case graph.KindString:
		return graph.StringValue(c.strs[row]), true
	case graph.KindBool:
		return graph.BoolValue(c.bools[row]), true
	case graph.KindVertex:
		return graph.VertexValue(graph.VID(c.ints[row])), true
	case graph.KindEdge:
		return graph.EdgeValue(graph.EID(c.ints[row])), true
	}
	return graph.NullValue, false
}

// Set overwrites the value at row (used by mutable stores). The row must
// already exist.
func (c *Column) Set(row int, v graph.Value) error {
	if row < 0 || row >= c.numRows {
		return fmt.Errorf("column: set row %d out of range %d", row, c.numRows)
	}
	if v.IsNull() {
		c.markNull(row)
		return nil
	}
	if v.K != c.kind {
		return fmt.Errorf("column: set %v into %v column", v.K, c.kind)
	}
	switch c.kind {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		c.ints[row] = v.I
	case graph.KindFloat:
		c.floats[row] = v.F
	case graph.KindString:
		c.strs[row] = v.S
	case graph.KindBool:
		c.bools[row] = v.I != 0
	}
	if row < len(c.nulls) {
		c.nulls[row] = false
	}
	return nil
}

// Truncate keeps the first n rows.
func (c *Column) Truncate(n int) {
	switch c.kind {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		c.ints = c.ints[:n]
	case graph.KindFloat:
		c.floats = c.floats[:n]
	case graph.KindString:
		c.strs = c.strs[:n]
	case graph.KindBool:
		c.bools = c.bools[:n]
	}
	if len(c.nulls) > n {
		c.nulls = c.nulls[:n]
	}
	c.numRows = n
}

// Slice returns a read-only view of rows [lo, hi) sharing the payload
// arrays. The view must not be appended to, and the parent must stay alive
// while the view circulates — the batch-view contract of the query runtime.
func (c *Column) Slice(lo, hi int) Column {
	out := Column{kind: c.kind, numRows: hi - lo}
	switch c.kind {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		out.ints = c.ints[lo:hi:hi]
	case graph.KindFloat:
		out.floats = c.floats[lo:hi:hi]
	case graph.KindString:
		out.strs = c.strs[lo:hi:hi]
	case graph.KindBool:
		out.bools = c.bools[lo:hi:hi]
	}
	if lo < len(c.nulls) {
		end := hi
		if end > len(c.nulls) {
			end = len(c.nulls)
		}
		out.nulls = c.nulls[lo:end:end]
	}
	return out
}

// AppendAll bulk-appends every row of src (same kind) — the dense batch
// concatenation path; payloads copy as flat slices.
func (c *Column) AppendAll(src *Column) error {
	if src.kind != c.kind {
		return fmt.Errorf("column: append %v column into %v column", src.kind, c.kind)
	}
	if len(src.nulls) > 0 {
		c.padNulls()
		c.nulls = append(c.nulls, src.nulls...)
	}
	switch c.kind {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		c.ints = append(c.ints, src.ints...)
	case graph.KindFloat:
		c.floats = append(c.floats, src.floats...)
	case graph.KindString:
		c.strs = append(c.strs, src.strs...)
	case graph.KindBool:
		c.bools = append(c.bools, src.bools...)
	}
	c.numRows += src.numRows
	return nil
}

// AppendRows gather-appends src's rows at the given indexes (same kind) —
// the selection-vector compaction path. The kind switch is hoisted out of
// the row loop, so the copy touches only the typed payload array.
func (c *Column) AppendRows(src *Column, rows []int32) error {
	if src.kind != c.kind {
		return fmt.Errorf("column: append %v column into %v column", src.kind, c.kind)
	}
	if len(src.nulls) > 0 {
		c.padNulls()
		for _, r := range rows {
			c.nulls = append(c.nulls, src.NullAt(int(r)))
		}
	}
	switch c.kind {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		for _, r := range rows {
			c.ints = append(c.ints, src.ints[r])
		}
	case graph.KindFloat:
		for _, r := range rows {
			c.floats = append(c.floats, src.floats[r])
		}
	case graph.KindString:
		for _, r := range rows {
			c.strs = append(c.strs, src.strs[r])
		}
	case graph.KindBool:
		for _, r := range rows {
			c.bools = append(c.bools, src.bools[r])
		}
	}
	c.numRows += len(rows)
	return nil
}

// Gather fills out[i] with the value at rows[i] (NullValue for NULL or
// out-of-range rows). The kind switch is hoisted out of the row loop, so a
// batched property gather touches only the typed payload array — the fast
// path behind the grin.BatchProps trait.
func (c *Column) Gather(rows []int, out []graph.Value) {
	ok := func(r int) bool {
		return r >= 0 && r < c.numRows && !c.NullAt(r)
	}
	switch c.kind {
	case graph.KindInt:
		for i, r := range rows {
			if ok(r) {
				out[i] = graph.Value{K: graph.KindInt, I: c.ints[r]}
			} else {
				out[i] = graph.NullValue
			}
		}
	case graph.KindFloat:
		for i, r := range rows {
			if ok(r) {
				out[i] = graph.Value{K: graph.KindFloat, F: c.floats[r]}
			} else {
				out[i] = graph.NullValue
			}
		}
	case graph.KindString:
		for i, r := range rows {
			if ok(r) {
				out[i] = graph.Value{K: graph.KindString, S: c.strs[r]}
			} else {
				out[i] = graph.NullValue
			}
		}
	case graph.KindBool:
		for i, r := range rows {
			if ok(r) {
				out[i] = graph.BoolValue(c.bools[r])
			} else {
				out[i] = graph.NullValue
			}
		}
	case graph.KindVertex:
		for i, r := range rows {
			if ok(r) {
				out[i] = graph.Value{K: graph.KindVertex, I: c.ints[r]}
			} else {
				out[i] = graph.NullValue
			}
		}
	case graph.KindEdge:
		for i, r := range rows {
			if ok(r) {
				out[i] = graph.Value{K: graph.KindEdge, I: c.ints[r]}
			} else {
				out[i] = graph.NullValue
			}
		}
	default:
		for i := range rows {
			out[i] = graph.NullValue
		}
	}
}

// Floats exposes the raw float payload for zero-copy fast paths (edge weight
// columns); nil for non-float columns.
func (c *Column) Floats() []float64 {
	if c.kind != graph.KindFloat {
		return nil
	}
	return c.floats
}

// Ints exposes the raw int payload; nil for non-int columns.
func (c *Column) Ints() []int64 {
	if c.kind != graph.KindInt {
		return nil
	}
	return c.ints
}

// RawInts exposes the shared int64 payload of every fixed-width int-family
// kind (int, vertex, edge); nil otherwise. Monomorphic kernels and frontier
// loops read it directly.
func (c *Column) RawInts() []int64 {
	switch c.kind {
	case graph.KindInt, graph.KindVertex, graph.KindEdge:
		return c.ints
	}
	return nil
}

// Strings exposes the raw string payload; nil for non-string columns.
func (c *Column) Strings() []string {
	if c.kind != graph.KindString {
		return nil
	}
	return c.strs
}

// Bools exposes the raw bool payload; nil for non-bool columns.
func (c *Column) Bools() []bool {
	if c.kind != graph.KindBool {
		return nil
	}
	return c.bools
}

// Set builds a column set from property definitions.
func Set(defs []graph.PropDef) []*Column {
	cols := make([]*Column, len(defs))
	for i, d := range defs {
		cols[i] = New(d.Kind)
	}
	return cols
}

// AppendRow appends one positional property row across a column set.
func AppendRow(cols []*Column, props []graph.Value) error {
	for i, c := range cols {
		var v graph.Value
		if i < len(props) {
			v = props[i]
		}
		if err := c.Append(v); err != nil {
			return err
		}
	}
	return nil
}
