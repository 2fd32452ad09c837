// Package tracegraph is the benchmark-owned GRIN wrapper of the traced run:
// it delegates every trait call to the inner store and records a span — name,
// start, end, rows — around each of the 15 call sites that
// internal/storage/chaos and internal/storage/meter enumerate, plus the two
// typed-column gathers.
//
// The wrapper must not change the path a query takes. Like meter it masks
// its method set down to the inner store's traits (grin.TraitMasker); unlike
// meter it also forwards grin.BatchPropsCol, so a store with typed-column
// gathers keeps them when wrapped and the traced run measures the same path
// as the timed one.
package tracegraph

import (
	"repro/benchmark/span"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/column"
)

// prefix starts the name of every store-trait span.
const prefix = "store/"

// Site names, aligned with chaos/meter; the last two are the typed-column
// gathers.
const (
	Degree              = prefix + "Degree"
	Neighbors           = prefix + "Neighbors"
	AdjSlice            = prefix + "AdjSlice"
	VertexProp          = prefix + "VertexProp"
	EdgeProp            = prefix + "EdgeProp"
	EdgeWeight          = prefix + "EdgeWeight"
	LookupVertex        = prefix + "LookupVertex"
	LabelRange          = prefix + "LabelRange"
	ScanVertices        = prefix + "ScanVertices"
	ExpandBatch         = prefix + "ExpandBatch"
	GatherVertexProp    = prefix + "GatherVertexProp"
	GatherEdgeProp      = prefix + "GatherEdgeProp"
	GatherVertexLabels  = prefix + "GatherVertexLabels"
	GatherEdgeLabels    = prefix + "GatherEdgeLabels"
	ScanBatch           = prefix + "ScanBatch"
	GatherVertexPropCol = prefix + "GatherVertexPropCol"
	GatherEdgePropCol   = prefix + "GatherEdgePropCol"
)

// ScalarSites are the per-row call sites, BatchSites the vectorized ones.
var (
	ScalarSites = []string{Degree, Neighbors, AdjSlice, VertexProp, EdgeProp, EdgeWeight, LookupVertex, LabelRange, ScanVertices}
	BatchSites  = []string{ExpandBatch, GatherVertexProp, GatherEdgeProp, GatherVertexLabels, GatherEdgeLabels, ScanBatch, GatherVertexPropCol, GatherEdgePropCol}
)

// Graph wraps an inner GRIN backend with span recording.
type Graph struct {
	inner grin.Graph
	rec   *span.Recorder

	// Pre-asserted optional traits of the inner store; nil when absent.
	adj   grin.AdjArray
	props grin.PropertyReader
	wts   grin.WeightReader
	idx   grin.Index
	pred  grin.PredicatePush
	part  grin.Partitioned
	vers  grin.Versioned
	badj  grin.BatchAdjacency
	bprop grin.BatchProps
	bcol  grin.BatchPropsCol
	bscan grin.BatchScan
}

var (
	_ grin.TraitMasker   = (*Graph)(nil)
	_ grin.BatchPropsCol = (*Graph)(nil)
)

// Wrap builds a tracing view of inner recording into rec.
func Wrap(inner grin.Graph, rec *span.Recorder) *Graph {
	g := &Graph{inner: inner, rec: rec}
	g.adj, _ = grin.AsAdjArray(inner)
	g.props, _ = grin.AsPropertyReader(inner)
	g.wts, _ = grin.AsWeightReader(inner)
	g.idx, _ = grin.AsIndex(inner)
	g.pred, _ = grin.AsPredicatePush(inner)
	g.part, _ = grin.AsPartitioned(inner)
	g.vers, _ = grin.AsVersioned(inner)
	g.badj, _ = grin.AsBatchAdjacency(inner)
	g.bprop, _ = grin.AsBatchProps(inner)
	g.bcol, _ = grin.AsBatchPropsCol(inner)
	g.bscan, _ = grin.AsBatchScan(inner)
	return g
}

// HasTrait reports the inner store's capability set (grin.TraitMasker).
func (g *Graph) HasTrait(t grin.Trait) bool { return grin.Has(g.inner, t) }

// BackendName identifies the wrapper and its inner store.
func (g *Graph) BackendName() string {
	name := "unknown"
	if n, ok := g.inner.(grin.Named); ok {
		name = n.BackendName()
	}
	return "trace(" + name + ")"
}

// begin opens a span and end closes it under its site name and row count.
func (g *Graph) begin() (lane int, start int64) { return g.rec.Lane(), span.Now() }

func (g *Graph) end(site string, lane int, start int64, rows int) {
	g.rec.Add(site, start, span.Now(), lane, int64(rows))
}

// NumVertices delegates (metadata; not a traced site, matching chaos).
func (g *Graph) NumVertices() int { return g.inner.NumVertices() }

// NumEdges delegates.
func (g *Graph) NumEdges() int { return g.inner.NumEdges() }

// Degree delegates with a span.
func (g *Graph) Degree(v graph.VID, dir graph.Direction) int {
	lane, t0 := g.begin()
	d := g.inner.Degree(v, dir)
	g.end(Degree, lane, t0, 1)
	return d
}

// Neighbors delegates with a span.
func (g *Graph) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	lane, t0 := g.begin()
	g.inner.Neighbors(v, dir, yield)
	g.end(Neighbors, lane, t0, 1)
}

// AdjSlice delegates with a span.
func (g *Graph) AdjSlice(v graph.VID, dir graph.Direction) []grin.Target {
	lane, t0 := g.begin()
	ts := g.adj.AdjSlice(v, dir)
	g.end(AdjSlice, lane, t0, len(ts))
	return ts
}

// Schema delegates (metadata).
func (g *Graph) Schema() *graph.Schema { return g.props.Schema() }

// VertexLabel delegates (label reads are not a chaos/meter site).
func (g *Graph) VertexLabel(v graph.VID) graph.LabelID { return g.props.VertexLabel(v) }

// VertexProp delegates with a span.
func (g *Graph) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	lane, t0 := g.begin()
	val, ok := g.props.VertexProp(v, p)
	g.end(VertexProp, lane, t0, 1)
	return val, ok
}

// EdgeLabel delegates.
func (g *Graph) EdgeLabel(e graph.EID) graph.LabelID { return g.props.EdgeLabel(e) }

// EdgeProp delegates with a span.
func (g *Graph) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	lane, t0 := g.begin()
	val, ok := g.props.EdgeProp(e, p)
	g.end(EdgeProp, lane, t0, 1)
	return val, ok
}

// EdgeWeight delegates with a span.
func (g *Graph) EdgeWeight(e graph.EID) float64 {
	lane, t0 := g.begin()
	w := g.wts.EdgeWeight(e)
	g.end(EdgeWeight, lane, t0, 1)
	return w
}

// LookupVertex delegates with a span.
func (g *Graph) LookupVertex(label graph.LabelID, extID int64) (graph.VID, bool) {
	lane, t0 := g.begin()
	v, ok := g.idx.LookupVertex(label, extID)
	g.end(LookupVertex, lane, t0, 1)
	return v, ok
}

// ExternalID delegates.
func (g *Graph) ExternalID(v graph.VID) int64 { return g.idx.ExternalID(v) }

// LabelRange delegates with a span.
func (g *Graph) LabelRange(label graph.LabelID) (lo, hi graph.VID, ok bool) {
	lane, t0 := g.begin()
	lo, hi, ok = g.idx.LabelRange(label)
	g.end(LabelRange, lane, t0, 1)
	return lo, hi, ok
}

// ScanVertices delegates with a span.
func (g *Graph) ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	lane, t0 := g.begin()
	g.pred.ScanVertices(label, pred, yield)
	g.end(ScanVertices, lane, t0, 1)
}

// Fragment delegates.
func (g *Graph) Fragment() (id, total int) { return g.part.Fragment() }

// IsInner delegates.
func (g *Graph) IsInner(v graph.VID) bool { return g.part.IsInner(v) }

// Owner delegates.
func (g *Graph) Owner(v graph.VID) int { return g.part.Owner(v) }

// GlobalID delegates.
func (g *Graph) GlobalID(v graph.VID) graph.VID { return g.part.GlobalID(v) }

// ReadVersion delegates.
func (g *Graph) ReadVersion() uint64 { return g.vers.ReadVersion() }

// Snapshot traces the snapshot too, into the same recorder.
func (g *Graph) Snapshot(version uint64) grin.Graph {
	return Wrap(g.vers.Snapshot(version), g.rec)
}

// ExpandBatch delegates with a span; rows is the adjacency it returned.
func (g *Graph) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	lane, t0 := g.begin()
	g.badj.ExpandBatch(frontier, dir, out)
	g.end(ExpandBatch, lane, t0, len(out.Nbrs))
}

// GatherVertexProp delegates with a span.
func (g *Graph) GatherVertexProp(vs []graph.VID, prop string, out []graph.Value) {
	lane, t0 := g.begin()
	g.bprop.GatherVertexProp(vs, prop, out)
	g.end(GatherVertexProp, lane, t0, len(vs))
}

// GatherEdgeProp delegates with a span.
func (g *Graph) GatherEdgeProp(es []graph.EID, prop string, out []graph.Value) {
	lane, t0 := g.begin()
	g.bprop.GatherEdgeProp(es, prop, out)
	g.end(GatherEdgeProp, lane, t0, len(es))
}

// GatherVertexLabels delegates with a span.
func (g *Graph) GatherVertexLabels(vs []graph.VID, out []graph.LabelID) {
	lane, t0 := g.begin()
	g.bprop.GatherVertexLabels(vs, out)
	g.end(GatherVertexLabels, lane, t0, len(vs))
}

// GatherEdgeLabels delegates with a span.
func (g *Graph) GatherEdgeLabels(es []graph.EID, out []graph.LabelID) {
	lane, t0 := g.begin()
	g.bprop.GatherEdgeLabels(es, out)
	g.end(GatherEdgeLabels, lane, t0, len(es))
}

// GatherVertexPropCol forwards the typed-column gather, reporting false —
// the caller's boxed fallback — when the inner store lacks it. A gather the
// store declines is recorded under its own name: the boxed gather that
// follows it is the call that did the work.
func (g *Graph) GatherVertexPropCol(vs []graph.VID, prop string, dst *column.Column) bool {
	if g.bcol == nil {
		return false
	}
	lane, t0 := g.begin()
	ok := g.bcol.GatherVertexPropCol(vs, prop, dst)
	g.end(colSite(GatherVertexPropCol, ok), lane, t0, len(vs))
	return ok
}

// GatherEdgePropCol is GatherVertexPropCol for edge columns.
func (g *Graph) GatherEdgePropCol(es []graph.EID, prop string, dst *column.Column) bool {
	if g.bcol == nil {
		return false
	}
	lane, t0 := g.begin()
	ok := g.bcol.GatherEdgePropCol(es, prop, dst)
	g.end(colSite(GatherEdgePropCol, ok), lane, t0, len(es))
	return ok
}

func colSite(site string, ok bool) string {
	if ok {
		return site
	}
	return site + "(declined)"
}

// ScanBatch delegates with a span; rows is the vertices it filled.
func (g *Graph) ScanBatch(label graph.LabelID, start graph.VID, buf []graph.VID) (int, graph.VID) {
	lane, t0 := g.begin()
	n, next := g.bscan.ScanBatch(label, start, buf)
	g.end(ScanBatch, lane, t0, n)
	return n, next
}
