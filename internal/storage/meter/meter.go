// Package meter is the instrumenting storage backend: a GRIN wrapper over
// any inner backend that delegates every trait call and counts the calls per
// site into an obsv.StoreStats. It is chaos's benign sibling — the same 15
// call sites internal/storage/chaos enumerates for fault injection, counted
// instead of sabotaged — so a fault schedule and a call profile always talk
// about the same surface.
//
// Like chaos, the wrapper's Go method set covers every GRIN trait regardless
// of what the inner store supports; HasTrait masks it down to the inner
// store's real capability set, so capability discovery through grin.Has and
// grin.As* stays honest. That masking is what makes fallback-vs-native
// observable: when the inner backend lacks a batch trait, grin's generic
// helpers take the scalar fallback *through the wrapper*, and the scalar
// site counters (Neighbors, VertexProp, ...) rise where a native backend
// would show batch calls (ExpandBatch, GatherVertexProp, ...). The
// StoreStats native flags record which regime each site was in.
//
// Counting is one atomic add per call with no locks and no maps, so a
// metered query stays safe for the engines' full parallelism and the counts
// merge deterministically regardless of worker schedule.
package meter

import (
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/obsv"
	"repro/internal/storage/column"
)

// Graph wraps an inner GRIN backend with call counting. Safe for concurrent
// use to the same degree the inner store is: the stats sink is atomic.
type Graph struct {
	inner grin.Graph
	stats *obsv.StoreStats

	// Pre-asserted optional traits of the inner store; nil when absent.
	// HasTrait masks the wrapper's method set down to what is non-nil.
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

var _ grin.BatchPropsCol = (*Graph)(nil)

// Wrap builds a metering view of inner counting into stats. A nil stats gets
// a fresh sink (read it back via Stats). Wrap also records the backend name
// and the native/fallback regime of every site into the sink.
func Wrap(inner grin.Graph, stats *obsv.StoreStats) *Graph {
	if stats == nil {
		stats = &obsv.StoreStats{}
	}
	g := &Graph{inner: inner, stats: stats}
	g.bind(inner)
	name := "unknown"
	if n, ok := inner.(grin.Named); ok {
		name = n.BackendName()
	}
	stats.SetBackend(name)
	stats.SetNative(obsv.StoreDegree, true)
	stats.SetNative(obsv.StoreNeighbors, true)
	stats.SetNative(obsv.StoreAdjSlice, g.adj != nil)
	stats.SetNative(obsv.StoreVertexProp, g.props != nil)
	stats.SetNative(obsv.StoreEdgeProp, g.props != nil)
	stats.SetNative(obsv.StoreEdgeWeight, g.wts != nil)
	stats.SetNative(obsv.StoreLookupVertex, g.idx != nil)
	stats.SetNative(obsv.StoreLabelRange, g.idx != nil)
	stats.SetNative(obsv.StoreScanVertices, g.pred != nil)
	stats.SetNative(obsv.StoreExpandBatch, g.badj != nil)
	stats.SetNative(obsv.StoreGatherVProp, g.bprop != nil)
	stats.SetNative(obsv.StoreGatherEProp, g.bprop != nil)
	stats.SetNative(obsv.StoreGatherVLabels, g.bprop != nil)
	stats.SetNative(obsv.StoreGatherELabels, g.bprop != nil)
	stats.SetNative(obsv.StoreScanBatch, g.bscan != nil)
	return g
}

func (g *Graph) bind(inner grin.Graph) {
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
}

// Inner returns the wrapped store.
func (g *Graph) Inner() grin.Graph { return g.inner }

// Stats returns the counter sink.
func (g *Graph) Stats() *obsv.StoreStats { return g.stats }

// HasTrait reports the *inner* store's capability set (grin.TraitMasker):
// the wrapper type has every trait method, but only the traits the wrapped
// store really provides are advertised.
func (g *Graph) HasTrait(t grin.Trait) bool { return grin.Has(g.inner, t) }

// BackendName identifies the wrapper and its inner store in logs/manifests.
func (g *Graph) BackendName() string {
	name := "unknown"
	if n, ok := g.inner.(grin.Named); ok {
		name = n.BackendName()
	}
	return "meter(" + name + ")"
}

// Graph (topology) — always present.

// NumVertices delegates (O(1) metadata; not a counted site, matching chaos).
func (g *Graph) NumVertices() int { return g.inner.NumVertices() }

// NumEdges delegates.
func (g *Graph) NumEdges() int { return g.inner.NumEdges() }

// Degree delegates with counting.
func (g *Graph) Degree(v graph.VID, dir graph.Direction) int {
	g.stats.Count(obsv.StoreDegree)
	return g.inner.Degree(v, dir)
}

// Neighbors delegates with counting.
func (g *Graph) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	g.stats.Count(obsv.StoreNeighbors)
	g.inner.Neighbors(v, dir, yield)
}

// AdjArray.

// AdjSlice delegates with counting.
func (g *Graph) AdjSlice(v graph.VID, dir graph.Direction) []grin.Target {
	g.stats.Count(obsv.StoreAdjSlice)
	return g.adj.AdjSlice(v, dir)
}

// PropertyReader.

// Schema delegates (metadata; not a counted site).
func (g *Graph) Schema() *graph.Schema { return g.props.Schema() }

// VertexLabel delegates (label reads cannot take an independent slow path).
func (g *Graph) VertexLabel(v graph.VID) graph.LabelID { return g.props.VertexLabel(v) }

// VertexProp delegates with counting.
func (g *Graph) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	g.stats.Count(obsv.StoreVertexProp)
	return g.props.VertexProp(v, p)
}

// EdgeLabel delegates.
func (g *Graph) EdgeLabel(e graph.EID) graph.LabelID { return g.props.EdgeLabel(e) }

// EdgeProp delegates with counting.
func (g *Graph) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	g.stats.Count(obsv.StoreEdgeProp)
	return g.props.EdgeProp(e, p)
}

// WeightReader.

// EdgeWeight delegates with counting.
func (g *Graph) EdgeWeight(e graph.EID) float64 {
	g.stats.Count(obsv.StoreEdgeWeight)
	return g.wts.EdgeWeight(e)
}

// Index.

// LookupVertex delegates with counting.
func (g *Graph) LookupVertex(label graph.LabelID, extID int64) (graph.VID, bool) {
	g.stats.Count(obsv.StoreLookupVertex)
	return g.idx.LookupVertex(label, extID)
}

// ExternalID delegates.
func (g *Graph) ExternalID(v graph.VID) int64 { return g.idx.ExternalID(v) }

// LabelRange delegates with counting.
func (g *Graph) LabelRange(label graph.LabelID) (lo, hi graph.VID, ok bool) {
	g.stats.Count(obsv.StoreLabelRange)
	return g.idx.LabelRange(label)
}

// PredicatePush.

// ScanVertices delegates with counting.
func (g *Graph) ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	g.stats.Count(obsv.StoreScanVertices)
	g.pred.ScanVertices(label, pred, yield)
}

// Partitioned.

// Fragment delegates.
func (g *Graph) Fragment() (id, total int) { return g.part.Fragment() }

// IsInner delegates.
func (g *Graph) IsInner(v graph.VID) bool { return g.part.IsInner(v) }

// Owner delegates.
func (g *Graph) Owner(v graph.VID) int { return g.part.Owner(v) }

// GlobalID delegates.
func (g *Graph) GlobalID(v graph.VID) graph.VID { return g.part.GlobalID(v) }

// Versioned.

// ReadVersion delegates.
func (g *Graph) ReadVersion() uint64 { return g.vers.ReadVersion() }

// Snapshot meters the snapshot too, sharing this wrapper's counter sink:
// the calls a query makes against its pinned view land in the same profile.
func (g *Graph) Snapshot(version uint64) grin.Graph {
	snap := g.vers.Snapshot(version)
	ng := &Graph{inner: snap, stats: g.stats}
	ng.bind(snap)
	return ng
}

// Batch traits.

// ExpandBatch delegates with counting.
func (g *Graph) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	g.stats.Count(obsv.StoreExpandBatch)
	g.badj.ExpandBatch(frontier, dir, out)
}

// GatherVertexProp delegates with counting.
func (g *Graph) GatherVertexProp(vs []graph.VID, prop string, out []graph.Value) {
	g.stats.Count(obsv.StoreGatherVProp)
	g.bprop.GatherVertexProp(vs, prop, out)
}

// GatherEdgeProp delegates with counting.
func (g *Graph) GatherEdgeProp(es []graph.EID, prop string, out []graph.Value) {
	g.stats.Count(obsv.StoreGatherEProp)
	g.bprop.GatherEdgeProp(es, prop, out)
}

// GatherVertexPropCol forwards the typed-column refinement of
// GatherVertexProp, so a metered store runs the same kernel path as the bare
// one. It reports false — the caller's boxed fallback — when the inner store
// lacks the trait or declines the gather. A served gather counts at the
// GatherVertexProp site (the same trait call in its typed form); a declined
// one counts nothing, the boxed call that follows does.
func (g *Graph) GatherVertexPropCol(vs []graph.VID, prop string, dst *column.Column) bool {
	if g.bcol == nil || !g.bcol.GatherVertexPropCol(vs, prop, dst) {
		return false
	}
	g.stats.Count(obsv.StoreGatherVProp)
	return true
}

// GatherEdgePropCol is GatherVertexPropCol for edge columns, counted at the
// GatherEdgeProp site.
func (g *Graph) GatherEdgePropCol(es []graph.EID, prop string, dst *column.Column) bool {
	if g.bcol == nil || !g.bcol.GatherEdgePropCol(es, prop, dst) {
		return false
	}
	g.stats.Count(obsv.StoreGatherEProp)
	return true
}

// GatherVertexLabels delegates with counting.
func (g *Graph) GatherVertexLabels(vs []graph.VID, out []graph.LabelID) {
	g.stats.Count(obsv.StoreGatherVLabels)
	g.bprop.GatherVertexLabels(vs, out)
}

// GatherEdgeLabels delegates with counting.
func (g *Graph) GatherEdgeLabels(es []graph.EID, out []graph.LabelID) {
	g.stats.Count(obsv.StoreGatherELabels)
	g.bprop.GatherEdgeLabels(es, out)
}

// ScanBatch delegates with counting.
func (g *Graph) ScanBatch(label graph.LabelID, start graph.VID, buf []graph.VID) (int, graph.VID) {
	g.stats.Count(obsv.StoreScanBatch)
	return g.bscan.ScanBatch(label, start, buf)
}
