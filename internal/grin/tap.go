package grin

import (
	"repro/internal/graph"
	"repro/internal/storage/column"
)

// Site enumerates the GRIN call sites a tap interposes on — the only such
// enumeration in the tree: fault schedules (storage/chaos), call profiles
// (storage/meter, obsv.StoreStats) and span names all speak it. The scalar
// per-row sites come first, then the batch sites the vectorized runtime
// lands on (the label-segmented pair last), then the typed-column
// refinements of the two property gathers.
type Site uint8

const (
	SiteDegree Site = iota
	SiteNeighbors
	SiteAdjSlice
	SiteVertexProp
	SiteEdgeProp
	SiteEdgeWeight
	SiteLookupVertex
	SiteLabelRange
	SiteScanVertices
	SiteExpandBatch
	SiteGatherVProp
	SiteGatherEProp
	SiteGatherVLabels
	SiteGatherELabels
	SiteScanBatch
	SiteExpandLabelBatch
	SiteLabelDegrees
	// SiteGatherVPropCol and SiteGatherEPropCol are BatchPropsCol's typed
	// forms of SiteGatherVProp and SiteGatherEProp (Site.Typed).
	SiteGatherVPropCol
	SiteGatherEPropCol
	// NumSites sizes per-site arrays.
	NumSites
)

// sites is the one table behind Site.String and Site.Trait: the trait
// method's name and the trait that serves it.
var sites = [NumSites]struct {
	name  string
	trait Trait
}{
	SiteDegree:           {"Degree", TraitTopology},
	SiteNeighbors:        {"Neighbors", TraitTopology},
	SiteAdjSlice:         {"AdjSlice", TraitAdjArray},
	SiteVertexProp:       {"VertexProp", TraitProperty},
	SiteEdgeProp:         {"EdgeProp", TraitProperty},
	SiteEdgeWeight:       {"EdgeWeight", TraitWeight},
	SiteLookupVertex:     {"LookupVertex", TraitIndex},
	SiteLabelRange:       {"LabelRange", TraitIndex},
	SiteScanVertices:     {"ScanVertices", TraitPredicate},
	SiteExpandBatch:      {"ExpandBatch", TraitBatchAdjacency},
	SiteGatherVProp:      {"GatherVertexProp", TraitBatchProps},
	SiteGatherEProp:      {"GatherEdgeProp", TraitBatchProps},
	SiteGatherVLabels:    {"GatherVertexLabels", TraitBatchProps},
	SiteGatherELabels:    {"GatherEdgeLabels", TraitBatchProps},
	SiteScanBatch:        {"ScanBatch", TraitBatchScan},
	SiteExpandLabelBatch: {"ExpandLabelBatch", TraitLabelAdjacency},
	SiteLabelDegrees:     {"LabelDegrees", TraitLabelAdjacency},
	SiteGatherVPropCol:   {"GatherVertexPropCol", TraitBatchProps},
	SiteGatherEPropCol:   {"GatherEdgePropCol", TraitBatchProps},
}

// String returns the name of the trait method the site stands for.
func (s Site) String() string {
	if s < NumSites {
		return sites[s].name
	}
	return "Site(?)"
}

// Trait returns the trait whose method the site is.
func (s Site) Trait() Trait { return sites[s].trait }

// Batch reports whether the site is one of the vectorized traits
// (BatchAdjacency/BatchProps/BatchScan) as opposed to a per-row scalar site.
func (s Site) Batch() bool { return s >= SiteExpandBatch }

// Typed reports whether the site is a typed-column gather: an optional
// refinement whose every caller keeps the boxed site as its fallback.
func (s Site) Typed() bool { return s >= SiteGatherVPropCol }

// Declined is the row count After receives for a call the store declined (a
// typed-column gather today; a LabelAdjacency store always serves): the
// fallback call that follows is the one that did the work.
const Declined = -1

// Hook is what a tap calls around every site. Hooks are shared by all
// goroutines of a query and by every Snapshot of the tapped store.
type Hook interface {
	// Before runs ahead of the store call. It may panic (an injected fault
	// travels that way through the errorless traits) or sleep. token comes
	// back to After unchanged — a span hook's start time; hooks without
	// per-call state return 0. degrade asks for the site's legal lesser
	// path: ScanBatch fills half the buffer, and a typed gather or a
	// LabelAdjacency call declines to the caller's fallback without reaching
	// the store (it gets no After). Other sites ignore it.
	Before(s Site) (token int64, degrade bool)
	// After runs once the store call returned. rows is 1 at the scalar
	// sites, the adjacency returned by AdjSlice and ExpandBatch, the IDs
	// handed to a gather, the vertices ScanBatch filled or LabelDegrees
	// measured, the adjacency ExpandLabelBatch returned, or Declined.
	After(s Site, token int64, rows int)
}

// tap is the one GRIN forwarding wrapper: every trait method is forwarded
// here and nowhere else, so a new trait is one forwarder and one Site row.
// Its method set covers every trait whatever the inner store offers;
// HasTrait masks it down to the inner store's real capabilities.
type tap struct {
	inner Graph
	name  string
	hook  Hook

	// The inner store's traits, asserted once; nil when absent.
	adj   AdjArray
	props PropertyReader
	wts   WeightReader
	idx   Index
	pred  PredicatePush
	part  Partitioned
	vers  Versioned
	badj  BatchAdjacency
	bprop BatchProps
	bcol  BatchPropsCol
	bscan BatchScan
	ladj  LabelAdjacency
}

// Tap returns a view of inner that calls hook around every Site and is
// otherwise indistinguishable from inner: the same traits (TraitMasker), the
// same results, Snapshots tapped by the same hook. name prefixes the
// backend name: Tap(vineyard, "meter", h) is "meter(vineyard)".
func Tap(inner Graph, name string, hook Hook) Graph {
	t := &tap{inner: inner, name: name, hook: hook}
	t.adj, _ = AsAdjArray(inner)
	t.props, _ = AsPropertyReader(inner)
	t.wts, _ = AsWeightReader(inner)
	t.idx, _ = AsIndex(inner)
	t.pred, _ = AsPredicatePush(inner)
	t.part, _ = AsPartitioned(inner)
	t.vers, _ = AsVersioned(inner)
	t.badj, _ = AsBatchAdjacency(inner)
	t.bprop, _ = AsBatchProps(inner)
	t.bcol, _ = AsBatchPropsCol(inner)
	t.bscan, _ = AsBatchScan(inner)
	t.ladj, _ = AsLabelAdjacency(inner)
	return t
}

// HasTrait implements TraitMasker: the inner store's capability set.
func (t *tap) HasTrait(tr Trait) bool { return Has(t.inner, tr) }

// BackendName implements Named.
func (t *tap) BackendName() string { return t.name + "(" + BackendName(t.inner) + ")" }

// Graph. The O(1) metadata getters the optimizer calls freely are not sites.

func (t *tap) NumVertices() int { return t.inner.NumVertices() }

func (t *tap) NumEdges() int { return t.inner.NumEdges() }

func (t *tap) Degree(v graph.VID, dir graph.Direction) int {
	tok, _ := t.hook.Before(SiteDegree)
	d := t.inner.Degree(v, dir)
	t.hook.After(SiteDegree, tok, 1)
	return d
}

func (t *tap) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	tok, _ := t.hook.Before(SiteNeighbors)
	t.inner.Neighbors(v, dir, yield)
	t.hook.After(SiteNeighbors, tok, 1)
}

// AdjArray.

func (t *tap) AdjSlice(v graph.VID, dir graph.Direction) []Target {
	tok, _ := t.hook.Before(SiteAdjSlice)
	ts := t.adj.AdjSlice(v, dir)
	t.hook.After(SiteAdjSlice, tok, len(ts))
	return ts
}

// PropertyReader. Schema is metadata, and label reads cannot fail or take a
// slow path on their own in any store.

func (t *tap) Schema() *graph.Schema { return t.props.Schema() }

func (t *tap) VertexLabel(v graph.VID) graph.LabelID { return t.props.VertexLabel(v) }

func (t *tap) EdgeLabel(e graph.EID) graph.LabelID { return t.props.EdgeLabel(e) }

func (t *tap) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	tok, _ := t.hook.Before(SiteVertexProp)
	val, ok := t.props.VertexProp(v, p)
	t.hook.After(SiteVertexProp, tok, 1)
	return val, ok
}

func (t *tap) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	tok, _ := t.hook.Before(SiteEdgeProp)
	val, ok := t.props.EdgeProp(e, p)
	t.hook.After(SiteEdgeProp, tok, 1)
	return val, ok
}

// WeightReader.

func (t *tap) EdgeWeight(e graph.EID) float64 {
	tok, _ := t.hook.Before(SiteEdgeWeight)
	w := t.wts.EdgeWeight(e)
	t.hook.After(SiteEdgeWeight, tok, 1)
	return w
}

// Index.

func (t *tap) ExternalID(v graph.VID) int64 { return t.idx.ExternalID(v) }

func (t *tap) LookupVertex(label graph.LabelID, extID int64) (graph.VID, bool) {
	tok, _ := t.hook.Before(SiteLookupVertex)
	v, ok := t.idx.LookupVertex(label, extID)
	t.hook.After(SiteLookupVertex, tok, 1)
	return v, ok
}

func (t *tap) LabelRange(label graph.LabelID) (lo, hi graph.VID, ok bool) {
	tok, _ := t.hook.Before(SiteLabelRange)
	lo, hi, ok = t.idx.LabelRange(label)
	t.hook.After(SiteLabelRange, tok, 1)
	return lo, hi, ok
}

// PredicatePush.

func (t *tap) ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	tok, _ := t.hook.Before(SiteScanVertices)
	t.pred.ScanVertices(label, pred, yield)
	t.hook.After(SiteScanVertices, tok, 1)
}

// Partitioned: fragment metadata, no site.

func (t *tap) Fragment() (id, total int) { return t.part.Fragment() }

func (t *tap) IsInner(v graph.VID) bool { return t.part.IsInner(v) }

func (t *tap) Owner(v graph.VID) int { return t.part.Owner(v) }

func (t *tap) GlobalID(v graph.VID) graph.VID { return t.part.GlobalID(v) }

// Versioned.

func (t *tap) ReadVersion() uint64 { return t.vers.ReadVersion() }

// Snapshot taps the view a query actually reads with the same hook, so a
// fault schedule keeps firing on it and its calls land in the same profile.
func (t *tap) Snapshot(version uint64) Graph {
	return Tap(t.vers.Snapshot(version), t.name, t.hook)
}

// BatchAdjacency.

func (t *tap) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *AdjBatch) {
	tok, _ := t.hook.Before(SiteExpandBatch)
	t.badj.ExpandBatch(frontier, dir, out)
	t.hook.After(SiteExpandBatch, tok, len(out.Nbrs))
}

// BatchProps.

func (t *tap) GatherVertexProp(vs []graph.VID, prop string, out []graph.Value) {
	tok, _ := t.hook.Before(SiteGatherVProp)
	t.bprop.GatherVertexProp(vs, prop, out)
	t.hook.After(SiteGatherVProp, tok, len(vs))
}

func (t *tap) GatherEdgeProp(es []graph.EID, prop string, out []graph.Value) {
	tok, _ := t.hook.Before(SiteGatherEProp)
	t.bprop.GatherEdgeProp(es, prop, out)
	t.hook.After(SiteGatherEProp, tok, len(es))
}

func (t *tap) GatherVertexLabels(vs []graph.VID, out []graph.LabelID) {
	tok, _ := t.hook.Before(SiteGatherVLabels)
	t.bprop.GatherVertexLabels(vs, out)
	t.hook.After(SiteGatherVLabels, tok, len(vs))
}

func (t *tap) GatherEdgeLabels(es []graph.EID, out []graph.LabelID) {
	tok, _ := t.hook.Before(SiteGatherELabels)
	t.bprop.GatherEdgeLabels(es, out)
	t.hook.After(SiteGatherELabels, tok, len(es))
}

// BatchPropsCol. Over a store without the trait the tap declines like the
// store's absence would: no site, no hook, the caller gathers boxed.

func (t *tap) GatherVertexPropCol(vs []graph.VID, prop string, dst *column.Column) bool {
	if t.bcol == nil {
		return false
	}
	tok, decline := t.hook.Before(SiteGatherVPropCol)
	if decline {
		return false
	}
	ok := t.bcol.GatherVertexPropCol(vs, prop, dst)
	t.hook.After(SiteGatherVPropCol, tok, servedRows(ok, len(vs)))
	return ok
}

func (t *tap) GatherEdgePropCol(es []graph.EID, prop string, dst *column.Column) bool {
	if t.bcol == nil {
		return false
	}
	tok, decline := t.hook.Before(SiteGatherEPropCol)
	if decline {
		return false
	}
	ok := t.bcol.GatherEdgePropCol(es, prop, dst)
	t.hook.After(SiteGatherEPropCol, tok, servedRows(ok, len(es)))
	return ok
}

func servedRows(served bool, n int) int {
	if served {
		return n
	}
	return Declined
}

// BatchScan. A degraded scan gets half the caller's buffer — legal under the
// trait contract (fill *up to* len(buf), return a resume cursor), so a
// correct runtime streams the same vertex sequence in more, smaller chunks.

func (t *tap) ScanBatch(label graph.LabelID, start graph.VID, buf []graph.VID) (int, graph.VID) {
	tok, short := t.hook.Before(SiteScanBatch)
	if short && len(buf) > 1 {
		buf = buf[:(len(buf)+1)/2]
	}
	n, next := t.bscan.ScanBatch(label, start, buf)
	t.hook.After(SiteScanBatch, tok, n)
	return n, next
}

// LabelAdjacency. A hook's degrade declines the call, so the caller's
// unlabelled fallback — ExpandBatch, GatherEdgeLabels, Degree — runs through
// this tap's own sites instead.

func (t *tap) ExpandLabelBatch(frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out *AdjBatch) bool {
	tok, decline := t.hook.Before(SiteExpandLabelBatch)
	if decline {
		return false
	}
	ok := t.ladj.ExpandLabelBatch(frontier, dir, elabel, out)
	t.hook.After(SiteExpandLabelBatch, tok, servedRows(ok, len(out.Nbrs)))
	return ok
}

func (t *tap) LabelDegrees(frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out []int) bool {
	tok, decline := t.hook.Before(SiteLabelDegrees)
	if decline {
		return false
	}
	ok := t.ladj.LabelDegrees(frontier, dir, elabel, out)
	t.hook.After(SiteLabelDegrees, tok, servedRows(ok, len(frontier)))
	return ok
}
