// Package grin is the Graph Retrieval INterface (§4.1): a trait-segregated
// contract between storage backends and execution engines. A backend
// implements the traits that are feasible for its design; an engine declares
// which traits it requires and which it merely exploits when present.
//
// The paper defines GRIN in C for portability; in Go the natural equivalent
// is a family of small interfaces plus runtime capability discovery via type
// assertion. A missing required trait is a typed error (ErrMissingTrait), never
// a panic: Require checks a live store as an engine starts. Before any store
// exists, flexbuild checks the traits an engine declares — and `flexlint
// -plans` the traits a compiled plan's stages require (exec.Compiled.Requires)
// — against the one static capability table (internal/core), which a test
// pins against Traits of live instances of every backend.
//
// Trait categories mirror Fig 4:
//
//   - topology  — Graph (vertex/edge counts, degrees, neighbor iteration)
//   - topology  — AdjArray (zero-copy array access for CSR-like stores)
//   - property  — PropertyReader / WeightReader / schema access
//   - partition — Partitioned (fragment metadata for distributed stores)
//   - index     — Index (external-ID and label lookups)
//   - predicate — PredicatePush (filtered scans evaluated inside the store)
//   - common    — Versioned (MVCC snapshots), Named (backend identity)
//   - batch     — BatchAdjacency / BatchProps / BatchScan (bulk access the
//     vectorized runtime consumes; every one has a generic fallback in
//     helpers.go, so they are pure fast paths)
//   - layout    — LabelAdjacency (stores that segment each adjacency by edge
//     label answer a labelled hop from that label's slots alone, and a
//     labelled degree without touching a slot)
//
// Tap (tap.go) is the one wrapper that forwards all of them: fault
// injection, call metering and span timing are Hooks it calls around each
// Site, never wrappers of their own.
package grin

import (
	"fmt"

	"repro/internal/graph"
)

// Graph is the core topology trait every backend must provide. Neighbor
// iteration is callback-based (the iterator trait of Fig 4a); stores with
// contiguous adjacency additionally implement AdjArray.
type Graph interface {
	// NumVertices returns the number of vertices in this (fragment of the)
	// graph. Internal IDs are dense in [0, NumVertices).
	NumVertices() int
	// NumEdges returns the number of directed edges.
	NumEdges() int
	// Degree returns the number of neighbors of v in the given direction.
	Degree(v graph.VID, dir graph.Direction) int
	// Neighbors calls yield for each neighbor of v in the given direction,
	// stopping early if yield returns false. The edge ID indexes edge
	// property columns.
	Neighbors(v graph.VID, dir graph.Direction, yield func(nbr graph.VID, e graph.EID) bool)
}

// Target pairs a neighbor with the connecting edge in array-trait access.
type Target struct {
	Nbr  graph.VID
	Edge graph.EID
}

// AdjArray is the array-like adjacency trait: stores whose adjacency is
// contiguous (CSR/CSC) expose it zero-copy. Engines use it for cache-friendly
// tight loops (PageRank inner loop, frontier expansion).
type AdjArray interface {
	// AdjSlice returns the adjacency of v as a slice valid until the next
	// mutation of the store (immutable stores: forever; MVCC stores: for the
	// lifetime of the snapshot).
	AdjSlice(v graph.VID, dir graph.Direction) []Target
}

// PropertyReader is the property trait for labeled property graphs.
type PropertyReader interface {
	// Schema returns the label catalog.
	Schema() *graph.Schema
	// VertexLabel returns the label of v.
	VertexLabel(v graph.VID) graph.LabelID
	// VertexProp returns property p of v; ok is false if absent or NULL.
	VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool)
	// EdgeLabel returns the label of e.
	EdgeLabel(e graph.EID) graph.LabelID
	// EdgeProp returns property p of e; ok is false if absent or NULL.
	EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool)
}

// WeightReader is a fast-path property trait for weighted-graph analytics:
// it avoids Value boxing in inner loops (SSSP, equity propagation).
type WeightReader interface {
	// EdgeWeight returns the weight of e (1.0 when the graph is unweighted).
	EdgeWeight(e graph.EID) float64
}

// Index is the index trait: external-ID resolution and per-label vertex
// ranges. Backends with contiguous per-label ID assignment return ranges in
// O(1); others may scan.
type Index interface {
	// LookupVertex resolves an external ID within a label to an internal ID.
	LookupVertex(label graph.LabelID, extID int64) (graph.VID, bool)
	// ExternalID returns the external ID of an internal vertex.
	ExternalID(v graph.VID) int64
	// LabelRange returns the contiguous internal-ID range [lo, hi) holding
	// all vertices of the label, with ok=false when the store does not
	// assign per-label contiguous IDs (dynamic stores). For AnyLabel it
	// returns the whole range.
	LabelRange(label graph.LabelID) (lo, hi graph.VID, ok bool)
}

// PredicatePush is the predicate trait: the store evaluates a vertex
// predicate during the scan, letting FilterPushIntoMatch (§5.2) push work
// below the engine.
type PredicatePush interface {
	// ScanVertices calls yield for every vertex of the label satisfying
	// pred, stopping early if yield returns false. pred may be nil (match
	// all). label may be AnyLabel.
	ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool)
}

// Partitioned is the partition trait implemented by fragments of a
// distributed graph.
type Partitioned interface {
	// Fragment returns this fragment's index and the total fragment count.
	Fragment() (id, total int)
	// IsInner reports whether v is owned by this fragment (an inner vertex)
	// as opposed to a mirrored boundary (outer) vertex.
	IsInner(v graph.VID) bool
	// Owner returns the fragment owning v.
	Owner(v graph.VID) int
	// GlobalID maps a fragment-local ID to the global vertex ID space.
	GlobalID(v graph.VID) graph.VID
}

// Versioned is the common trait of MVCC stores: readers pin a consistent
// snapshot identified by a version.
type Versioned interface {
	// ReadVersion returns the newest fully-committed version.
	ReadVersion() uint64
	// Snapshot returns a consistent read-only view at the version. The view
	// implements Graph and whatever read traits the store supports.
	Snapshot(version uint64) Graph
}

// Named identifies a backend for logging and flexbuild manifests.
type Named interface {
	// BackendName returns a stable backend identifier ("vineyard", "gart",
	// "graphar", "livegraph", "csr").
	BackendName() string
}

// Trait enumerates discoverable traits for capability reporting.
type Trait uint8

const (
	TraitTopology Trait = iota
	TraitAdjArray
	TraitProperty
	TraitWeight
	TraitIndex
	TraitPredicate
	TraitPartition
	TraitVersioned
	TraitBatchAdjacency
	TraitBatchProps
	TraitBatchScan
	TraitLabelAdjacency
	numTraits
)

// String returns the trait name used in error messages and manifests.
func (t Trait) String() string {
	switch t {
	case TraitTopology:
		return "topology"
	case TraitAdjArray:
		return "adj_array"
	case TraitProperty:
		return "property"
	case TraitWeight:
		return "weight"
	case TraitIndex:
		return "index"
	case TraitPredicate:
		return "predicate"
	case TraitPartition:
		return "partition"
	case TraitVersioned:
		return "versioned"
	case TraitBatchAdjacency:
		return "batch_adjacency"
	case TraitBatchProps:
		return "batch_props"
	case TraitBatchScan:
		return "batch_scan"
	case TraitLabelAdjacency:
		return "label_adjacency"
	}
	return fmt.Sprintf("trait(%d)", uint8(t))
}

// TraitMasker is implemented by wrapping backends (Tap; future
// remote-fragment proxies) whose Go method set is wider than the store they
// wrap: HasTrait reports the capability set of the *inner* store, so
// capability discovery through Has/As* stays honest. A wrapper over a
// topology-only store must not advertise property traits just because its
// wrapper type has the methods.
type TraitMasker interface {
	// HasTrait reports whether the trait is really available.
	HasTrait(t Trait) bool
}

// Has reports whether g provides the trait, by type assertion — or, for
// masking wrappers, by asking the wrapper.
func Has(g Graph, t Trait) bool {
	if m, ok := g.(TraitMasker); ok {
		return m.HasTrait(t)
	}
	return hasByAssertion(g, t)
}

func hasByAssertion(g Graph, t Trait) bool {
	switch t {
	case TraitTopology:
		return g != nil
	case TraitAdjArray:
		_, ok := g.(AdjArray)
		return ok
	case TraitProperty:
		_, ok := g.(PropertyReader)
		return ok
	case TraitWeight:
		_, ok := g.(WeightReader)
		return ok
	case TraitIndex:
		_, ok := g.(Index)
		return ok
	case TraitPredicate:
		_, ok := g.(PredicatePush)
		return ok
	case TraitPartition:
		_, ok := g.(Partitioned)
		return ok
	case TraitVersioned:
		_, ok := g.(Versioned)
		return ok
	case TraitBatchAdjacency:
		_, ok := g.(BatchAdjacency)
		return ok
	case TraitBatchProps:
		_, ok := g.(BatchProps)
		return ok
	case TraitBatchScan:
		_, ok := g.(BatchScan)
		return ok
	case TraitLabelAdjacency:
		_, ok := g.(LabelAdjacency)
		return ok
	}
	return false
}

// Traits returns the full capability set of a backend, for manifests and the
// flexbuild compatibility check.
func Traits(g Graph) []Trait {
	var ts []Trait
	for t := Trait(0); t < numTraits; t++ {
		if Has(g, t) {
			ts = append(ts, t)
		}
	}
	return ts
}

// ErrMissingTrait reports an engine/backend capability mismatch.
type ErrMissingTrait struct {
	Backend string
	Trait   Trait
	Engine  string
}

// Error implements error.
func (e *ErrMissingTrait) Error() string {
	return fmt.Sprintf("grin: backend %q does not provide trait %q required by %s",
		e.Backend, e.Trait, e.Engine)
}

// The As* accessors are the canonical way runtime code discovers optional
// traits: a plain type assertion on a masking wrapper (TraitMasker) would
// see the wrapper's full method set and call into a capability the inner
// store lacks. Each accessor answers (impl, true) only when the trait is
// genuinely available. The trait assertion runs first so the common case — a
// concrete backend that is not a masker — costs the same single assertion a
// direct type switch would; the masker consultation happens only on success.

// unmasked reports whether a graph whose method set provides t really offers
// it: true for plain backends, the wrapper's answer for TraitMaskers.
func unmasked(g Graph, t Trait) bool {
	m, ok := g.(TraitMasker)
	return !ok || m.HasTrait(t)
}

// AsAdjArray returns the zero-copy adjacency trait when available.
func AsAdjArray(g Graph) (AdjArray, bool) {
	aa, ok := g.(AdjArray)
	if !ok || !unmasked(g, TraitAdjArray) {
		return nil, false
	}
	return aa, true
}

// AsPropertyReader returns the property trait when available.
func AsPropertyReader(g Graph) (PropertyReader, bool) {
	pr, ok := g.(PropertyReader)
	if !ok || !unmasked(g, TraitProperty) {
		return nil, false
	}
	return pr, true
}

// AsWeightReader returns the weight trait when available.
func AsWeightReader(g Graph) (WeightReader, bool) {
	wr, ok := g.(WeightReader)
	if !ok || !unmasked(g, TraitWeight) {
		return nil, false
	}
	return wr, true
}

// AsIndex returns the index trait when available.
func AsIndex(g Graph) (Index, bool) {
	idx, ok := g.(Index)
	if !ok || !unmasked(g, TraitIndex) {
		return nil, false
	}
	return idx, true
}

// AsPredicatePush returns the predicate-pushdown trait when available.
func AsPredicatePush(g Graph) (PredicatePush, bool) {
	pp, ok := g.(PredicatePush)
	if !ok || !unmasked(g, TraitPredicate) {
		return nil, false
	}
	return pp, true
}

// AsPartitioned returns the partition trait when available.
func AsPartitioned(g Graph) (Partitioned, bool) {
	p, ok := g.(Partitioned)
	if !ok || !unmasked(g, TraitPartition) {
		return nil, false
	}
	return p, true
}

// AsVersioned returns the MVCC trait when available.
func AsVersioned(g Graph) (Versioned, bool) {
	v, ok := g.(Versioned)
	if !ok || !unmasked(g, TraitVersioned) {
		return nil, false
	}
	return v, true
}

// AsBatchAdjacency returns the batched adjacency trait when available.
func AsBatchAdjacency(g Graph) (BatchAdjacency, bool) {
	ba, ok := g.(BatchAdjacency)
	if !ok || !unmasked(g, TraitBatchAdjacency) {
		return nil, false
	}
	return ba, true
}

// AsBatchProps returns the batched property trait when available.
func AsBatchProps(g Graph) (BatchProps, bool) {
	bp, ok := g.(BatchProps)
	if !ok || !unmasked(g, TraitBatchProps) {
		return nil, false
	}
	return bp, true
}

// AsBatchScan returns the batched scan trait when available.
func AsBatchScan(g Graph) (BatchScan, bool) {
	bs, ok := g.(BatchScan)
	if !ok || !unmasked(g, TraitBatchScan) {
		return nil, false
	}
	return bs, true
}

// AsLabelAdjacency returns the label-segmented adjacency trait when
// available.
func AsLabelAdjacency(g Graph) (LabelAdjacency, bool) {
	la, ok := g.(LabelAdjacency)
	if !ok || !unmasked(g, TraitLabelAdjacency) {
		return nil, false
	}
	return la, true
}

// Require verifies that g provides every trait in required, returning an
// ErrMissingTrait for the first gap. engine names the requiring component.
func Require(g Graph, engine string, required ...Trait) error {
	for _, t := range required {
		if !Has(g, t) {
			return &ErrMissingTrait{Backend: BackendName(g), Trait: t, Engine: engine}
		}
	}
	return nil
}

// BackendName is g's Named identity, "unknown" for a store without one.
func BackendName(g Graph) string {
	if n, ok := g.(Named); ok {
		return n.BackendName()
	}
	return "unknown"
}
