package grin

import "repro/internal/graph"

// AdjBatch is the result arena of a batched frontier expansion, CSR-style:
// the neighbors of frontier vertex i occupy Nbrs[Off[i]:Off[i+1]], with the
// connecting edges parallel in Edges. Off always holds len(frontier)+1
// offsets with Off[0] == 0. Callers keep one AdjBatch per worker (or draw
// from a pool) and hand it to successive expansions; implementations
// overwrite it, reusing the backing arrays.
type AdjBatch struct {
	Off   []int
	Nbrs  []graph.VID
	Edges []graph.EID
}

// Reset empties the batch, keeping the arrays for reuse.
func (b *AdjBatch) Reset() {
	b.Off = b.Off[:0]
	b.Nbrs = b.Nbrs[:0]
	b.Edges = b.Edges[:0]
}

// Len returns the frontier size of the last expansion.
func (b *AdjBatch) Len() int {
	if len(b.Off) == 0 {
		return 0
	}
	return len(b.Off) - 1
}

// Range returns the [lo, hi) slot range of frontier vertex i.
func (b *AdjBatch) Range(i int) (lo, hi int) { return b.Off[i], b.Off[i+1] }

// Begin readies the batch for a frontier of n vertices and appends the
// leading 0 offset — the invariant-establishing prologue every
// BatchAdjacency implementation must run. Implementations then append
// neighbors and call EndVertex after each frontier vertex.
func (b *AdjBatch) Begin(n int) {
	b.Reset()
	if cap(b.Off) < n+1 {
		b.Off = make([]int, 0, n+1)
	}
	b.Off = append(b.Off, 0)
}

// EndVertex seals the current frontier vertex's slot range.
func (b *AdjBatch) EndVertex() { b.Off = append(b.Off, len(b.Nbrs)) }

// ExpandCSROffsets expands a frontier over CSR/CSC offset arrays into out —
// the shared implementation behind every offset-array backend's
// BatchAdjacency (csr, vineyard). The arrays are sized once from the offset
// deltas and each frontier vertex contributes one contiguous copy per
// direction. inAdj may be nil (no CSC built): in-direction slots are then
// empty, matching the backends' AdjSlice behavior.
func ExpandCSROffsets(frontier []graph.VID, dir graph.Direction, out *AdjBatch,
	outOff []uint64, outAdj []Target, inOff []uint64, inAdj []Target) {
	out.Begin(len(frontier))
	total := 0
	for _, v := range frontier {
		if dir == graph.Both || dir == graph.Out {
			total += int(outOff[v+1] - outOff[v])
		}
		if (dir == graph.Both || dir == graph.In) && inAdj != nil {
			total += int(inOff[v+1] - inOff[v])
		}
	}
	if cap(out.Nbrs) < total {
		out.Nbrs = make([]graph.VID, 0, total)
		out.Edges = make([]graph.EID, 0, total)
	}
	appendSeg := func(seg []Target) {
		for _, t := range seg {
			out.Nbrs = append(out.Nbrs, t.Nbr)
			out.Edges = append(out.Edges, t.Edge)
		}
	}
	for _, v := range frontier {
		if dir == graph.Both || dir == graph.Out {
			appendSeg(outAdj[outOff[v]:outOff[v+1]])
		}
		if (dir == graph.Both || dir == graph.In) && inAdj != nil {
			appendSeg(inAdj[inOff[v]:inOff[v+1]])
		}
		out.EndVertex()
	}
}

// FillRange fills buf with ascending IDs from start up to hi, returning the
// count and resume cursor (NilVID when [start, hi) is drained) — the shared
// cursor arithmetic behind every contiguous-range BatchScan.
func FillRange(start, hi graph.VID, buf []graph.VID) (int, graph.VID) {
	n := 0
	for v := start; v < hi && n < len(buf); v++ {
		buf[n] = v
		n++
	}
	next := start + graph.VID(n)
	if next >= hi {
		return n, graph.NilVID
	}
	return n, next
}

// BatchAdjacency is the batched topology trait: one call expands a whole
// frontier, letting the store amortize locking, visibility checks and
// interface dispatch over the batch instead of paying them per vertex (or,
// with callback iteration, per edge). Stores with contiguous adjacency fill
// the arrays by slicing their offset arrays directly.
type BatchAdjacency interface {
	// ExpandBatch overwrites out with the adjacency of every frontier vertex
	// in the given direction. Per-vertex neighbor order is identical to
	// Neighbors (Both: out-edges then in-edges).
	ExpandBatch(frontier []graph.VID, dir graph.Direction, out *AdjBatch)
}

// BatchProps is the batched property trait: gather one property (or the
// label) of a whole vertex/edge column in a single call. Property resolution
// is by name — each element's label decides the property ID, so mixed-label
// columns gather correctly. Absent properties and NilVID/NilEID elements
// gather as NULL.
type BatchProps interface {
	// GatherVertexProp fills out[i] with property prop of vs[i]; out must
	// have len(vs).
	GatherVertexProp(vs []graph.VID, prop string, out []graph.Value)
	// GatherEdgeProp fills out[i] with property prop of es[i]; out must have
	// len(es).
	GatherEdgeProp(es []graph.EID, prop string, out []graph.Value)
	// GatherVertexLabels fills out[i] with the label of vs[i]; out must have
	// len(vs).
	GatherVertexLabels(vs []graph.VID, out []graph.LabelID)
	// GatherEdgeLabels fills out[i] with the label of es[i]; out must have
	// len(es).
	GatherEdgeLabels(es []graph.EID, out []graph.LabelID)
}

// BatchScan is the batched scan trait: fill a label's vertex IDs directly
// into a caller-provided array, cursor-resumable so the runtime can stream a
// large label in batch-sized chunks without per-vertex callbacks.
type BatchScan interface {
	// ScanBatch fills buf with up to len(buf) vertices of the label whose
	// internal ID is >= start, in ascending ID order, returning the count
	// and the cursor to resume from. A NilVID cursor means the scan is
	// exhausted. The vertex sequence over a full cursor walk from 0 is
	// identical to ScanLabel's.
	ScanBatch(label graph.LabelID, start graph.VID, buf []graph.VID) (n int, next graph.VID)
}

// LabelAdjacency is the layout trait of stores that keep every vertex's
// adjacency grouped by edge label (the paper's Vineyard layout, one CSR per
// vertex label × edge label): a hop over one edge label reads that label's
// slots and no others, and how many there are is a subtraction of two
// boundaries. An engine pushes its edge-label filter through the trait when
// the store has it and otherwise expands unlabelled and filters by
// GatherEdgeLabels; the two paths must agree slot for slot, so the trait
// fixes the order.
//
// Both methods report whether the call was served. A store with the trait
// always serves; a Tap declines — false, out unspecified — when its hook asks
// for the lesser path, and the caller answers that one call from the
// unlabelled traits, as it would on a store without this one.
type LabelAdjacency interface {
	// ExpandLabelBatch is ExpandBatch restricted to elabel edges: the same
	// per-vertex order, the same edge IDs, only those slots. AnyLabel is
	// ExpandBatch itself; a label the schema does not know, or does not
	// allow at a vertex, has no slots there.
	ExpandLabelBatch(frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out *AdjBatch) bool
	// LabelDegrees fills out[i] with the length of frontier[i]'s range in
	// ExpandLabelBatch — with AnyLabel, its Degree — moving no adjacency.
	// out must have len(frontier).
	LabelDegrees(frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out []int) bool
}
