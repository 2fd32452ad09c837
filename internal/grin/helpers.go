package grin

import (
	"fmt"

	"repro/internal/graph"
)

// ForEachNeighbor iterates the adjacency of v using the fastest trait the
// backend offers: the zero-copy array trait when present, otherwise the
// iterator trait. Engines use this helper so the trait dispatch lives in one
// place.
func ForEachNeighbor(g Graph, v graph.VID, dir graph.Direction, yield func(nbr graph.VID, e graph.EID) bool) {
	if aa, ok := AsAdjArray(g); ok {
		// AdjSlice is defined per single direction; expand Both into two
		// passes so in-edges are not silently dropped.
		if dir == graph.Both {
			for _, t := range aa.AdjSlice(v, graph.Out) {
				if !yield(t.Nbr, t.Edge) {
					return
				}
			}
			for _, t := range aa.AdjSlice(v, graph.In) {
				if !yield(t.Nbr, t.Edge) {
					return
				}
			}
			return
		}
		for _, t := range aa.AdjSlice(v, dir) {
			if !yield(t.Nbr, t.Edge) {
				return
			}
		}
		return
	}
	g.Neighbors(v, dir, yield)
}

// CollectNeighbors materializes the adjacency of v; used by tests and by
// operators that need random access to a small neighbor set. With the array
// trait the result is sized exactly from the adjacency slices (Both: one
// out+in allocation, out-edges first). Iterator-trait stores grow by append:
// their Degree is itself a full adjacency walk, so pre-sizing would traverse
// twice.
func CollectNeighbors(g Graph, v graph.VID, dir graph.Direction) []Target {
	if aa, ok := AsAdjArray(g); ok {
		if dir == graph.Both {
			o, i := aa.AdjSlice(v, graph.Out), aa.AdjSlice(v, graph.In)
			out := make([]Target, 0, len(o)+len(i))
			return append(append(out, o...), i...)
		}
		adj := aa.AdjSlice(v, dir)
		return append(make([]Target, 0, len(adj)), adj...)
	}
	var out []Target
	g.Neighbors(v, dir, func(nbr graph.VID, e graph.EID) bool {
		out = append(out, Target{Nbr: nbr, Edge: e})
		return true
	})
	return out
}

// ExpandBatch expands a whole frontier into out, using the fastest trait the
// backend offers: the batched adjacency trait, then the zero-copy array
// trait, then the iterator trait. One trait check covers the entire batch.
// Per-vertex neighbor order always matches Neighbors (Both: out-edges then
// in-edges).
func ExpandBatch(g Graph, frontier []graph.VID, dir graph.Direction, out *AdjBatch) {
	if ba, ok := AsBatchAdjacency(g); ok {
		ba.ExpandBatch(frontier, dir, out)
		return
	}
	out.Begin(len(frontier))
	if aa, ok := AsAdjArray(g); ok {
		for _, v := range frontier {
			if dir == graph.Both || dir == graph.Out {
				for _, t := range aa.AdjSlice(v, graph.Out) {
					out.Nbrs = append(out.Nbrs, t.Nbr)
					out.Edges = append(out.Edges, t.Edge)
				}
			}
			if dir == graph.Both || dir == graph.In {
				for _, t := range aa.AdjSlice(v, graph.In) {
					out.Nbrs = append(out.Nbrs, t.Nbr)
					out.Edges = append(out.Edges, t.Edge)
				}
			}
			out.EndVertex()
		}
		return
	}
	for _, v := range frontier {
		g.Neighbors(v, dir, func(nbr graph.VID, e graph.EID) bool {
			out.Nbrs = append(out.Nbrs, nbr)
			out.Edges = append(out.Edges, e)
			return true
		})
		out.EndVertex()
	}
}

// ExpandLabelBatch expands a frontier over elabel edges only: through the
// label-segmented trait when the store serves it, otherwise by expanding
// unlabelled and dropping the other labels' slots in place — the same slots
// in the same order either way. A store without a label catalog has one
// label, every edge's, so nothing is dropped there.
func ExpandLabelBatch(g Graph, frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out *AdjBatch) {
	if la, ok := AsLabelAdjacency(g); ok && la.ExpandLabelBatch(frontier, dir, elabel, out) {
		return
	}
	ExpandBatch(g, frontier, dir, out)
	if _, labelled := AsPropertyReader(g); !labelled || elabel == graph.AnyLabel {
		return
	}
	labels := make([]graph.LabelID, len(out.Edges))
	GatherEdgeLabels(g, out.Edges, labels)
	w, lo := 0, 0
	for i := range frontier {
		hi := out.Off[i+1]
		for t := lo; t < hi; t++ {
			if labels[t] == elabel {
				out.Nbrs[w], out.Edges[w] = out.Nbrs[t], out.Edges[t]
				w++
			}
		}
		out.Off[i+1] = w
		lo = hi
	}
	out.Nbrs, out.Edges = out.Nbrs[:w], out.Edges[:w]
}

// LabelDegrees fills out[i] with the number of elabel edges of frontier[i]
// in dir — the length of its ExpandLabelBatch range — through the
// label-segmented trait when the store serves it, otherwise from Degree when
// every edge counts and by counting a filtered expansion when not.
func LabelDegrees(g Graph, frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out []int) {
	if la, ok := AsLabelAdjacency(g); ok && la.LabelDegrees(frontier, dir, elabel, out) {
		return
	}
	if _, labelled := AsPropertyReader(g); !labelled || elabel == graph.AnyLabel {
		for i, v := range frontier {
			out[i] = g.Degree(v, dir)
		}
		return
	}
	var adj AdjBatch
	ExpandLabelBatch(g, frontier, dir, elabel, &adj)
	for i := range frontier {
		out[i] = adj.Off[i+1] - adj.Off[i]
	}
}

// GatherVertexProp fills out[i] with property prop of vs[i], through the
// batched property trait when present, else per-vertex property-trait calls.
// Absent properties and NilVID elements gather as NULL; a store with no
// property trait at all is an error (matching scalar property access).
func GatherVertexProp(g Graph, vs []graph.VID, prop string, out []graph.Value) error {
	if bp, ok := AsBatchProps(g); ok {
		bp.GatherVertexProp(vs, prop, out)
		return nil
	}
	pr, ok := AsPropertyReader(g)
	if !ok {
		return fmt.Errorf("grin: store lacks property trait")
	}
	schema := pr.Schema()
	lastLabel, pid := graph.AnyLabel, graph.NoProp
	for i, v := range vs {
		if v == graph.NilVID {
			out[i] = graph.NullValue
			continue
		}
		l := pr.VertexLabel(v)
		if l != lastLabel {
			lastLabel, pid = l, schema.VertexPropID(l, prop)
		}
		if pid == graph.NoProp {
			out[i] = graph.NullValue
			continue
		}
		out[i], _ = pr.VertexProp(v, pid)
	}
	return nil
}

// GatherEdgeProp fills out[i] with property prop of es[i]; see
// GatherVertexProp for trait dispatch and NULL semantics.
func GatherEdgeProp(g Graph, es []graph.EID, prop string, out []graph.Value) error {
	if bp, ok := AsBatchProps(g); ok {
		bp.GatherEdgeProp(es, prop, out)
		return nil
	}
	pr, ok := AsPropertyReader(g)
	if !ok {
		return fmt.Errorf("grin: store lacks property trait")
	}
	schema := pr.Schema()
	lastLabel, pid := graph.AnyLabel, graph.NoProp
	for i, e := range es {
		if e == graph.NilEID {
			out[i] = graph.NullValue
			continue
		}
		l := pr.EdgeLabel(e)
		if l != lastLabel {
			lastLabel, pid = l, schema.EdgePropID(l, prop)
		}
		if pid == graph.NoProp {
			out[i] = graph.NullValue
			continue
		}
		out[i], _ = pr.EdgeProp(e, pid)
	}
	return nil
}

// GatherVertexLabels fills out[i] with the label of vs[i]. Stores without a
// property trait gather AnyLabel (they have no label catalog).
func GatherVertexLabels(g Graph, vs []graph.VID, out []graph.LabelID) {
	if bp, ok := AsBatchProps(g); ok {
		bp.GatherVertexLabels(vs, out)
		return
	}
	pr, ok := AsPropertyReader(g)
	for i, v := range vs {
		if !ok || v == graph.NilVID {
			out[i] = graph.AnyLabel
			continue
		}
		out[i] = pr.VertexLabel(v)
	}
}

// GatherEdgeLabels fills out[i] with the label of es[i]; see
// GatherVertexLabels.
func GatherEdgeLabels(g Graph, es []graph.EID, out []graph.LabelID) {
	if bp, ok := AsBatchProps(g); ok {
		bp.GatherEdgeLabels(es, out)
		return
	}
	pr, ok := AsPropertyReader(g)
	for i, e := range es {
		if !ok || e == graph.NilEID {
			out[i] = graph.AnyLabel
			continue
		}
		out[i] = pr.EdgeLabel(e)
	}
}

// ScanLabel iterates every vertex of a label, preferring the index trait's
// O(1) label range, then the predicate trait, then a full scan with label
// filtering through the property trait.
func ScanLabel(g Graph, label graph.LabelID, yield func(graph.VID) bool) {
	if idx, ok := AsIndex(g); ok {
		if lo, hi, rangeOK := idx.LabelRange(label); rangeOK {
			for v := lo; v < hi; v++ {
				if !yield(v) {
					return
				}
			}
			return
		}
	}
	scanUnranged(g, label, yield)
}

// scanUnranged is ScanLabel for a label the index trait gave no range for.
func scanUnranged(g Graph, label graph.LabelID, yield func(graph.VID) bool) {
	if pp, ok := AsPredicatePush(g); ok {
		pp.ScanVertices(label, nil, yield)
		return
	}
	pr, hasProps := AsPropertyReader(g)
	n := graph.VID(g.NumVertices())
	for v := graph.VID(0); v < n; v++ {
		if label != graph.AnyLabel && hasProps && pr.VertexLabel(v) != label {
			continue
		}
		if !yield(v) {
			return
		}
	}
}

// CountLabel returns how many vertices carry a label. When the index trait
// assigns the label a contiguous ID range the count is the range's width —
// ranged is true and lo its first ID — and no vertex is visited; otherwise
// the label is scanned the way ScanLabel scans it.
func CountLabel(g Graph, label graph.LabelID) (n int, lo graph.VID, ranged bool) {
	if idx, ok := AsIndex(g); ok {
		if lo, hi, rangeOK := idx.LabelRange(label); rangeOK {
			return int(hi - lo), lo, true
		}
	}
	scanUnranged(g, label, func(graph.VID) bool {
		n++
		return true
	})
	return n, 0, false
}

// NextLabelBatch fills buf with the label's next vertices in ascending ID
// order, resuming from the scan position at (0 starts the scan), and returns
// the count and the position to resume from: NilVID once the label is
// exhausted. It prefers the batched scan trait, then the index trait's label
// range, then walks internal IDs, filtering by label through the property
// trait. A walk from 0 yields ScanLabel's vertex sequence. An empty buf reads
// nothing and returns at.
func NextLabelBatch(g Graph, label graph.LabelID, at graph.VID, buf []graph.VID) (n int, next graph.VID) {
	if len(buf) == 0 {
		return 0, at
	}
	if bs, ok := AsBatchScan(g); ok {
		return bs.ScanBatch(label, at, buf)
	}
	if idx, ok := AsIndex(g); ok {
		if lo, hi, rangeOK := idx.LabelRange(label); rangeOK {
			return FillRange(max(at, lo), hi, buf)
		}
	}
	pr, hasProps := AsPropertyReader(g)
	end := graph.VID(g.NumVertices())
	v := at
	for ; v < end && n < len(buf); v++ {
		if label != graph.AnyLabel && hasProps && pr.VertexLabel(v) != label {
			continue
		}
		buf[n] = v
		n++
	}
	if v >= end {
		return n, graph.NilVID
	}
	return n, v
}

// Weight returns the edge weight via the weight trait, falling back to 1.0
// for unweighted backends.
func Weight(g Graph, e graph.EID) float64 {
	if wr, ok := AsWeightReader(g); ok {
		return wr.EdgeWeight(e)
	}
	return 1.0
}
