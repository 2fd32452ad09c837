package vineyard

import (
	"repro/internal/graph"
	"repro/internal/grin"
)

var _ grin.LabelAdjacency = (*Store)(nil)

// labelSegs is the label-boundary table of one vertex label's adjacency in
// one direction — the paper's one-CSR-per-(vertex label, edge label) layout
// laid over the shared slot arrays. Only the edge labels the schema allows at
// that endpoint get a column, and a vertex label with one allowed edge label
// needs none: its whole adjacency is the segment.
type labelSegs struct {
	// pos[e] is edge label e's position among the allowed labels, in
	// ascending label order; -1 when the schema forbids e here.
	pos []int16
	// bound[j][v-lo] is the slot where the adjacency of vertex v (the
	// label's (v-lo)th) passes from its jth allowed edge label to the next:
	// with k allowed labels there are k-1 columns, the CSR offsets close the
	// first and the last segment.
	bound [][]uint32
}

// slots returns the slot range of elabel within adjacency [lo, hi) of the
// label's ith vertex.
func (sg *labelSegs) slots(elabel graph.LabelID, i graph.VID, lo, hi uint64) (uint64, uint64) {
	j := int(sg.pos[elabel])
	if j < 0 {
		return lo, lo
	}
	if j > 0 {
		lo = uint64(sg.bound[j-1][i])
	}
	if j < len(sg.bound) {
		hi = uint64(sg.bound[j][i])
	}
	return lo, hi
}

// segment groups every in-adjacency by edge label and records the label
// boundaries of both directions. It runs at the end of Load, over the
// out-CSR (each source's slots are already ordered by label) and the in
// offsets; spare is n words of scratch. The in-CSR is a counting sort on
// (destination, label) whose cursors are the boundary columns themselves:
// edges are dealt in edge-ID order, so same-label in-edges keep the source
// order they always had.
func (st *Store) segment(spare []uint64) {
	s := st.schema
	numVL, numEL := s.NumVertexLabels(), s.NumEdgeLabels()
	for dir := range st.segs {
		st.segs[dir] = make([]labelSegs, numVL)
		for l := range st.segs[dir] {
			sg := &st.segs[dir][l]
			sg.pos = make([]int16, numEL)
			k := 0
			for e, el := range s.Edges {
				end := el.Src
				if graph.Direction(dir) == graph.In {
					end = el.Dst
				}
				sg.pos[e] = -1
				if end == graph.AnyLabel || end == graph.LabelID(l) {
					sg.pos[e] = int16(k)
					k++
				}
			}
			sg.bound = make([][]uint32, max(k-1, 0))
			for j := range sg.bound {
				sg.bound[j] = make([]uint32, st.labelStart[l+1]-st.labelStart[l])
			}
		}
	}

	// Out: a source's slots are sorted by label; walk them once.
	for l, sg := range st.segs[graph.Out] {
		for v := st.labelStart[l]; len(sg.bound) > 0 && v < st.labelStart[l+1]; v++ {
			p, end := st.outOff[v], st.outOff[v+1]
			for j, col := range sg.bound {
				for p < end && int(sg.pos[st.elabels[p]]) <= j {
					p++
				}
				col[v-st.labelStart[l]] = uint32(p)
			}
		}
	}

	// In, pass 1: count each destination's edges per allowed label (the
	// last allowed label needs no count, the in-offset closes it).
	inSeg := func(e graph.EID) (sg *labelSegs, j int, dst, i graph.VID) {
		dst = st.out[e].Nbr
		l := s.Edges[st.elabels[e]].Dst
		if l == graph.AnyLabel {
			l = st.VertexLabel(dst)
		}
		sg = &st.segs[graph.In][l]
		return sg, int(sg.pos[st.elabels[e]]), dst, dst - st.labelStart[l]
	}
	for e := range st.out {
		if sg, j, _, i := inSeg(graph.EID(e)); j < len(sg.bound) {
			sg.bound[j][i]++
		}
	}
	// Pass 2: turn the counts into each segment's first slot; the last
	// segment's goes to the spare cursor.
	for l, sg := range st.segs[graph.In] {
		for v := st.labelStart[l]; v < st.labelStart[l+1]; v++ {
			next := st.inOff[v]
			for _, col := range sg.bound {
				c := col[v-st.labelStart[l]]
				col[v-st.labelStart[l]] = uint32(next)
				next += uint64(c)
			}
			spare[v] = next
		}
	}
	// Pass 3: deal the edges out. Each cursor ends where the next segment
	// begins, which is the boundary the column is there to hold.
	st.in = make([]grin.Target, len(st.out))
	for v := range st.extIDs {
		for e := st.outOff[v]; e < st.outOff[v+1]; e++ {
			sg, j, dst, i := inSeg(graph.EID(e))
			var at uint64
			if j < len(sg.bound) {
				at = uint64(sg.bound[j][i])
				sg.bound[j][i]++
			} else {
				at = spare[dst]
				spare[dst]++
			}
			st.in[at] = grin.Target{Nbr: graph.VID(v), Edge: graph.EID(e)}
		}
	}
}

// labelSlots resolves a frontier vertex to its elabel slot range in one
// direction. lab caches the vertex label of the previous call: frontiers run
// in long single-label stretches.
func (st *Store) labelSlots(v graph.VID, dir graph.Direction, elabel graph.LabelID, lab *graph.LabelID) (lo, hi uint64) {
	if *lab == graph.AnyLabel || v < st.labelStart[*lab] || v >= st.labelStart[*lab+1] {
		*lab = st.VertexLabel(v)
	}
	off := st.outOff
	if dir == graph.In {
		off = st.inOff
	}
	return st.segs[dir][*lab].slots(elabel, v-st.labelStart[*lab], off[v], off[v+1])
}

// ExpandLabelBatch implements grin.LabelAdjacency: each frontier vertex
// contributes one contiguous copy per direction, of its elabel segment only.
func (st *Store) ExpandLabelBatch(frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out *grin.AdjBatch) bool {
	if elabel == graph.AnyLabel {
		st.ExpandBatch(frontier, dir, out)
		return true
	}
	out.Begin(len(frontier))
	if int(elabel) < 0 || int(elabel) >= len(st.ecols) {
		for range frontier {
			out.EndVertex()
		}
		return true
	}
	lab := graph.AnyLabel
	for _, v := range frontier {
		if dir != graph.In {
			lo, hi := st.labelSlots(v, graph.Out, elabel, &lab)
			for _, t := range st.out[lo:hi] {
				out.Nbrs = append(out.Nbrs, t.Nbr)
				out.Edges = append(out.Edges, t.Edge)
			}
		}
		if dir != graph.Out {
			lo, hi := st.labelSlots(v, graph.In, elabel, &lab)
			for _, t := range st.in[lo:hi] {
				out.Nbrs = append(out.Nbrs, t.Nbr)
				out.Edges = append(out.Edges, t.Edge)
			}
		}
		out.EndVertex()
	}
	return true
}

// LabelDegrees implements grin.LabelAdjacency: two boundary reads and a
// subtraction per vertex and direction.
func (st *Store) LabelDegrees(frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out []int) bool {
	known := int(elabel) >= 0 && int(elabel) < len(st.ecols)
	lab := graph.AnyLabel
	for i, v := range frontier {
		d := 0
		if elabel == graph.AnyLabel {
			d = st.Degree(v, dir)
		} else if known {
			if dir != graph.In {
				lo, hi := st.labelSlots(v, graph.Out, elabel, &lab)
				d += int(hi - lo)
			}
			if dir != graph.Out {
				lo, hi := st.labelSlots(v, graph.In, elabel, &lab)
				d += int(hi - lo)
			}
		}
		out[i] = d
	}
	return true
}
