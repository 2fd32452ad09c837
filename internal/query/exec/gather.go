package exec

import (
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
)

// This file holds the batched-execution scratch state of the relational
// stages — fields of the Arena of the goroutine running the stage (stage
// closures are shared across goroutines, so scratch cannot live in the
// closure) — the expansion skeleton the three expanding operators share, and
// the columnar expression hook that routes pure alias.prop references through
// the storage batch-property trait. Scratch slices are truncated or resized
// before every use and never cleared after it (see Arena for the retention
// rule).

// expandScratch is the working set of one batched expansion: the non-nil
// frontier with its originating (physical) row indexes, the CSR-style
// adjacency arena, label columns for pushed edge/vertex label filters, and
// the emission lists — surviving adjacency slots (ts) with the physical
// input row each came from (srcRows).
type expandScratch struct {
	frontier []graph.VID
	rows     []int32
	adj      grin.AdjBatch
	elabels  []graph.LabelID
	vlabels  []graph.LabelID
	ts       []int32
	srcRows  []int32
}

// expansion is the compiled shape EXPAND_FUSED, EXPAND_EDGE and ADJ_CHECK
// share; they differ only in the per-slot keep test and in which columns the
// surviving slots fill.
type expansion struct {
	from           int // frontier column
	dir            graph.Direction
	elabel, vlabel graph.LabelID // pushed label filters (AnyLabel: none)
	dst            int           // >= 0: keep only slots whose neighbor is this column's vertex
	first          bool          // keep at most one slot per input row (existence check)
	vIdx, eIdx     int           // output neighbor / edge column (-1: not emitted)
}

// run expands in's frontier into out: the whole frontier crosses the storage
// boundary in one ExpandBatch call, label filters gather their columns in one
// call each, and the surviving slots materialize column-at-a-time. It reports
// whether any row was appended.
func (x *expansion) run(env *Env, in, out *Batch) bool {
	pr, _ := grin.AsPropertyReader(env.Graph)
	s := &env.Arena.expand
	s.frontier, s.rows = frontierFrom(in, x.from, s.frontier[:0], s.rows[:0])
	if len(s.frontier) == 0 {
		return false
	}
	grin.ExpandBatch(env.Graph, s.frontier, x.dir, &s.adj)
	var eLabs, vLabs []graph.LabelID
	if pr != nil && x.elabel != graph.AnyLabel {
		s.elabels = growLabels(s.elabels, len(s.adj.Edges))
		grin.GatherEdgeLabels(env.Graph, s.adj.Edges, s.elabels)
		eLabs = s.elabels
	}
	if pr != nil && x.vlabel != graph.AnyLabel {
		s.vlabels = growLabels(s.vlabels, len(s.adj.Nbrs))
		grin.GatherVertexLabels(env.Graph, s.adj.Nbrs, s.vlabels)
		vLabs = s.vlabels
	}
	s.ts, s.srcRows = s.ts[:0], s.srcRows[:0]
	for fi, ri := range s.rows {
		var want graph.VID
		if x.dst >= 0 {
			want = in.Col(x.dst).Value(int(ri)).Vertex()
		}
		lo, hi := s.adj.Range(fi)
		for t := lo; t < hi; t++ {
			if x.dst >= 0 && s.adj.Nbrs[t] != want {
				continue
			}
			if eLabs != nil && eLabs[t] != x.elabel {
				continue
			}
			if vLabs != nil && vLabs[t] != x.vlabel {
				continue
			}
			s.ts = append(s.ts, int32(t))
			s.srcRows = append(s.srcRows, ri)
			if x.first {
				break
			}
		}
	}
	if len(s.ts) == 0 {
		return false
	}
	emitExpanded(out, in, s.srcRows, s.ts, &s.adj, x.vIdx, x.eIdx)
	return true
}

// gatherScratch is the working set of one columnar property gather: the
// element-ID column extracted from the batch, the gathered value column, and
// the survivor lists of GET_VERTEX (physical source rows plus their kept
// neighbors).
type gatherScratch struct {
	vids    []graph.VID
	eids    []graph.EID
	labels  []graph.LabelID
	vals    []graph.Value
	srcRows []int32
	keep    []graph.VID
	row     []graph.Value // boxed row bridge for per-row evaluation
}

// growVIDs returns s resized to n valid slots, reusing capacity.
func growVIDs(s []graph.VID, n int) []graph.VID {
	if cap(s) < n {
		return make([]graph.VID, n)
	}
	return s[:n]
}

func growEIDs(s []graph.EID, n int) []graph.EID {
	if cap(s) < n {
		return make([]graph.EID, n)
	}
	return s[:n]
}

func growLabels(s []graph.LabelID, n int) []graph.LabelID {
	if cap(s) < n {
		return make([]graph.LabelID, n)
	}
	return s[:n]
}

func growValues(s []graph.Value, n int) []graph.Value {
	if cap(s) < n {
		return make([]graph.Value, n)
	}
	return s[:n]
}

// evalColumn evaluates prog over every row of in, writing results to
// dst[0:in.Len()]. A program that is exactly one bound alias.prop reference
// over a uniform vertex (or edge) column gathers columnar through
// grin.GatherVertexProp/GatherEdgeProp — one trait dispatch per batch —
// instead of walking the bound tree per row; everything else (computed
// expressions, mixed or non-element columns, stores without the property
// trait) takes the per-row path with its exact scalar semantics, including
// errors.
func evalColumn(env *Env, prog *expr.Bound, in *Batch, dst []graph.Value) error {
	n := in.Len()
	if col, prop, ok := prog.PropRef(); ok {
		if prop == "" {
			for i := 0; i < n; i++ {
				dst[i] = in.Value(i, col)
			}
			return nil
		}
		if _, hasProps := grin.AsPropertyReader(env.Graph); hasProps || grin.Has(env.Graph, grin.TraitBatchProps) {
			// The column must be uniformly vertex or uniformly edge: the
			// per-row path errors on other kinds, and a mixed column would
			// need per-row label resolution anyway. A typed null-free
			// element vector is uniform by construction; anything else is
			// scanned boxed (a NULL counts as non-uniform, keeping the
			// per-row path's scalar semantics).
			kind := graph.Kind(0)
			uniform := false
			if t := in.Col(col).Typed(); n > 0 && t != nil && !t.HasNulls() &&
				(t.Kind() == graph.KindVertex || t.Kind() == graph.KindEdge) {
				kind = t.Kind()
				uniform = true
			} else {
				uniform = n > 0
				for i := 0; i < n; i++ {
					k := in.Value(i, col).K
					if k != graph.KindVertex && k != graph.KindEdge {
						uniform = false
						break
					}
					if kind == 0 {
						kind = k
					} else if k != kind {
						uniform = false
						break
					}
				}
			}
			if uniform && kind != 0 {
				s := &env.Arena.eval
				var err error
				if kind == graph.KindVertex {
					s.vids = growVIDs(s.vids, n)
					vidColumn(in, col, s.vids[:n])
					err = grin.GatherVertexProp(env.Graph, s.vids, prop, dst[:n])
				} else {
					s.eids = growEIDs(s.eids, n)
					eidColumn(in, col, s.eids[:n])
					err = grin.GatherEdgeProp(env.Graph, s.eids, prop, dst[:n])
				}
				return err
			}
		}
	}
	benv := env.boundEnv()
	s := &env.Arena.eval
	s.row = growValues(s.row, in.Width())
	row := s.row
	for i := 0; i < n; i++ {
		in.CopyRow(i, row)
		v, err := prog.Eval(&benv, row)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// eidColumn fills dst[i] with logical row i's edge ID (NilEID for NULL or
// non-edge values).
func eidColumn(in *Batch, col int, dst []graph.EID) {
	v := in.Col(col)
	sel := in.Sel()
	if t := v.Typed(); t != nil && t.Kind() == graph.KindEdge && !t.HasNulls() {
		ints := t.RawInts()
		if sel == nil {
			for i := range dst {
				dst[i] = graph.EID(ints[i])
			}
		} else {
			for i, p := range sel {
				dst[i] = graph.EID(ints[p])
			}
		}
		return
	}
	for i := range dst {
		dst[i] = v.Value(in.physRow(i)).Edge()
	}
}
