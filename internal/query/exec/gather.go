package exec

import (
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
	"repro/internal/storage/column"
)

// This file holds the batched-execution scratch state of the relational
// stages — fields of the Arena of the goroutine running the stage (stage
// closures are shared across goroutines, so scratch cannot live in the
// closure) — the expansion skeleton the four expanding operators share, and
// the columnar expression hook that routes pure alias.prop references through
// the storage batch-property trait. Scratch slices are truncated or resized
// before every use and never cleared after it (see Arena).

// slotBudget is the adjacency a chunk of an expansion aims to stay under, in
// slots: 16 k slots are ~400 KB of scratch (24 B of adjacency arena plus the
// label columns per slot), which stays L2-resident while the keep loop and
// the emission re-read it.
const slotBudget = 1 << 14

// firstChunk is the number of frontier vertices in an expansion's first
// chunk, before it has seen a single degree.
const firstChunk = 64

// expandScratch is the working set of one expansion chunk: the frontier
// (runs of one vertex collapsed) with the physical input rows each element
// serves, the CSR-style adjacency arena of the current chunk, label columns
// for pushed edge/vertex label filters, and the emission lists — surviving
// adjacency slots (ts) with the physical input row each came from (srcRows),
// or in counting mode one count per surviving row. A count keeps its sum per
// frontier element (sums), the degrees a store returned for a whole level
// (degs), and one level per hop of its path (path).
type expandScratch struct {
	frontier []graph.VID
	rows     []int32
	runs     []int32 // frontier[j] serves rows[runs[j]:runs[j+1]]
	adj      grin.AdjBatch
	elabels  []graph.LabelID
	vlabels  []graph.LabelID
	ts       []int32
	srcRows  []int32
	counts   []int64
	degs     []int
	sums     []int64
	path     []pathLevel
}

// pathLevel is what one chunk of a counted path's previous level reached
// over one hop: the kept neighbors, each with the frontier element it
// started from.
type pathLevel struct {
	vids []graph.VID
	from []int32
}

// hop is one adjacency step: a direction and the label filters pushed into
// it (AnyLabel: none).
type hop struct {
	dir            graph.Direction
	elabel, vlabel graph.LabelID
}

// expansion is the compiled shape EXPAND_FUSED, EXPAND_EDGE, ADJ_CHECK and
// EXPAND_DEGREE share; they differ only in the per-slot keep test and in what
// the surviving slots become — neighbor/edge columns, or one count per row.
type expansion struct {
	sid        int   // stage ID, for the slots counter
	from       int   // frontier column
	hop              // the expanded or counted hop
	via        []hop // EXPAND_DEGREE: the hops walked before the counted one
	dst        int   // >= 0: keep only slots whose neighbor is this column's vertex
	first      bool  // keep at most one slot per input row (existence check)
	vIdx, eIdx int   // output neighbor / edge column (-1: not emitted)
	degIdx     int   // >= 0: count the kept slots into this column instead of emitting them
}

// farLabel is the vertex-label filter an expansion over elabel edges in dir
// still has to apply for the pattern's vlabel: none when the schema already
// fixes that endpoint of every such edge to vlabel (stores resolve edge
// endpoints inside schema.Edges[l].Src/Dst, and the edge-label filter runs
// whenever the vertex-label one would), vlabel itself otherwise.
func (c *Compiled) farLabel(elabel graph.LabelID, dir graph.Direction, vlabel graph.LabelID) graph.LabelID {
	if c.schema == nil || vlabel == graph.AnyLabel || elabel == graph.AnyLabel || int(elabel) >= len(c.schema.Edges) {
		return vlabel
	}
	e := c.schema.Edges[elabel]
	if (dir == graph.In || e.Dst == vlabel) && (dir == graph.Out || e.Src == vlabel) {
		return graph.AnyLabel
	}
	return vlabel
}

// hop compiles one step of the pattern into its pushed label filters.
func (c *Compiled) hop(elabel graph.LabelID, dir graph.Direction, vlabel graph.LabelID) hop {
	c.labelFilter(elabel)
	c.labelFilter(vlabel)
	return hop{dir: dir, elabel: elabel, vlabel: c.farLabel(elabel, dir, vlabel)}
}

// run expands in's frontier into out, reporting whether any row was
// appended. The frontier crosses the storage boundary chunk by chunk — never
// as a whole — so scratch is bounded by what one chunk holds (see walker).
// Per chunk one expansion call, one gather per label filter the store did
// not apply itself, the keep loop, and one columnar emission (scan); a count
// instead sums its kept slots per frontier element, over every path when it
// walks hops first, and emits once (countPaths). Output order is the
// frontier's, so results do not depend on where chunks end. Consecutive
// input rows on one vertex share its adjacency (and, counting, its count).
// The query's context is checked between chunks.
//
// What the store is asked depends on one capability, looked up once per run.
// A store whose adjacency is segmented by edge label (grin.LabelAdjacency)
// takes the edge-label filter itself: a chunk holds only the slots that pass
// it, and a count with no vertex-label filter left is one LabelDegrees call
// for the whole frontier (or level of a path) that moves no adjacency. Any
// other store — and a call a tapped store declines — is asked for whole
// adjacencies, which are filtered here; a count that keeps every slot asks
// it for Degree per vertex.
func (x *expansion) run(env *Env, in, out *Batch) (bool, error) {
	s := &env.Arena.expand
	s.frontier, s.rows = frontierFrom(in, x.from, s.frontier[:0], s.rows[:0])
	if len(s.frontier) == 0 {
		return false, nil
	}
	s.runs = s.runs[:0]
	u := 0
	for i, v := range s.frontier {
		if i == 0 || v != s.frontier[u-1] {
			s.frontier[u] = v
			u++
			s.runs = append(s.runs, int32(i))
		}
	}
	s.runs = append(s.runs, int32(len(s.frontier)))
	frontier := s.frontier[:u]

	pr, _ := grin.AsPropertyReader(env.Graph)
	la, _ := grin.AsLabelAdjacency(env.Graph)
	w := walker{env: env, s: s, la: la, labeled: pr != nil, k: firstChunk}
	base := out.rows
	var err error
	if x.degIdx >= 0 {
		err = x.countPaths(&w, frontier, in, out)
	} else {
		err = x.scan(&w, frontier, in, out)
	}
	if err != nil {
		return false, err
	}
	if obs := env.Obs; obs != nil {
		obs.StageSlots(x.sid, w.slots)
	}
	return out.rows > base, nil
}

// runMap is run as a Stage.Map callback, for the stages that have nothing to
// do after it.
func (x *expansion) runMap(env *Env, in, out *Batch) error {
	_, err := x.run(env, in, out)
	return err
}

// walker is one run of an expansion: its store, its scratch, whether the
// store reports labels at all (label filters apply only if it does), and the
// chunk sizing. A run's first chunk is firstChunk vertices; every later one —
// on any level of a counted path — holds as many as fill half the slot
// budget at the density seen so far (taken as at least one slot per vertex),
// growing at most fourfold per step. Degrees are not asked for up front: a
// store call per frontier vertex is what the batch traits exist to avoid.
type walker struct {
	env     *Env
	s       *expandScratch
	la      grin.LabelAdjacency
	labeled bool
	k       int // vertices in the next chunk
	seen    int // vertices expanded so far
	slots   int // adjacency slots the store handed over so far
}

// next returns the end of the chunk of n vertices that starts at lo, after
// checking the query's context unless this is the run's first chunk.
func (w *walker) next(lo, n int) (int, error) {
	if w.seen > 0 {
		if err := w.env.Alive(); err != nil {
			return 0, err
		}
	}
	return min(lo+w.k, n), nil
}

// fetch expands vs, one chunk, over h into the adjacency arena and gathers
// the label columns of the filters the store did not apply itself, returning
// them (nil: no filter left). A label-segmented store takes the edge-label
// filter unless it declines the call.
func (w *walker) fetch(h hop, vs []graph.VID) (eLabs, vLabs []graph.LabelID) {
	s, g := w.s, w.env.Graph
	byEdge := w.labeled && h.elabel != graph.AnyLabel
	pushed := byEdge && w.la != nil && w.la.ExpandLabelBatch(vs, h.dir, h.elabel, &s.adj)
	if !pushed {
		grin.ExpandBatch(g, vs, h.dir, &s.adj)
	}
	n := len(s.adj.Nbrs)
	if byEdge && !pushed {
		s.elabels = growLabels(s.elabels, n)
		grin.GatherEdgeLabels(g, s.adj.Edges, s.elabels)
		eLabs = s.elabels
	}
	if w.labeled && h.vlabel != graph.AnyLabel {
		s.vlabels = growLabels(s.vlabels, n)
		grin.GatherVertexLabels(g, s.adj.Nbrs, s.vlabels)
		vLabs = s.vlabels
	}
	w.seen += len(vs)
	w.slots += n
	w.k = max(1, min(4*w.k, w.seen*(slotBudget/2)/max(w.slots, w.seen)))
	return eLabs, vLabs
}

// keeps reports whether adjacency slot t passes the label columns fetch
// returned.
func (h hop) keeps(t int, eLabs, vLabs []graph.LabelID) bool {
	return (eLabs == nil || eLabs[t] == h.elabel) && (vLabs == nil || vLabs[t] == h.vlabel)
}

// scan is the emitting run: it expands frontier chunk by chunk, keeps each
// chunk's slots and emits their rows.
func (x *expansion) scan(w *walker, frontier []graph.VID, in, out *Batch) error {
	s := w.s
	for lo := 0; lo < len(frontier); {
		hi, err := w.next(lo, len(frontier))
		if err != nil {
			return err
		}
		eLabs, vLabs := w.fetch(x.hop, frontier[lo:hi])
		s.ts, s.srcRows = s.ts[:0], s.srcRows[:0]
		for j := lo; j < hi; j++ {
			alo, ahi := s.adj.Range(j - lo)
			for _, ri := range s.rows[s.runs[j]:s.runs[j+1]] {
				var want graph.VID
				if x.dst >= 0 {
					want = in.Col(x.dst).Value(int(ri)).Vertex()
				}
				x.keep(s, alo, ahi, want, eLabs, vLabs, ri)
			}
		}
		x.emit(s, in, out)
		lo = hi
	}
	return nil
}

// keep is the one per-slot test of an emitting run: it scans adjacency slots
// [lo, hi) of the current chunk for input row ri and records each (slot, row)
// pair that passes the endpoint and label filters for emission.
func (x *expansion) keep(s *expandScratch, lo, hi int, want graph.VID, eLabs, vLabs []graph.LabelID, ri int32) {
	for t := lo; t < hi; t++ {
		if x.dst >= 0 && s.adj.Nbrs[t] != want {
			continue
		}
		if !x.keeps(t, eLabs, vLabs) {
			continue
		}
		s.ts = append(s.ts, int32(t))
		s.srcRows = append(s.srcRows, ri)
		if x.first {
			break
		}
	}
}

// countPaths is the counting run: it sums, per frontier element, the counted
// hop's kept slots over every path through x.via — the rows the unfolded
// chain would have emitted for it — and emits each input row with its
// element's sum, dropping rows whose sum is 0 (the chain would have emitted
// nothing for them).
func (x *expansion) countPaths(w *walker, frontier []graph.VID, in, out *Batch) error {
	s := w.s
	s.sums = growInt64s(s.sums, len(frontier))
	clear(s.sums)
	for len(s.path) < len(x.via) {
		s.path = append(s.path, pathLevel{})
	}
	if err := x.walk(w, 0, frontier, nil); err != nil {
		return err
	}
	s.srcRows, s.counts = s.srcRows[:0], s.counts[:0]
	for j, n := range s.sums {
		if n == 0 {
			continue
		}
		for _, ri := range s.rows[s.runs[j]:s.runs[j+1]] {
			s.srcRows = append(s.srcRows, ri)
			s.counts = append(s.counts, n)
		}
	}
	x.emit(s, in, out)
	return nil
}

// walk adds to the sum of each of vs's frontier elements (from[i], or i
// itself when from is nil) the counted hop's kept slots over every path
// through x.via[d:]. A via hop expands vs chunk by chunk into level d and
// walks that level before the next chunk, so a level holds what one chunk
// reaches and the path's scratch stays near the slot budget per level.
func (x *expansion) walk(w *walker, d int, vs []graph.VID, from []int32) error {
	if d == len(x.via) {
		return x.tally(w, vs, from)
	}
	h, s, next := x.via[d], w.s, &w.s.path[d]
	for lo := 0; lo < len(vs); {
		hi, err := w.next(lo, len(vs))
		if err != nil {
			return err
		}
		eLabs, vLabs := w.fetch(h, vs[lo:hi])
		if n := len(s.adj.Nbrs); cap(next.vids) < n { // kept slots at most: the level never regrows
			next.vids, next.from = make([]graph.VID, 0, n), make([]int32, 0, n)
		}
		next.vids, next.from = next.vids[:0], next.from[:0]
		for j := lo; j < hi; j++ {
			o := origin(from, j)
			alo, ahi := s.adj.Range(j - lo)
			for t := alo; t < ahi; t++ {
				if h.keeps(t, eLabs, vLabs) {
					next.vids = append(next.vids, s.adj.Nbrs[t])
					next.from = append(next.from, o)
				}
			}
		}
		if err := x.walk(w, d+1, next.vids, next.from); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// origin is the frontier element vs[i] of a walk level started from.
func origin(from []int32, i int) int32 {
	if from == nil {
		return int32(i)
	}
	return from[i]
}

// tally adds the counted hop's kept slots at each of vs to its frontier
// element's sum: from the store's degrees when no vertex-label filter is
// left and the store can answer without moving adjacency, else by scanning
// vs's adjacency chunk by chunk.
func (x *expansion) tally(w *walker, vs []graph.VID, from []int32) error {
	s := w.s
	if !(w.labeled && x.vlabel != graph.AnyLabel) && x.degrees(w, vs) {
		for i, n := range s.degs {
			s.sums[origin(from, i)] += int64(n)
		}
		return nil
	}
	for lo := 0; lo < len(vs); {
		hi, err := w.next(lo, len(vs))
		if err != nil {
			return err
		}
		eLabs, vLabs := w.fetch(x.hop, vs[lo:hi])
		for j := lo; j < hi; j++ {
			alo, ahi := s.adj.Range(j - lo)
			n := 0
			for t := alo; t < ahi; t++ {
				if x.keeps(t, eLabs, vLabs) {
					n++
				}
			}
			s.sums[origin(from, j)] += int64(n)
		}
		lo = hi
	}
	return nil
}

// degrees fills s.degs with the counted hop's slots at each of vs, whose only
// filter, if any, is the edge label, without moving adjacency: from the
// store's label boundaries when it keeps them, from Degree when it does not
// and every slot counts. It reports false when neither applies and the slots
// have to be scanned.
func (x *expansion) degrees(w *walker, vs []graph.VID) bool {
	s := w.s
	byEdge := w.labeled && x.elabel != graph.AnyLabel
	elabel := graph.AnyLabel
	if byEdge {
		elabel = x.elabel
	}
	s.degs = growInts(s.degs, len(vs))
	if w.la != nil && w.la.LabelDegrees(vs, x.dir, elabel, s.degs) {
		return true
	}
	if byEdge {
		return false
	}
	for i, v := range vs {
		s.degs[i] = w.env.Graph.Degree(v, x.dir)
	}
	return true
}

// emit materializes one chunk's output: the surviving input rows (srcRows,
// physical) widen into out's prefix columns via one typed gather-append per
// column, and the new columns fill from the adjacency arena slots (ts) or,
// counting, from the counts.
func (x *expansion) emit(s *expandScratch, in, out *Batch) {
	if len(s.srcRows) == 0 {
		return
	}
	for c := 0; c < in.Width(); c++ {
		out.cols[c].appendRows(&in.cols[c], s.srcRows)
	}
	if x.vIdx >= 0 {
		vcol := &out.cols[x.vIdx]
		for _, t := range s.ts {
			vcol.appendVertex(s.adj.Nbrs[t])
		}
	}
	if x.eIdx >= 0 {
		ecol := &out.cols[x.eIdx]
		for _, t := range s.ts {
			ecol.appendEdge(s.adj.Edges[t])
		}
	}
	if x.degIdx >= 0 {
		dcol := &out.cols[x.degIdx]
		for _, n := range s.counts {
			dcol.appendInt(n)
		}
	}
	out.rows += len(s.srcRows)
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

// gatherCol appends property prop of the element at each of n rows of a
// typed vertex or edge payload ids — row sel[i], or row i when sel is nil — to
// dst through the store's typed-column gather, reporting whether the store
// served it (dst is untouched when it did not). The element IDs stay in
// s.vids or s.eids for the caller's boxed fallback.
func gatherCol(g grin.Graph, s *gatherScratch, kind graph.Kind, ids []int64, sel []int32, n int, prop string, dst *column.Column) bool {
	if kind == graph.KindVertex {
		s.vids = growVIDs(s.vids, n)
		for i := range s.vids {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			s.vids[i] = graph.VID(ids[p])
		}
		return grin.GatherVertexPropCol(g, s.vids, prop, dst)
	}
	s.eids = growEIDs(s.eids, n)
	for i := range s.eids {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		s.eids[i] = graph.EID(ids[p])
	}
	return grin.GatherEdgePropCol(g, s.eids, prop, dst)
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

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
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
