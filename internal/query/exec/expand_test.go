package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/grin/grintest"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/ir"
	"repro/internal/query/optimizer"
	"repro/internal/storage/chaos"
	"repro/internal/storage/vineyard"
)

// The chunked expansion skeleton is shared by every engine including naive, so
// a chunking bug is common-mode for the parity matrices. These tests compare
// each expansion kind, stage by stage, against a brute-force walk over
// grin.Graph.Neighbors on a generated graph whose vertices have exact,
// chosen degrees around every bound the skeleton has.

// Hub-graph labels.
const (
	hubA graph.LabelID = 0 // every chosen-degree vertex
	hubB graph.LabelID = 1 // targets only
	hubE graph.LabelID = 0 // A -> A: the schema fixes the far endpoint
	hubX graph.LabelID = 1 // any -> any: it does not
)

// hubDegrees are the exact out-degrees of the first len(hubDegrees) A
// vertices, in that order.
var hubDegrees = []int{
	0, 1, 2, 3, 127, 128, 129,
	exec.SlotBudget/2 - 1, exec.SlotBudget / 2, exec.SlotBudget/2 + 1,
	exec.SlotBudget - 1, exec.SlotBudget, exec.SlotBudget + 1,
	3*exec.SlotBudget + 5,
}

const hubPool = 300 // plain A vertices after the chosen-degree ones

// hubGraph builds the generated graph: vertex i < len(hubDegrees) has exactly
// hubDegrees[i] out-edges, alternating between E edges to A vertices and X
// edges to A and B vertices (so both label filters cut), with parallel edges
// and self loops; the pool vertices have small random degrees. B vertices
// carry external IDs above 1 << 20 because X resolves endpoints by ID alone.
func hubGraph(t testing.TB) (*vineyard.Store, *graph.Schema) {
	t.Helper()
	hubOnce.Do(func() { hubStore, hubSchema = buildHubGraph(t) })
	if hubStore == nil {
		t.Fatal("the hub graph failed to build in an earlier test")
	}
	return hubStore, hubSchema
}

var (
	hubOnce   sync.Once
	hubStore  *vineyard.Store
	hubSchema *graph.Schema
)

func buildHubGraph(t testing.TB) (*vineyard.Store, *graph.Schema) {
	s := graph.NewSchema(
		[]graph.VertexLabel{{Name: "A"}, {Name: "B"}},
		[]graph.EdgeLabel{
			{Name: "E", Src: hubA, Dst: hubA},
			{Name: "X", Src: graph.AnyLabel, Dst: graph.AnyLabel},
		},
	)
	b := graph.NewBatch(s)
	nA := len(hubDegrees) + hubPool
	const nB = 40
	for i := 0; i < nA; i++ {
		b.AddVertex(hubA, int64(i))
	}
	for i := 0; i < nB; i++ {
		b.AddVertex(hubB, int64(1<<20+i))
	}
	rng := rand.New(rand.NewSource(17))
	addOut := func(src, deg int) {
		for k := 0; k < deg; k++ {
			switch k % 3 {
			case 0:
				b.AddEdge(hubE, int64(src), int64(rng.Intn(nA)))
			case 1:
				b.AddEdge(hubX, int64(src), int64(rng.Intn(nA)))
			default:
				b.AddEdge(hubX, int64(src), int64(1<<20+rng.Intn(nB)))
			}
		}
	}
	for i, d := range hubDegrees {
		addOut(i, d)
	}
	for i := len(hubDegrees); i < nA; i++ {
		addOut(i, rng.Intn(6))
	}
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range hubDegrees {
		if got := st.Degree(graph.VID(i), graph.Out); got != d {
			t.Fatalf("vertex %d: out-degree %d, want %d", i, got, d)
		}
	}
	return st, s
}

// hubFrontiers are the generated frontiers: the widest vertex alone, copies of
// it around a NilVID row, first chunks of firstChunk − 1, firstChunk and
// firstChunk + 1 vertices closed by a vertex half a budget or a budget wide
// (the sizes the next chunk is computed from), non-adjacent repeats, and
// seeded random mixes of pool vertices, repeats, NilVIDs and wide vertices.
func hubFrontiers() [][]graph.VID {
	widest := graph.VID(len(hubDegrees) - 1)
	pool := func(i int) graph.VID { return graph.VID(len(hubDegrees) + i%hubPool) }
	fs := [][]graph.VID{
		{widest},
		{widest, widest, widest, graph.NilVID, widest},
	}
	for i, mids := range [][]graph.VID{{7, 10}, {8, 11}, {9, 12}} { // degrees budget/2 ∓ 1, budget ∓ 1
		n := exec.FirstChunk - 1 + i
		for _, mid := range mids {
			f := make([]graph.VID, 0, n+8)
			for i := 0; i < n-1; i++ {
				f = append(f, pool(i))
			}
			f = append(f, mid, pool(3), 4, graph.NilVID, 5, pool(3), 6, 4)
			fs = append(fs, f)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for k := 0; k < 4; k++ {
		n := 1 + rng.Intn(400)
		f := make([]graph.VID, n)
		for i := range f {
			switch r := rng.Intn(40); {
			case r < 2:
				f[i] = graph.NilVID
			case r == 2:
				f[i] = graph.VID(rng.Intn(len(hubDegrees) - 1))
			case r < 12 && i > 0:
				f[i] = f[i-1]
			default:
				f[i] = pool(rng.Intn(hubPool))
			}
		}
		fs = append(fs, f)
	}
	return fs
}

// hubRow is one output row of a stage under test: the frontier vertex, the
// bound far endpoint (ADJ_CHECK), and whichever of edge, neighbor and count
// the stage appends (−1 when it does not).
type hubRow struct{ v, dst, edge, nbr, n int64 }

// hubCase is one expansion stage under test with its reference keep rule.
type hubCase struct {
	name  string
	plan  *ir.Plan
	stage int
	// two: the stage reads a second (dst) column, the ADJ_CHECK shape.
	two            bool
	dir            graph.Direction
	elabel, vlabel graph.LabelID
	first          bool
	// nbrCol/edgeCol/degCol are the output columns the stage appends (−1:
	// none).
	nbrCol, edgeCol, degCol int
}

func hubCases() []hubCase {
	scan := &ir.Op{Kind: ir.OpScan, Alias: "a", Label: hubA}
	var cases []hubCase
	for _, dir := range []graph.Direction{graph.Out, graph.In, graph.Both} {
		for _, lab := range []struct {
			name           string
			elabel, vlabel graph.LabelID
		}{
			{"E-A-implied", hubE, hubA},
			{"X-B", hubX, hubB},
			{"X-any", hubX, graph.AnyLabel},
			{"any-A", graph.AnyLabel, hubA},
			{"any-any", graph.AnyLabel, graph.AnyLabel},
		} {
			tag := fmt.Sprintf("%s/%s", dir, lab.name)
			cases = append(cases,
				hubCase{name: "fused/" + tag, stage: 1, dir: dir, elabel: lab.elabel, vlabel: lab.vlabel, nbrCol: 1, edgeCol: -1, degCol: -1,
					plan: &ir.Plan{Ops: []*ir.Op{scan, {Kind: ir.OpExpandFused, FromAlias: "a", EdgeLabel: lab.elabel, Dir: dir, Alias: "b", Label: lab.vlabel}}}},
				hubCase{name: "fused-edge/" + tag, stage: 1, dir: dir, elabel: lab.elabel, vlabel: lab.vlabel, nbrCol: 1, edgeCol: 2, degCol: -1,
					plan: &ir.Plan{Ops: []*ir.Op{scan, {Kind: ir.OpExpandFused, FromAlias: "a", EdgeLabel: lab.elabel, Dir: dir, Alias: "b", Label: lab.vlabel, EdgeAlias: "e"}}}},
				hubCase{name: "degree/" + tag, stage: 1, dir: dir, elabel: lab.elabel, vlabel: lab.vlabel, nbrCol: -1, edgeCol: -1, degCol: 1,
					plan: &ir.Plan{Ops: []*ir.Op{scan,
						{Kind: ir.OpExpandDegree, FromAlias: "a", EdgeLabel: lab.elabel, Dir: dir, Alias: "b", Label: lab.vlabel},
						{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "count", Alias: "n"}}, CountWeight: ir.DegreeAlias("b")}}}},
			)
		}
		// EXPAND_EDGE filters by edge label only and emits edge, then neighbor.
		cases = append(cases, hubCase{name: fmt.Sprintf("edge/%s", dir), stage: 1, dir: dir, elabel: hubX, vlabel: graph.AnyLabel, edgeCol: 1, nbrCol: 2, degCol: -1,
			plan: &ir.Plan{Ops: []*ir.Op{scan,
				{Kind: ir.OpExpandEdge, FromAlias: "a", EdgeLabel: hubX, Dir: dir, EdgeAlias: "e"},
				{Kind: ir.OpGetVertex, EdgeAlias: "e", Alias: "b", Label: graph.AnyLabel}}}})
		// ADJ_CHECK: both endpoints bound; without an edge alias existence is
		// enough (first), with one every parallel edge is emitted.
		for _, ealias := range []string{"", "e"} {
			hc := hubCase{name: fmt.Sprintf("adjcheck/%s/alias=%q", dir, ealias), stage: 2, two: true, dir: dir, elabel: hubX, vlabel: graph.AnyLabel,
				first: ealias == "", nbrCol: -1, edgeCol: -1, degCol: -1,
				plan: &ir.Plan{Ops: []*ir.Op{{Kind: ir.OpMatch, Pattern: []ir.PatternEdge{
					{SrcAlias: "a", SrcLabel: hubA, EdgeLabel: hubE, Dir: graph.Out, DstAlias: "b", DstLabel: hubA},
					{SrcAlias: "a", SrcLabel: hubA, EdgeLabel: hubX, Dir: dir, DstAlias: "b", DstLabel: hubA, EdgeAlias: ealias},
				}}}}}
			if ealias != "" {
				hc.edgeCol = 2
			}
			cases = append(cases, hc)
		}
	}
	return cases
}

// reference walks grin.Graph.Neighbors for every logical input row in order
// and returns the expected output rows.
func (hc *hubCase) reference(st *vineyard.Store, frontier, dsts []graph.VID, want []hubRow) []hubRow {
	for i, v := range frontier {
		if v == graph.NilVID {
			continue
		}
		base := hubRow{v: int64(v), dst: -1, edge: -1, nbr: -1, n: -1}
		if hc.two {
			base.dst = int64(dsts[i])
		}
		n := int64(0)
		st.Neighbors(v, hc.dir, func(nbr graph.VID, e graph.EID) bool {
			if hc.first && n > 0 {
				// vineyard's Neighbors(Both) walks on into the in-edges after
				// a false return in the out-edges.
				return false
			}
			if hc.two && nbr != dsts[i] {
				return true
			}
			if hc.elabel != graph.AnyLabel && st.EdgeLabel(e) != hc.elabel {
				return true
			}
			if hc.vlabel != graph.AnyLabel && st.VertexLabel(nbr) != hc.vlabel {
				return true
			}
			n++
			if hc.degCol < 0 {
				row := base
				if hc.edgeCol >= 0 {
					row.edge = int64(e)
				}
				if hc.nbrCol >= 0 {
					row.nbr = int64(nbr)
				}
				want = append(want, row)
			}
			return !hc.first
		})
		if hc.degCol >= 0 && n > 0 {
			base.n = n
			want = append(want, base)
		}
	}
	return want
}

// rows reads the stage's output batch back into hubRows.
func (hc *hubCase) rows(out *exec.Batch, got []hubRow) []hubRow {
	for i := 0; i < out.Len(); i++ {
		row := hubRow{v: int64(out.Value(i, 0).Vertex()), dst: -1, edge: -1, nbr: -1, n: -1}
		if hc.two {
			row.dst = int64(out.Value(i, 1).Vertex())
		}
		if hc.edgeCol >= 0 {
			row.edge = int64(out.Value(i, hc.edgeCol).Edge())
		}
		if hc.nbrCol >= 0 {
			row.nbr = int64(out.Value(i, hc.nbrCol).Vertex())
		}
		if hc.degCol >= 0 {
			row.n = out.Value(i, hc.degCol).Int()
		}
		got = append(got, row)
	}
	return got
}

// TestExpansionKindsMatchBruteForce drives every expansion stage directly —
// RunMap over hand-built input batches — on the generated frontiers, with and
// without a selection vector, compiled with and without the schema (which
// decides whether the implied vertex-label gather is skipped), and compares
// with the brute-force walk — over the store itself, whose label segments take
// the edge-label filter; over a tap on the same store with that trait hidden,
// where the skeleton filters whole adjacencies itself; and over the chaos
// wrapper, which keeps the trait and declines every call to it.
func TestExpansionKindsMatchBruteForce(t *testing.T) {
	st, schema := hubGraph(t)
	type variant struct {
		name   string
		g      grin.Graph
		schema *graph.Schema
	}
	variants := []variant{
		{"vineyard", st, schema},
		{"vineyard/no-schema", st, nil},
		{"unsegmented", chaos.Wrap(grintest.Unsegmented(st), chaos.Options{}), schema},
		{"masked", chaos.Wrap(st, chaos.Options{}), schema},
	}
	if _, ok := grin.AsLabelAdjacency(variants[2].g); ok {
		t.Fatal("the unsegmented variant still offers grin.LabelAdjacency")
	}
	frontiers := hubFrontiers()
	rng := rand.New(rand.NewSource(5))
	var got, want []hubRow
	for _, hc := range hubCases() {
		kinds := []graph.Kind{graph.KindVertex}
		if hc.two {
			kinds = append(kinds, graph.KindVertex)
		}
		for _, vr := range variants {
			if vr.schema == nil && (hc.elabel == graph.AnyLabel || hc.vlabel == graph.AnyLabel) {
				continue // the schema decides something only when both filters are set
			}
			if vr.name == "masked" && hc.dir != graph.Both {
				continue // the mask changes which trait serves a call, not what a direction means
			}
			c, err := exec.Compile(hc.plan, exec.Options{Schema: vr.schema})
			if err != nil {
				t.Fatalf("%s: %v", hc.name, err)
			}
			stage := &c.Stages[hc.stage]
			env := &exec.Env{Graph: vr.g, Arena: new(exec.Arena)}
			out := exec.NewBatchKinds(stage.OutLayout(), 0)
			for fi, f := range frontiers {
				// Every other frontier hides padding rows behind a selection.
				in := exec.NewBatchKinds(kinds, 0)
				var sel []int32
				var dsts []graph.VID
				row := make([]graph.Value, len(kinds))
				for i, v := range f {
					if fi%2 == 1 {
						row[0] = graph.VertexValue(0)
						in.AppendRow(row)
					}
					sel = append(sel, int32(in.PhysLen()))
					row[0] = graph.VertexValue(v)
					if v == graph.NilVID {
						row[0] = graph.NullValue
					}
					if hc.two {
						// A real neighbor half the time, any vertex otherwise.
						d := graph.VID(rng.Intn(st.NumVertices()))
						if v != graph.NilVID && i%2 == 0 {
							st.Neighbors(v, hc.dir, func(n graph.VID, _ graph.EID) bool { d = n; return rng.Intn(4) != 0 })
						}
						dsts = append(dsts, d)
						row[1] = graph.VertexValue(d)
					}
					in.AppendRow(row)
				}
				if fi%2 == 1 {
					in.SetSel(sel)
				}
				out.Reset()
				if err := stage.RunMap(env, in, out); err != nil {
					t.Fatalf("%s %s frontier %d: %v", hc.name, vr.name, fi, err)
				}
				got, want = hc.rows(out, got[:0]), hc.reference(st, f, dsts, want[:0])
				if len(got) != len(want) {
					t.Fatalf("%s %s frontier %d: %d rows, want %d", hc.name, vr.name, fi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %s frontier %d row %d: %+v, want %+v", hc.name, vr.name, fi, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// pathHop is one hop of a folded path under test with its reference keep
// rule.
type pathHop struct {
	dir            graph.Direction
	elabel, vlabel graph.LabelID
}

// keeps is the reference filter of one hop.
func (h pathHop) keeps(st *vineyard.Store, nbr graph.VID, e graph.EID) bool {
	return (h.elabel == graph.AnyLabel || st.EdgeLabel(e) == h.elabel) && (h.vlabel == graph.AnyLabel || st.VertexLabel(nbr) == h.vlabel)
}

// pathCounts is the reference for one folded path: how many slots of its
// last hop the paths from a vertex reach, by a walk over
// grin.Graph.Neighbors memoized per hop and vertex.
type pathCounts struct {
	st   *vineyard.Store
	hops []pathHop
	memo []map[graph.VID]int64
}

func newPathCounts(st *vineyard.Store, hops []pathHop) *pathCounts {
	pc := &pathCounts{st: st, hops: hops, memo: make([]map[graph.VID]int64, len(hops))}
	for i := range pc.memo {
		pc.memo[i] = map[graph.VID]int64{}
	}
	return pc
}

// from counts the slots reached from v over hops[d:].
func (pc *pathCounts) from(v graph.VID, d int) int64 {
	if d == len(pc.hops) {
		return 1
	}
	if n, ok := pc.memo[d][v]; ok {
		return n
	}
	n, h := int64(0), pc.hops[d]
	pc.st.Neighbors(v, h.dir, func(nbr graph.VID, e graph.EID) bool {
		if h.keeps(pc.st, nbr, e) {
			n += pc.from(nbr, d+1)
		}
		return true
	})
	pc.memo[d][v] = n
	return n
}

// pathPlan is SCAN(a) followed by an EXPAND_DEGREE that walks every hop but
// the last and counts the last.
func pathPlan(hops []pathHop) *ir.Plan {
	deg := &ir.Op{Kind: ir.OpExpandDegree, FromAlias: "a", Alias: "z"}
	for i, h := range hops[:len(hops)-1] {
		deg.Via = append(deg.Via, ir.Hop{Alias: fmt.Sprintf("v%d", i), EdgeLabel: h.elabel, Dir: h.dir, Label: h.vlabel})
	}
	last := hops[len(hops)-1]
	deg.EdgeLabel, deg.Dir, deg.Label = last.elabel, last.dir, last.vlabel
	return &ir.Plan{Ops: []*ir.Op{{Kind: ir.OpScan, Alias: "a", Label: hubA}, deg,
		{Kind: ir.OpGroupBy, Aggs: []ir.Aggregate{{Fn: "count", Alias: "n"}}, CountWeight: ir.DegreeAlias("z")}}}
}

// narrowFrontier is the vertices of degree at most 129 — the first few
// chosen ones with repeats and a NilVID, then every third pool vertex — whose
// three-hop paths a test can afford to walk.
func narrowFrontier() []graph.VID {
	f := []graph.VID{0, 1, 2, 3, graph.NilVID, 3, 4, 5, 6}
	for i := 0; i < hubPool; i += 3 {
		f = append(f, graph.VID(len(hubDegrees)+i))
	}
	return f
}

// pathInput is a one-column vertex batch of frontier f, NilVID as NULL.
func pathInput(f []graph.VID) *exec.Batch {
	in := exec.NewBatchKinds([]graph.Kind{graph.KindVertex}, 0)
	for _, v := range f {
		val := graph.VertexValue(v)
		if v == graph.NilVID {
			val = graph.NullValue
		}
		in.AppendRow([]graph.Value{val})
	}
	return in
}

// TestExpandDegreePathMatchesBruteForce drives a folded path's EXPAND_DEGREE
// directly on the generated frontiers — whose degrees sit around every chunk
// bound — for two- and three-hop paths mixing both label filters and
// directions, over the store (label segments), the store with that trait
// hidden, and the chaos wrapper (which declines it), and compares every row's
// count with a walk over grin.Graph.Neighbors: a row survives exactly when
// some path reaches a kept slot, with the number of such slots.
func TestExpandDegreePathMatchesBruteForce(t *testing.T) {
	st, schema := hubGraph(t)
	variants := map[string]grin.Graph{
		"vineyard":    st,
		"unsegmented": chaos.Wrap(grintest.Unsegmented(st), chaos.Options{}),
		"masked":      chaos.Wrap(st, chaos.Options{}),
	}
	// The widest vertex's paths are too many to walk in a test, and a
	// third hop is walked only from the narrow vertices. No path expands
	// from in-neighbors, and every counted hop runs inward: an out-neighbor
	// set is dominated by the chosen vertices, budgets wide.
	wide, narrow := hubFrontiers()[2:8], [][]graph.VID{narrowFrontier()}
	e := pathHop{graph.Out, hubE, hubA}
	for pi, tc := range []struct {
		hops      []pathHop
		frontiers [][]graph.VID
	}{
		{[]pathHop{e, {graph.In, hubX, graph.AnyLabel}}, wide},
		{[]pathHop{{graph.Out, hubX, hubA}, {graph.In, graph.AnyLabel, hubA}}, wide},
		{[]pathHop{{graph.Both, hubE, hubA}, {graph.In, hubE, hubA}}, wide},
		{[]pathHop{{graph.Out, graph.AnyLabel, hubA}, e, {graph.In, hubX, hubA}}, narrow},
	} {
		hops, ref := tc.hops, newPathCounts(st, tc.hops)
		c, err := exec.Compile(pathPlan(hops), exec.Options{Schema: schema})
		if err != nil {
			t.Fatal(err)
		}
		stage := &c.Stages[1]
		for name, g := range variants {
			if name == "masked" && !slices.ContainsFunc(hops, func(h pathHop) bool { return h.dir == graph.Both }) {
				continue // the mask changes which trait serves a call, not what a direction means
			}
			env := &exec.Env{Graph: g, Arena: new(exec.Arena)}
			out := exec.NewBatchKinds(stage.OutLayout(), 0)
			for fi, f := range tc.frontiers {
				out.Reset()
				if err := stage.RunMap(env, pathInput(f), out); err != nil {
					t.Fatalf("path %d %s frontier %d: %v", pi, name, fi, err)
				}
				r := 0
				for _, v := range f {
					if v == graph.NilVID {
						continue
					}
					want := ref.from(v, 0)
					if want == 0 {
						continue
					}
					if r >= out.Len() || out.Value(r, 0).Vertex() != v || out.Value(r, 1).Int() != want {
						t.Fatalf("path %d %s frontier %d: row %d of %d, want (%d, %d)", pi, name, fi, r, out.Len(), v, want)
					}
					r++
				}
				if r != out.Len() {
					t.Fatalf("path %d %s frontier %d: %d rows, want %d", pi, name, fi, out.Len(), r)
				}
			}
		}
	}
}

// TestFoldedPathAllocatesNothingWarm: on a warmed arena and output batch, a
// folded path's EXPAND_DEGREE runs a frontier without a heap allocation —
// answered from the store's label degrees, scanning the counted hop for a
// vertex-label filter, and over a store without label segments.
func TestFoldedPathAllocatesNothingWarm(t *testing.T) {
	st, schema := hubGraph(t)
	f := narrowFrontier()[9:29] // pool vertices only
	for _, tc := range []struct {
		name string
		g    grin.Graph
		last pathHop
	}{
		{"degrees", st, pathHop{graph.In, hubX, graph.AnyLabel}},
		{"scanned", st, pathHop{graph.In, hubX, hubA}},
		{"unsegmented", grintest.Unsegmented(st), pathHop{graph.In, hubX, graph.AnyLabel}},
	} {
		c, err := exec.Compile(pathPlan([]pathHop{{graph.Out, graph.AnyLabel, hubA}, {graph.Out, hubE, hubA}, tc.last}), exec.Options{Schema: schema})
		if err != nil {
			t.Fatal(err)
		}
		stage := &c.Stages[1]
		env := &exec.Env{Graph: tc.g, Arena: new(exec.Arena)}
		in, out := pathInput(f), exec.NewBatchKinds(stage.OutLayout(), 0)
		run := func() {
			out.Reset()
			if err := stage.RunMap(env, in, out); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if out.Len() == 0 {
			t.Fatalf("%s: no row survives; the pin measures nothing", tc.name)
		}
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("%s: %.1f allocations per warm run", tc.name, allocs)
		}
	}
}

// callCounter counts ExpandBatch calls and can fire a cancellation at one.
type callCounter struct {
	*vineyard.Store
	calls    int
	cancelAt int
	cancel   context.CancelFunc
}

func (c *callCounter) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	c.calls++
	if c.calls == c.cancelAt {
		c.cancel()
	}
	c.Store.ExpandBatch(frontier, dir, out)
}

// alternating returns a frontier of the 128- and 129-slot vertices, no two
// neighbors equal, whose adjacency adds up to at least slots.
func alternating(slots int) (f []graph.VID, total int) {
	for total < slots {
		f = append(f, 5, 6)
		total += 128 + 129
	}
	return f, total
}

// TestExpansionScratchIsBoundedByAChunk: scratch is sized by one chunk of a
// frontier, never by the frontier. A frontier ten budgets wide, fed as one
// batch, stays within the budget on a fresh arena. The widest vertex (3× the
// budget) costs its own width, copies of it cost nothing more (a run shares
// one adjacency), and the wide frontier after it does not grow the arena.
func TestExpansionScratchIsBoundedByAChunk(t *testing.T) {
	st, schema := hubGraph(t)
	c, err := exec.Compile(&ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpScan, Alias: "a", Label: hubA},
		{Kind: ir.OpExpandFused, FromAlias: "a", EdgeLabel: graph.AnyLabel, Dir: graph.Out, Alias: "b", Label: graph.AnyLabel},
	}}, exec.Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	stage := &c.Stages[1]
	run := func(env *exec.Env, f []graph.VID) int {
		in := exec.NewBatchKinds([]graph.Kind{graph.KindVertex}, 0)
		for _, v := range f {
			in.AppendRow([]graph.Value{graph.VertexValue(v)})
		}
		out := exec.NewBatchKinds(stage.OutLayout(), 0)
		if err := stage.RunMap(env, in, out); err != nil {
			t.Fatal(err)
		}
		return out.Len()
	}
	wide, total := alternating(10 * exec.SlotBudget)

	cc := &callCounter{Store: st}
	fresh := &exec.Env{Graph: cc, Arena: new(exec.Arena)}
	if rows := run(fresh, wide); rows != total {
		t.Fatalf("%d rows, want %d", rows, total)
	}
	if got := fresh.Arena.ExpandSlotCap(); got > exec.SlotBudget {
		t.Fatalf("a frontier %d slots wide left %d slots of scratch, budget %d", total, got, exec.SlotBudget)
	}
	if cc.calls < 10 {
		t.Fatalf("%d slots crossed the store in %d calls", total, cc.calls)
	}

	widestV := graph.VID(len(hubDegrees) - 1)
	widest := hubDegrees[widestV]
	env := &exec.Env{Graph: st, Arena: new(exec.Arena)}
	hubs := make([]graph.VID, 50)
	for i := range hubs {
		hubs[i] = widestV
	}
	if rows := run(env, hubs); rows != 50*widest {
		t.Fatalf("%d rows, want %d", rows, 50*widest)
	}
	run(env, wide)
	if got := env.Arena.ExpandSlotCap(); got > widest {
		t.Fatalf("scratch holds %d slots after the widest vertex (%d) and a %d-slot frontier", got, widest, total)
	}
}

// TestExpansionIsCancellableBetweenChunks: a context fired while a wide
// frontier is being expanded stops the stage before its next chunk — no
// further store call, not a frontier later — with ErrCanceled, on the calling
// goroutine alone.
func TestExpansionIsCancellableBetweenChunks(t *testing.T) {
	st, schema := hubGraph(t)
	c, err := exec.Compile(&ir.Plan{Ops: []*ir.Op{
		{Kind: ir.OpScan, Alias: "a", Label: hubA},
		{Kind: ir.OpExpandFused, FromAlias: "a", EdgeLabel: graph.AnyLabel, Dir: graph.Out, Alias: "b", Label: graph.AnyLabel},
	}}, exec.Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	// One morsel holds every A vertex: the wide ones fill the first chunk
	// eight budgets over, so the rest of the frontier crosses the store a
	// few vertices at a time, in dozens of chunks.
	const bs = 1 << 16
	clean := &callCounter{Store: st}
	if _, err := c.Run(context.Background(), &exec.Env{Graph: clean, Request: exec.Request{BatchSize: bs}}); err != nil {
		t.Fatal(err)
	}
	const at = 5
	if clean.calls < 4*at {
		t.Fatalf("a clean run makes only %d store calls; a cancellation at call %d proves nothing", clean.calls, at)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cc := &callCounter{Store: st, cancelAt: at, cancel: cancel}
	_, err = c.Run(ctx, &exec.Env{Graph: cc, Request: exec.Request{BatchSize: bs}})
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("error %v, want ErrCanceled", err)
	}
	if cc.calls != at {
		t.Fatalf("%d store calls after a cancellation at call %d (a clean run makes %d)", cc.calls, at, clean.calls)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
}

// cancelingStore counts a store's expansion calls, labelled or not, from any
// goroutine, and fires a cancellation from inside the at-th.
type cancelingStore struct {
	*vineyard.Store
	calls  atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (c *cancelingStore) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	c.Store.ExpandBatch(frontier, dir, out)
}

func (c *cancelingStore) ExpandLabelBatch(frontier []graph.VID, dir graph.Direction, elabel graph.LabelID, out *grin.AdjBatch) bool {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return c.Store.ExpandLabelBatch(frontier, dir, elabel, out)
}

// TestHubExpansionCancelsWithinAFoldedPath: a count-only 3-hop chain over a
// complete digraph on n A-vertices folds into one EXPAND_DEGREE that walks
// two hops and counts the third — n⁴ paths, none of them a row. On Gaia, a
// context fired inside the walk ends the query with ErrCanceled after at
// most one more chunk per worker, and every goroutine unwinds. Serially, far
// enough in that the first level has moved on to its next chunk, a level of
// the walk holds what one chunk of the level before it reached: the path's
// scratch stays within two slot budgets plus one vertex's adjacency, where
// the unfolded plan would have built n³ rows.
func TestHubExpansionCancelsWithinAFoldedPath(t *testing.T) {
	defer query.CheckLeaks(t)()
	// Beside the A-vertices, 2n B vertices nothing points at (too many to be
	// the cheaper scan), and one edge label whose endpoints the schema
	// leaves open, so every hop into A filters by vertex label and the
	// counted hop scans its slots.
	const n = 300
	schema := graph.NewSchema(
		[]graph.VertexLabel{{Name: "A"}, {Name: "B"}},
		[]graph.EdgeLabel{{Name: "E", Src: graph.AnyLabel, Dst: graph.AnyLabel}},
	)
	b := graph.NewBatch(schema)
	for v := 0; v < 3*n; v++ {
		b.AddVertex(graph.LabelID(min(1, v/n)), int64(v))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			b.AddEdge(0, int64(u), int64(v))
		}
	}
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cypher.Parse(`MATCH (a:A)-[:E]->(b:A)-[:E]->(c:A)-[:E]->(d:A) RETURN COUNT(*) AS paths`, schema)
	if err != nil {
		t.Fatal(err)
	}
	const par, at = 2, 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelingStore{Store: st, at: at, cancel: cancel}
	eng := gaia.NewEngine(cs, gaia.Options{Parallelism: par})
	phys, err := optimizer.Optimize(plan, eng.Catalog(), optimizer.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(phys.Ops) != 3 || phys.Ops[1].Kind != ir.OpExpandDegree || len(phys.Ops[1].Via) != 2 {
		t.Fatalf("the chain should fold into one EXPAND_DEGREE over two hops:\n%s", phys)
	}
	compiled, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, compiled, exec.Request{BatchSize: 1 << 16}); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("error %v, want ErrCanceled", err)
	}
	if got := cs.calls.Load(); got > at+par {
		t.Fatalf("%d store calls after a cancellation at call %d with %d workers", got, at, par)
	}

	const late = 1000
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cs = &cancelingStore{Store: st, at: late, cancel: cancel}
	c, err := exec.Compile(phys, exec.Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	arena := new(exec.Arena)
	if _, err := c.Run(ctx, &exec.Env{Graph: cs, Request: exec.Request{BatchSize: 1 << 16}, Arena: arena}); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("serial: error %v, want ErrCanceled", err)
	}
	if got := cs.calls.Load(); got != late {
		t.Fatalf("serial: %d store calls after a cancellation at call %d", got, late)
	}
	if got, bound := arena.PathSlotCap(), 2*exec.SlotBudget+n; got > bound {
		t.Fatalf("the walk's levels hold %d vertices, bound %d", got, bound)
	}
}
