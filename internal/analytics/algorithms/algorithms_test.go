package algorithms

import (
	"math"
	"testing"

	"repro/internal/analytics/grape"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/csr"
	"repro/internal/storage/vineyard"
)

// testGraph returns a deterministic power-law test graph with CSC.
func testGraph(t *testing.T) *csr.Graph {
	t.Helper()
	g, err := dataset.Datagen("t", 500, 6, 42).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refPageRank is a straightforward sequential reference.
func refPageRank(g grin.Graph, d float64, iters int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := range next {
			next[v] = (1 - d) / float64(n)
		}
		for v := 0; v < n; v++ {
			deg := g.Degree(graph.VID(v), graph.Out)
			if deg == 0 {
				continue
			}
			c := d * rank[v] / float64(deg)
			g.Neighbors(graph.VID(v), graph.Out, func(u graph.VID, _ graph.EID) bool {
				next[u] += c
				return true
			})
		}
		rank, next = next, rank
	}
	return rank
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph(t)
	for _, frags := range []int{1, 4} {
		got, err := PageRank(g, PageRankOptions{Iterations: 10, Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		want := refPageRank(g, 0.85, 10)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("frags=%d: max diff %v", frags, d)
		}
	}
}

func TestPageRankPregelMatchesPIE(t *testing.T) {
	g := testGraph(t)
	pie, err := PageRank(g, PageRankOptions{Iterations: 8, Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PageRankPregel(g, PageRankOptions{Iterations: 8, Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(pie, pr); d > 1e-9 {
		t.Fatalf("PIE and Pregel disagree: %v", d)
	}
}

// refBFS is a sequential queue BFS.
func refBFS(g grin.Graph, root graph.VID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = Unreached
	}
	dist[root] = 0
	queue := []graph.VID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Neighbors(v, graph.Out, func(u graph.VID, _ graph.EID) bool {
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
			return true
		})
	}
	return dist
}

func TestBFSMatchesReference(t *testing.T) {
	g := testGraph(t)
	for _, frags := range []int{1, 4} {
		got, err := BFS(g, 0, frags)
		if err != nil {
			t.Fatal(err)
		}
		want := refBFS(g, 0)
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("frags=%d: BFS differs by %v", frags, d)
		}
	}
}

// refSSSP is Bellman-Ford.
func refSSSP(g grin.Graph, root graph.VID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = Unreached
	}
	dist[root] = 0
	for it := 0; it < n; it++ {
		changed := false
		for v := 0; v < n; v++ {
			if dist[v] == Unreached {
				continue
			}
			g.Neighbors(graph.VID(v), graph.Out, func(u graph.VID, e graph.EID) bool {
				nd := dist[v] + grin.Weight(g, e)
				if nd < dist[u] {
					dist[u] = nd
					changed = true
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestSSSPMatchesReference(t *testing.T) {
	g, err := dataset.Datagen("t", 300, 5, 7).Weighted(8).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SSSP(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := refSSSP(g, 0)
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("SSSP differs by %v", d)
	}
}

// TestTraversalRejectsRootOutsideGraph: a root no fragment owns is an
// error, not an all-Unreached answer.
func TestTraversalRejectsRootOutsideGraph(t *testing.T) {
	g := testGraph(t)
	n := graph.VID(g.NumVertices())
	for _, root := range []graph.VID{n, n + 1, graph.NilVID} {
		if dist, err := BFS(g, root, 2); err == nil {
			t.Errorf("BFS from %d: nil error, %d distances", root, len(dist))
		}
		if dist, err := SSSP(g, root, 2); err == nil {
			t.Errorf("SSSP from %d: nil error, %d distances", root, len(dist))
		}
	}
}

// refWCC via union-find.
func refWCC(g grin.Graph) []float64 {
	n := g.NumVertices()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for v := 0; v < n; v++ {
		g.Neighbors(graph.VID(v), graph.Out, func(u graph.VID, _ graph.EID) bool {
			union(v, int(u))
			return true
		})
	}
	// Min-ID representative per component.
	minRep := make(map[int]int)
	for v := 0; v < n; v++ {
		r := find(v)
		if m, ok := minRep[r]; !ok || v < m {
			minRep[r] = v
		}
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = float64(minRep[find(v)])
	}
	return out
}

func TestWCCMatchesReference(t *testing.T) {
	// Sparse graph so multiple components exist.
	g, err := dataset.Datagen("t", 400, 1, 9).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WCC(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := refWCC(g)
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("WCC differs by %v", d)
	}
}

func TestCDLPTwoCliques(t *testing.T) {
	// Two 6-cliques joined by one edge: CDLP should produce two communities.
	var edges []csr.Edge
	addClique := func(base int) {
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if i != j {
					edges = append(edges, csr.Edge{Src: graph.VID(base + i), Dst: graph.VID(base + j)})
				}
			}
		}
	}
	addClique(0)
	addClique(6)
	edges = append(edges, csr.Edge{Src: 0, Dst: 6})
	g, err := csr.Build(12, edges, csr.Options{BuildCSC: true})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := CDLP(g, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 6; v++ {
		if labels[v] != labels[0] {
			t.Fatalf("clique 1 split: %v", labels)
		}
	}
	for v := 7; v < 12; v++ {
		if labels[v] != labels[6] {
			t.Fatalf("clique 2 split: %v", labels)
		}
	}
	if labels[0] == labels[6] {
		t.Fatalf("cliques merged: %v", labels)
	}
}

func TestModeLabel(t *testing.T) {
	if m := modeLabel([]float64{3, 1, 3, 2, 1}); m != 1 {
		// 1 and 3 both appear twice; tie goes to the smaller.
		t.Fatalf("mode = %v", m)
	}
	if m := modeLabel([]float64{5, 5, 2}); m != 5 {
		t.Fatalf("mode = %v", m)
	}
	if m := modeLabel([]float64{7}); m != 7 {
		t.Fatalf("mode = %v", m)
	}
}

func TestEquityHandExample(t *testing.T) {
	// P0 owns 0.8 of C1; P1 owns 0.2 of C1; C1 owns 0.6 of C0; P1 owns 0.4
	// of C0. Effective: C0 -> P1 with 0.4 + 0.2*0.6 = 0.52 (controller);
	// P0 has 0.48. C1 -> P0 with 0.8.
	s := dataset.EquitySchema()
	b := graph.NewBatch(s)
	base := int64(dataset.EquityCompanyExtBase)
	b.AddVertex(dataset.EquityPerson, 0, graph.StringValue("P0"))
	b.AddVertex(dataset.EquityPerson, 1, graph.StringValue("P1"))
	b.AddVertex(dataset.EquityCompany, base+0, graph.StringValue("C0"))
	b.AddVertex(dataset.EquityCompany, base+1, graph.StringValue("C1"))
	b.AddEdge(dataset.EquityOwns, 0, base+1, graph.FloatValue(0.8))
	b.AddEdge(dataset.EquityOwns, 1, base+1, graph.FloatValue(0.2))
	b.AddEdge(dataset.EquityOwns, base+1, base+0, graph.FloatValue(0.6))
	b.AddEdge(dataset.EquityOwns, 1, base+0, graph.FloatValue(0.4))
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	pLo, pHi, _ := st.LabelRange(dataset.EquityPerson)
	res, err := Equity(st, pLo, pHi, EquityOptions{Fragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := st.LookupVertex(dataset.EquityPerson, 0)
	p1, _ := st.LookupVertex(dataset.EquityPerson, 1)
	c0, _ := st.LookupVertex(dataset.EquityCompany, base+0)
	c1, _ := st.LookupVertex(dataset.EquityCompany, base+1)

	if res.Controller[c0] != p1 {
		t.Fatalf("C0 controller = %v want P1(%v); shares %v", res.Controller[c0], p1, res.Shares[c0])
	}
	if math.Abs(res.Share[c0]-0.52) > 1e-9 {
		t.Fatalf("C0 controlling share = %v", res.Share[c0])
	}
	if got := res.Shares[c0][uint32(p0)]; math.Abs(got-0.48) > 1e-9 {
		t.Fatalf("C0 P0 share = %v", got)
	}
	if res.Controller[c1] != p0 || math.Abs(res.Share[c1]-0.8) > 1e-9 {
		t.Fatalf("C1 controller = %v share %v", res.Controller[c1], res.Share[c1])
	}
	// Persons have no controller.
	if res.Controller[p0] != graph.NilVID {
		t.Fatal("person should have no controller")
	}
}

// TestEquityDepthCapOnCycle: two companies own each other and one person
// owns one of them, so shares circle until MaxDepth stops them (Epsilon is
// far below every share that flows). P0 owns 0.6 of C0, C0 owns 0.5 of C1,
// C1 owns 0.4 of C0; a share reaches MaxDepth-1 edges from P0, so the
// series are truncated by hand: C0 gets 0.6, +0.12 at depth 3, +0.024 at
// depth 5; C1 gets 0.3 at depth 2, +0.06 at depth 4.
func TestEquityDepthCapOnCycle(t *testing.T) {
	s := dataset.EquitySchema()
	b := graph.NewBatch(s)
	base := int64(dataset.EquityCompanyExtBase)
	b.AddVertex(dataset.EquityPerson, 0, graph.StringValue("P0"))
	b.AddVertex(dataset.EquityCompany, base+0, graph.StringValue("C0"))
	b.AddVertex(dataset.EquityCompany, base+1, graph.StringValue("C1"))
	b.AddEdge(dataset.EquityOwns, 0, base+0, graph.FloatValue(0.6))
	b.AddEdge(dataset.EquityOwns, base+0, base+1, graph.FloatValue(0.5))
	b.AddEdge(dataset.EquityOwns, base+1, base+0, graph.FloatValue(0.4))
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	pLo, pHi, _ := st.LabelRange(dataset.EquityPerson)
	p0, _ := st.LookupVertex(dataset.EquityPerson, 0)
	c0, _ := st.LookupVertex(dataset.EquityCompany, base+0)
	c1, _ := st.LookupVertex(dataset.EquityCompany, base+1)
	for _, tc := range []struct {
		depth  int
		c0, c1 float64 // P0's share; 0 means P0 never reached the company
	}{
		{1, 0, 0},
		{2, 0.6, 0},
		{3, 0.6, 0.3},
		{4, 0.72, 0.3},
		{6, 0.744, 0.36},
	} {
		for _, frags := range []int{1, 2, 3} {
			res, err := Equity(st, pLo, pHi, EquityOptions{Epsilon: 1e-12, MaxDepth: tc.depth, Fragments: frags})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				v    graph.VID
				want float64
			}{{c0, tc.c0}, {c1, tc.c1}} {
				got := res.Shares[c.v]
				if c.want == 0 {
					if len(got) != 0 {
						t.Errorf("depth=%d frags=%d: vertex %d shares %v, want none", tc.depth, frags, c.v, got)
					}
					continue
				}
				if len(got) != 1 || math.Abs(got[uint32(p0)]-c.want) > 1e-12 {
					t.Errorf("depth=%d frags=%d: vertex %d shares %v, want P0 %v", tc.depth, frags, c.v, got, c.want)
				}
			}
			if len(res.Shares[p0]) != 0 {
				t.Errorf("depth=%d frags=%d: the person was reached: %v", tc.depth, frags, res.Shares[p0])
			}
		}
	}
}

func TestEquityGeneratedConservation(t *testing.T) {
	b := dataset.Equity(dataset.EquityOptions{Persons: 30, Companies: 120, Seed: 5})
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	pLo, pHi, _ := st.LabelRange(dataset.EquityPerson)
	res, err := Equity(st, pLo, pHi, EquityOptions{Fragments: 4, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// Total person-share of every company sums to ~1 (shares are conserved
	// down the acyclic ownership structure).
	cLo, cHi, _ := st.LabelRange(dataset.EquityCompany)
	for c := cLo; c < cHi; c++ {
		sum := 0.0
		for _, s := range res.Shares[c] {
			sum += s
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("company %d person-shares sum to %v", c, sum)
		}
	}
}

// TestEquityDeliveryBoundedByDepth: each (company, holder) pair forwards at
// most once per superstep, so a run delivers at most MaxDepth × edges ×
// holders messages however many ownership paths there are. Forwarding every
// arriving message on its own delivered 6 038 426 here.
func TestEquityDeliveryBoundedByDepth(t *testing.T) {
	g, err := dataset.Datagen("t", 500, 6, 42).Weighted(15).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	const holders = 125
	opt := EquityOptions{Epsilon: 0.05, MaxDepth: 7, Fragments: 2}
	opt.defaults()
	eng, err := grape.NewEngine(g, grape.Options{Fragments: opt.Fragments})
	if err != nil {
		t.Fatal(err)
	}
	var st grape.RunStats
	eng.CollectStats(&st)
	prog := &equityPIE{g: g, opt: opt, holderLo: 0, holderHi: holders, acc: make([]map[uint32]float64, g.NumVertices())}
	if _, err := eng.Run(prog); err != nil {
		t.Fatal(err)
	}
	if bound := int64(opt.MaxDepth) * int64(g.NumEdges()) * holders; st.Delivered > bound {
		t.Fatalf("delivered %d messages, bound %d", st.Delivered, bound)
	}
}
