package algorithms

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/analytics/grape"
	"repro/internal/analytics/pregel"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/chaos"
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

// pageRankPregel is PageRank expressed in the vertex-centric Pregel API as
// a push along out-edges, to cross-validate the two programming models.
func pageRankPregel(g grin.Graph, opt PageRankOptions) ([]float64, error) {
	opt.defaults()
	vals, _, err := pregel.Run(g, &prVertexProgram{n: float64(g.NumVertices()), opt: opt},
		grape.Options{Fragments: opt.Fragments})
	return vals, err
}

type prVertexProgram struct {
	n   float64
	opt PageRankOptions
}

// Exchange implements pregel.Program: Sum-combined sends along out-edges.
func (p *prVertexProgram) Exchange() grape.Exchange {
	return grape.Exchange{Combine: grape.Sum, Walk: graph.Out}
}

// Init implements pregel.Program.
func (p *prVertexProgram) Init(graph.VID, grin.Graph) float64 { return 0 }

// Compute implements pregel.Program.
func (p *prVertexProgram) Compute(vc *pregel.VertexContext, msgs []float64) {
	switch {
	case vc.Superstep() == 0:
		vc.SetValue(1.0 / p.n)
	default:
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		vc.SetValue((1-p.opt.Damping)/p.n + p.opt.Damping*sum)
	}
	if vc.Superstep() < p.opt.Iterations {
		if d := vc.Degree(graph.Out); d > 0 {
			vc.SendToNeighbors(graph.Out, vc.Value()/float64(d))
		}
	} else {
		vc.VoteToHalt()
	}
}

func TestPageRankPregelMatchesPIE(t *testing.T) {
	g := testGraph(t)
	pie, err := PageRank(g, PageRankOptions{Iterations: 8, Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pageRankPregel(g, PageRankOptions{Iterations: 8, Fragments: 4})
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

// TestSSSPNegativeCycle: a negative cycle the root reaches ends the run
// with errNegativeCycle instead of relaxing it forever.
func TestSSSPNegativeCycle(t *testing.T) {
	g, err := csr.Build(3, []csr.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: -2}, {Src: 2, Dst: 1, Weight: 1}},
		csr.Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for frags := 1; frags <= 3; frags++ {
		done := make(chan error, 1)
		go func() {
			_, err := SSSP(g, 0, frags)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, errNegativeCycle) {
				t.Fatalf("frags=%d: err %v, want %v", frags, err, errNegativeCycle)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frags=%d: SSSP still running after 10 s", frags)
		}
	}
}

// TestSSSPNegativeWeights: negative weights without a negative cycle the
// root reaches still give Bellman-Ford's distances, exactly (the weights
// are integers).
func TestSSSPNegativeWeights(t *testing.T) {
	d := dataset.Datagen("t", 300, 5, 7)
	var edges []csr.Edge
	for i := range d.Src {
		u, v := d.Src[i], d.Dst[i]
		if u == v {
			continue
		}
		if u > v { // low → high: no cycle at all
			u, v = v, u
		}
		edges = append(edges, csr.Edge{Src: u, Dst: v, Weight: float64(i%11 - 5)})
	}
	// A negative cycle on two vertices of their own, which root 0 does not
	// reach.
	edges = append(edges, csr.Edge{Src: 300, Dst: 301, Weight: -2}, csr.Edge{Src: 301, Dst: 300, Weight: 1})
	g, err := csr.Build(302, edges, csr.Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	want := refSSSP(g, 0)
	for frags := 1; frags <= 3; frags++ {
		got, err := SSSP(g, 0, frags)
		if err != nil {
			t.Fatalf("frags=%d: %v", frags, err)
		}
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("frags=%d: SSSP differs by %v", frags, d)
		}
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

// wccCutGraphs are TestWCCAcrossCuts' inputs: shapes where a label must
// cross cuts many times, arrive at a component member that is not its
// fragment-local root, or reach a fragment's vertices only through an outer
// vertex, their root there.
func wccCutGraphs() map[string]*dataset.Simple {
	// 0–15–1–14–…–8, edges alternately forward and backward: every hop
	// crosses the cut of any split into lower and upper IDs.
	zigzag := &dataset.Simple{N: 16}
	seq := []graph.VID{0}
	for lo, hi := graph.VID(1), graph.VID(15); lo <= hi; lo, hi = lo+1, hi-1 {
		seq = append(seq, hi)
		if lo < hi {
			seq = append(seq, lo)
		}
	}
	for i := 1; i < len(seq); i++ {
		a, b := seq[i-1], seq[i]
		if i%2 == 0 {
			a, b = b, a
		}
		zigzag.Src, zigzag.Dst = append(zigzag.Src, a), append(zigzag.Dst, b)
	}
	edges := func(n int, pairs ...graph.VID) *dataset.Simple {
		s := &dataset.Simple{N: n}
		for i := 0; i < len(pairs); i += 2 {
			s.Src, s.Dst = append(s.Src, pairs[i]), append(s.Dst, pairs[i+1])
		}
		return s
	}
	return map[string]*dataset.Simple{
		"zigzag": zigzag,
		// A heavy low end, then components that live in the high IDs only:
		// their minimum is in the last fragment. 1→21 and 3←20 land on
		// members that are not 19's or 18's fragment-local roots.
		"tail": edges(24,
			0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 2, 2, 3,
			19, 21, 21, 22, 1, 21, // 1 reaches 19–21–22 at 21
			18, 20, 20, 3, // 3 reaches 18–20 at 20
			23, 17, 16, 23, // 16–23–17
			14, 13), // 13–14
		// Mostly isolated vertices, one long edge from the top down.
		"isolated": edges(12, 11, 5),
		// Hub 6 outweighs any share, so n+1 fragments leave some empty; a
		// chain of high IDs leans back toward the hub.
		"hub": edges(13,
			6, 0, 6, 1, 6, 2, 6, 3, 6, 4, 6, 5, 6, 7, 6, 8,
			12, 11, 11, 10, 10, 9, 9, 8),
		// At three fragments 0–1–2 and 3–4–5 each fill one, and only the
		// sink 8, which the third owns and which records no pair, joins
		// them: every fragment needs the other fragments' pairs.
		"sink": edges(9,
			0, 1, 1, 2, 2, 8,
			3, 4, 4, 5, 5, 8,
			6, 7, 7, 6),
		// At three fragments ([0, 4), [4, 8), [8, 12)) the chain 0–1 → 4–5
		// → 8–9 → 2–3 takes one join from each fragment, and every cut edge
		// lands on a vertex that is not its local root.
		"chain3": edges(12,
			0, 1, 1, 5, 2, 3,
			4, 5, 5, 9, 6, 7,
			8, 9, 9, 3, 10, 11),
		// The sink 0 joins 6, 7 and 8, which fall in a higher fragment at
		// two and three fragments ([6, 9) and [7, 9)): their root there is
		// the outer vertex 0, whose owner publishes 0 itself.
		"outer-root": edges(9, 6, 0, 7, 0, 8, 0),
		// The same through the sink 1, whose owner publishes 0 (0→1). At two
		// fragments [6, 9) and at three [4, 8) and [8, 9) root 6–8 at the
		// outer 1; 8 also reaches the sink 2, which is not its tree's root
		// there and whose owner publishes 2 itself.
		"outer-root-moved": edges(9, 0, 1, 6, 1, 7, 1, 8, 1, 8, 2),
	}
}

// TestWCCAcrossCuts compares WCC exactly with refWCC where labels cross cuts
// hop by hop, where a message reaches a component member other than its
// root, on isolated vertices and on empty fragments, on csr and on the
// masked store.
func TestWCCAcrossCuts(t *testing.T) {
	for name, s := range wccCutGraphs() {
		g, err := s.ToCSR(true)
		if err != nil {
			t.Fatal(err)
		}
		want := refWCC(g)
		stores := map[string]grin.Graph{
			"csr":    g,
			"masked": chaos.Wrap(topologyOnly{g, g}, chaos.Options{}),
		}
		for storeName, store := range stores {
			for _, frags := range []int{1, 2, 3, 7, s.N + 1} {
				got, err := WCC(store, frags)
				if err == nil {
					err = sameFloats(got, want, true)
				}
				if err != nil {
					t.Errorf("%s/%s/frags=%d: %v", name, storeName, frags, err)
				}
			}
		}
	}
}

// TestInEdgesRequired: CDLP sends along both directions and PageRank pulls
// over in-edges, so a store that does not answer in-edges (a CSR built
// without them) is an error, not a wrong answer: on 1→0 CDLP read [1 1], and
// PageRank would give every vertex the base rank. WCC walks out-edges only,
// so it answers such a store correctly.
func TestInEdgesRequired(t *testing.T) {
	s := &dataset.Simple{N: 2, Src: []graph.VID{1}, Dst: []graph.VID{0}}
	outOnly, err := s.ToCSR(false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := WCC(outOnly, 1); err != nil || !slices.Equal(got, []float64{0, 0}) {
		t.Errorf("WCC without in-edges: %v, %v; want [0 0]", got, err)
	}
	if got, err := CDLP(outOnly, 2, 1); !errors.Is(err, errNoInEdges) {
		t.Errorf("CDLP without in-edges: %v, %v; want errNoInEdges", got, err)
	}
	if got, err := PageRank(outOnly, PageRankOptions{Iterations: 2, Fragments: 1}); !errors.Is(err, errNoInEdges) {
		t.Errorf("PageRank without in-edges: %v, %v; want errNoInEdges", got, err)
	}
	both, err := s.ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() ([]float64, error)
		want []float64
	}{
		{"WCC", func() ([]float64, error) { return WCC(both, 1) }, []float64{0, 0}},
		{"CDLP", func() ([]float64, error) { return CDLP(both, 2, 1) }, []float64{0, 1}},
		{"PageRank", func() ([]float64, error) {
			return PageRank(both, PageRankOptions{Iterations: 2, Fragments: 1})
		}, loopPageRank(both, 0.85, 2)},
	} {
		got, err := tc.run()
		if err == nil {
			err = sameFloats(got, tc.want, true)
		}
		if err != nil {
			t.Errorf("%s with in-edges: %v", tc.name, err)
		}
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
// arriving message on its own delivered 6 038 426 here. The weights are not
// share fractions (a vertex's incoming weights sum to about 3), so Equity
// refuses the input with an *OverOwnedError; the program runs on the engine
// directly.
func TestEquityDeliveryBoundedByDepth(t *testing.T) {
	g, err := dataset.Datagen("t", 500, 6, 42).Weighted(15).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	const holders = 125
	opt := EquityOptions{Epsilon: 0.05, MaxDepth: 7, Fragments: 2}
	var over *OverOwnedError
	if _, err := Equity(g, 0, holders, opt); !errors.As(err, &over) {
		t.Fatalf("Equity on weights that are not fractions: %v, want an *OverOwnedError", err)
	}
	in := 0.0
	g.Neighbors(over.Company, graph.In, func(_ graph.VID, e graph.EID) bool {
		in += grin.Weight(g, e)
		return true
	})
	if over.Sum <= 1+1e-9 || math.Abs(over.Sum-in) > 1e-12 {
		t.Fatalf("%v: the company's incoming weights sum to %v", over, in)
	}
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
