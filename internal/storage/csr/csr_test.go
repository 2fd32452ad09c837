package csr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/grin"
)

// diamond builds 0->1, 0->2, 1->3, 2->3, 3->0.
func diamond(t *testing.T, opt Options) *Graph {
	t.Helper()
	g, err := Build(4, []Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 0, Dst: 2, Weight: 2},
		{Src: 1, Dst: 3, Weight: 3},
		{Src: 2, Dst: 3, Weight: 4},
		{Src: 3, Dst: 0, Weight: 5},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := diamond(t, Options{BuildCSC: true, Weighted: true})
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("sizes: %d %d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0, graph.Out) != 2 || g.Degree(3, graph.In) != 2 || g.Degree(0, graph.Both) != 3 {
		t.Fatal("degrees wrong")
	}
	if g.BackendName() != "csr" {
		t.Fatal("backend name")
	}
	in := 0
	for v := 0; v < g.NumVertices(); v++ {
		in += g.Degree(graph.VID(v), graph.In)
	}
	if in != g.NumEdges() {
		t.Fatalf("CSC holds %d of %d edges", in, g.NumEdges())
	}
}

func TestOutOfRangeEdgeRejected(t *testing.T) {
	if _, err := Build(2, []Edge{{Src: 0, Dst: 5}}, Options{}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestNeighborsAndAdjSlice(t *testing.T) {
	g := diamond(t, Options{BuildCSC: true, Weighted: true})
	out0 := g.AdjSlice(0, graph.Out)
	if len(out0) != 2 {
		t.Fatalf("out(0) len=%d", len(out0))
	}
	// CSR order preserves input order for vertex 0: 1 then 2.
	if out0[0].Nbr != 1 || out0[1].Nbr != 2 {
		t.Fatalf("out(0) = %v", out0)
	}
	// Edge IDs index the weight column.
	if g.EdgeWeight(out0[0].Edge) != 1 || g.EdgeWeight(out0[1].Edge) != 2 {
		t.Fatal("weights not aligned with EIDs")
	}
	in3 := g.AdjSlice(3, graph.In)
	if len(in3) != 2 {
		t.Fatalf("in(3) len=%d", len(in3))
	}
	// In-adjacency references the same EIDs as the out side.
	for _, tgt := range in3 {
		w := g.EdgeWeight(tgt.Edge)
		if w != 3 && w != 4 {
			t.Fatalf("in(3) edge weight %v", w)
		}
	}

	var collected []graph.VID
	g.Neighbors(0, graph.Both, func(n graph.VID, _ graph.EID) bool {
		collected = append(collected, n)
		return true
	})
	if len(collected) != 3 { // out: 1,2; in: 3
		t.Fatalf("Both iteration got %v", collected)
	}

	// Early termination.
	count := 0
	g.Neighbors(0, graph.Out, func(graph.VID, graph.EID) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop ignored, count=%d", count)
	}
}

func TestNoCSCDegrees(t *testing.T) {
	g := diamond(t, Options{})
	if g.Degree(3, graph.In) != 0 || g.AdjSlice(3, graph.In) != nil {
		t.Fatal("in-adjacency should be empty without CSC")
	}
}

func TestUnweightedDefaultsToOne(t *testing.T) {
	g := diamond(t, Options{})
	if grin.Weight(g, 0) != 1.0 {
		t.Fatal("unweighted EdgeWeight should be 1")
	}
}

func TestScanVerticesPredicate(t *testing.T) {
	g := diamond(t, Options{})
	var got []graph.VID
	g.ScanVertices(graph.AnyLabel, func(v graph.VID) bool { return v%2 == 0 }, func(v graph.VID) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("predicate scan got %v", got)
	}
	// Early stop.
	n := 0
	g.ScanVertices(graph.AnyLabel, nil, func(graph.VID) bool { n++; return false })
	if n != 1 {
		t.Fatal("scan early stop ignored")
	}
}

func TestGRINTraits(t *testing.T) {
	g := diamond(t, Options{Weighted: true})
	for _, tr := range []grin.Trait{grin.TraitTopology, grin.TraitAdjArray, grin.TraitWeight, grin.TraitPredicate} {
		if !grin.Has(g, tr) {
			t.Errorf("csr should provide %v", tr)
		}
	}
	for _, tr := range []grin.Trait{grin.TraitProperty, grin.TraitVersioned, grin.TraitPartition, grin.TraitIndex} {
		if grin.Has(g, tr) {
			t.Errorf("csr should not provide %v", tr)
		}
	}
	if err := grin.Require(g, "test", grin.TraitAdjArray); err != nil {
		t.Fatal(err)
	}
	err := grin.Require(g, "test", grin.TraitProperty)
	if err == nil {
		t.Fatal("Require should fail for missing property trait")
	}
	if mt, ok := err.(*grin.ErrMissingTrait); !ok || mt.Backend != "csr" || mt.Trait != grin.TraitProperty {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestPropertyDegreeSum checks sum(outdeg) == m and that every edge appears
// exactly once in the out adjacency, on random graphs.
func TestPropertyDegreeSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		m := r.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n))}
		}
		g, err := Build(n, edges, Options{BuildCSC: true})
		if err != nil {
			return false
		}
		sumOut, sumIn := 0, 0
		for v := 0; v < n; v++ {
			sumOut += g.Degree(graph.VID(v), graph.Out)
			sumIn += g.Degree(graph.VID(v), graph.In)
		}
		return sumOut == m && sumIn == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCSCMirrorsCSR checks that edge (u,v) in the out adjacency of u
// appears as (v,u) in the in adjacency of v with the same EID.
func TestPropertyCSCMirrorsCSR(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		m := r.Intn(100)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n))}
		}
		g, err := Build(n, edges, Options{BuildCSC: true})
		if err != nil {
			return false
		}
		type ek struct {
			u, v graph.VID
			e    graph.EID
		}
		outSet := make(map[ek]bool)
		for u := graph.VID(0); int(u) < n; u++ {
			for _, tgt := range g.AdjSlice(u, graph.Out) {
				outSet[ek{u, tgt.Nbr, tgt.Edge}] = true
			}
		}
		count := 0
		for v := graph.VID(0); int(v) < n; v++ {
			for _, tgt := range g.AdjSlice(v, graph.In) {
				if !outSet[ek{tgt.Nbr, v, tgt.Edge}] {
					return false
				}
				count++
			}
		}
		return count == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachNeighborHelperUsesArrayTrait(t *testing.T) {
	g := diamond(t, Options{})
	var ns []graph.VID
	grin.ForEachNeighbor(g, 0, graph.Out, func(n graph.VID, _ graph.EID) bool {
		ns = append(ns, n)
		return true
	})
	if len(ns) != 2 {
		t.Fatalf("helper iteration got %v", ns)
	}
	got := grin.CollectNeighbors(g, 0, graph.Out)
	if len(got) != 2 || got[0].Nbr != 1 {
		t.Fatalf("CollectNeighbors got %v", got)
	}
}
