package gart

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
)

func socialSchema() *graph.Schema {
	return graph.NewSchema(
		[]graph.VertexLabel{
			{Name: "Account", Props: []graph.PropDef{{Name: "name", Kind: graph.KindString}, {Name: "score", Kind: graph.KindInt}}},
			{Name: "Item", Props: []graph.PropDef{{Name: "price", Kind: graph.KindFloat}}},
		},
		[]graph.EdgeLabel{
			{Name: "Knows", Src: 0, Dst: 0},
			{Name: "Buy", Src: 0, Dst: 1, Props: []graph.PropDef{{Name: "date", Kind: graph.KindInt}}},
		},
	)
}

func seeded(t *testing.T) *Store {
	t.Helper()
	s := NewStore(socialSchema(), 4)
	for i := int64(0); i < 5; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("acct"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddVertex(1, 100, graph.FloatValue(9.9)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(1, 0, 100, graph.IntValue(20240101)); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	return s
}

func degreeOf(sn *Snapshot, label graph.LabelID, ext int64, dir graph.Direction) int {
	v, ok := sn.LookupVertex(label, ext)
	if !ok {
		return -1
	}
	return sn.Degree(v, dir)
}

func TestVisibilityAcrossVersions(t *testing.T) {
	s := seeded(t)
	v1 := s.ReadVersion()
	sn1 := s.Latest()

	if sn1.NumVertices() != 6 || sn1.NumEdges() != 3 {
		t.Fatalf("v1 sizes: %d %d", sn1.NumVertices(), sn1.NumEdges())
	}

	// Uncommitted writes are invisible to the pinned snapshot and to new
	// snapshots at the old version.
	if err := s.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if degreeOf(sn1, 0, 1, graph.Out) != 0 {
		t.Fatal("uncommitted edge visible to pinned snapshot")
	}
	v2 := s.Commit()
	if v2 != v1+1 {
		t.Fatalf("commit version %d", v2)
	}
	if degreeOf(sn1, 0, 1, graph.Out) != 0 {
		t.Fatal("new edge leaked into old snapshot")
	}
	sn2 := s.Latest()
	if degreeOf(sn2, 0, 1, graph.Out) != 1 {
		t.Fatal("committed edge missing from new snapshot")
	}

	// Snapshot(version) time travel.
	back := s.Snapshot(v1).(*Snapshot)
	if back.NumEdges() != 3 {
		t.Fatal("time-travel snapshot wrong")
	}
	// Clamps future versions.
	fut := s.Snapshot(v2 + 100).(*Snapshot)
	if fut.Version() != v2 {
		t.Fatal("future version not clamped")
	}
}

func TestDeleteEdgeMVCC(t *testing.T) {
	s := seeded(t)
	snOld := s.Latest()
	n, err := s.DeleteEdge(0, 0, 1)
	if err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	s.Commit()
	snNew := s.Latest()

	if degreeOf(snOld, 0, 0, graph.Out) != 3 {
		t.Fatal("deletion visible to old snapshot")
	}
	if degreeOf(snNew, 0, 0, graph.Out) != 2 {
		t.Fatal("deletion not visible to new snapshot")
	}
	// In-adjacency tombstoned too.
	if degreeOf(snNew, 0, 1, graph.In) != 0 {
		t.Fatal("in-edge not tombstoned")
	}
	if degreeOf(snOld, 0, 1, graph.In) != 1 {
		t.Fatal("old snapshot lost in-edge")
	}
	// Deleting a non-existent pair removes nothing.
	n, err = s.DeleteEdge(0, 3, 4)
	if err != nil || n != 0 {
		t.Fatalf("phantom delete: %d %v", n, err)
	}
	if _, err := s.DeleteEdge(0, 999, 1); err == nil {
		t.Fatal("unknown src accepted")
	}
}

func TestVertexPropMVCC(t *testing.T) {
	s := seeded(t)
	snOld := s.Latest()
	v, _ := snOld.LookupVertex(0, 3)

	if err := s.SetVertexProp(0, 3, 1, graph.IntValue(999)); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	snNew := s.Latest()

	if got, _ := snOld.VertexProp(v, 1); got.Int() != 3 {
		t.Fatalf("old snapshot sees updated prop: %v", got)
	}
	if got, _ := snNew.VertexProp(v, 1); got.Int() != 999 {
		t.Fatalf("new snapshot missing update: %v", got)
	}

	// Second update builds a longer chain.
	if err := s.SetVertexProp(0, 3, 1, graph.IntValue(1000)); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	if got, _ := snOld.VertexProp(v, 1); got.Int() != 3 {
		t.Fatal("old snapshot drifted after second update")
	}
	if got, _ := snNew.VertexProp(v, 1); got.Int() != 999 {
		t.Fatal("middle snapshot should see first update")
	}
	if got, _ := s.Latest().VertexProp(v, 1); got.Int() != 1000 {
		t.Fatal("latest missing second update")
	}

	if err := s.SetVertexProp(0, 999, 1, graph.IntValue(1)); err == nil {
		t.Fatal("unknown vertex accepted")
	}
	if err := s.SetVertexProp(0, 3, 99, graph.IntValue(1)); err == nil {
		t.Fatal("unknown prop accepted")
	}
}

func TestVertexVisibility(t *testing.T) {
	s := seeded(t)
	snOld := s.Latest()
	if err := s.AddVertex(0, 50, graph.StringValue("new"), graph.IntValue(0)); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	if _, ok := snOld.LookupVertex(0, 50); ok {
		t.Fatal("new vertex visible in old snapshot")
	}
	if snOld.NumVertices() != 6 {
		t.Fatalf("old snapshot vertex count %d", snOld.NumVertices())
	}
	snNew := s.Latest()
	if _, ok := snNew.LookupVertex(0, 50); !ok {
		t.Fatal("new vertex missing in new snapshot")
	}
	if snNew.NumVertices() != 7 {
		t.Fatalf("new snapshot vertex count %d", snNew.NumVertices())
	}
}

func TestSegmentChainGrowth(t *testing.T) {
	// Segment size 4 forces chains; 20 edges = 5 segments.
	s := NewStore(socialSchema(), 4)
	if err := s.AddVertex(0, 0, graph.StringValue("hub"), graph.IntValue(0)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("x"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdge(0, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()
	sn := s.Latest()
	if d := degreeOf(sn, 0, 0, graph.Out); d != 20 {
		t.Fatalf("hub degree %d", d)
	}
	// Order is insertion order.
	var exts []int64
	hub, _ := sn.LookupVertex(0, 0)
	sn.Neighbors(hub, graph.Out, func(n graph.VID, _ graph.EID) bool {
		exts = append(exts, sn.ExternalID(n))
		return true
	})
	for i, e := range exts {
		if e != int64(i+1) {
			t.Fatalf("insertion order broken at %d: %v", i, exts)
		}
	}
}

func TestEdgePropsAndWeights(t *testing.T) {
	s := seeded(t)
	sn := s.Latest()
	acct0, _ := sn.LookupVertex(0, 0)
	found := false
	sn.Neighbors(acct0, graph.Out, func(n graph.VID, e graph.EID) bool {
		if sn.EdgeLabel(e) == 1 {
			found = true
			if v, ok := sn.EdgeProp(e, 0); !ok || v.Int() != 20240101 {
				t.Fatalf("Buy.date = %v", v)
			}
		}
		return true
	})
	if !found {
		t.Fatal("Buy edge missing")
	}
	if sn.EdgeWeight(0) != 1.0 {
		t.Fatal("weightless edge should default to 1")
	}
}

func TestScanVerticesByLabel(t *testing.T) {
	s := seeded(t)
	sn := s.Latest()
	count := 0
	sn.ScanVertices(0, nil, func(v graph.VID) bool {
		if sn.VertexLabel(v) != 0 {
			t.Fatal("wrong label yielded")
		}
		count++
		return true
	})
	if count != 5 {
		t.Fatalf("account scan count %d", count)
	}
	// GART has no contiguous label ranges.
	if _, _, ok := sn.LabelRange(0); ok {
		t.Fatal("GART should not claim per-label ranges")
	}
	if lo, hi, ok := sn.LabelRange(graph.AnyLabel); !ok || lo != 0 || hi != 6 {
		t.Fatalf("AnyLabel range [%d,%d) ok=%v", lo, hi, ok)
	}
	// ScanLabel helper works through the predicate fallback.
	count = 0
	grin.ScanLabel(sn, 1, func(graph.VID) bool { count++; return true })
	if count != 1 {
		t.Fatalf("ScanLabel(Item) = %d", count)
	}
}

func TestErrorPaths(t *testing.T) {
	s := NewStore(socialSchema(), 0)
	if err := s.AddVertex(99, 1); err == nil {
		t.Fatal("bad label accepted")
	}
	if err := s.AddVertex(0, 1, graph.StringValue("a"), graph.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVertex(0, 1, graph.StringValue("b"), graph.IntValue(2)); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := s.AddEdge(99, 1, 1); err == nil {
		t.Fatal("bad edge label accepted")
	}
	if err := s.AddEdge(0, 1, 42); err == nil {
		t.Fatal("dangling dst accepted")
	}
	if err := s.AddEdge(0, 42, 1); err == nil {
		t.Fatal("dangling src accepted")
	}
	if err := s.AddVertex(0, 2, graph.FloatValue(3.3), graph.IntValue(1)); err == nil {
		t.Fatal("wrong prop kind accepted")
	}
}

func TestLoadBatch(t *testing.T) {
	sch := socialSchema()
	b := graph.NewBatch(sch)
	b.AddVertex(0, 1, graph.StringValue("a"), graph.IntValue(1))
	b.AddVertex(0, 2, graph.StringValue("b"), graph.IntValue(2))
	b.AddEdge(0, 1, 2)
	s := NewStore(sch, 0)
	if err := s.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 2 || s.NumEdges() != 1 {
		t.Fatalf("sizes %d %d", s.NumVertices(), s.NumEdges())
	}
	if s.BackendName() != "gart" || s.Latest().BackendName() != "gart" {
		t.Fatal("backend name")
	}
}

// TestConcurrentReadersWithWriter validates the MVCC contract under the race
// detector: readers on a pinned snapshot observe a frozen edge count while a
// writer appends and commits continuously.
func TestConcurrentReadersWithWriter(t *testing.T) {
	s := NewStore(socialSchema(), 8)
	const hubExt = 0
	if err := s.AddVertex(0, hubExt, graph.StringValue("hub"), graph.IntValue(0)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 50; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("x"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 10; i++ {
		if err := s.AddEdge(0, hubExt, i); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()

	pinned := s.Latest()
	hub, _ := pinned.LookupVertex(0, hubExt)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := pinned.Degree(hub, graph.Out); d != 10 {
					t.Errorf("pinned snapshot degree drifted: %d", d)
					return
				}
			}
		}()
	}
	for i := int64(11); i <= 50; i++ {
		if err := s.AddEdge(0, hubExt, i); err != nil {
			t.Fatal(err)
		}
		s.Commit()
	}
	close(stop)
	wg.Wait()

	if d := degreeOf(s.Latest(), 0, hubExt, graph.Out); d != 50 {
		t.Fatalf("final degree %d", d)
	}
}

// TestConcurrentReadersWithVertexWriter runs every lock-free read path —
// ExpandBatch, Neighbors, ExternalID, VertexLabel, ScanBatch, label gathers —
// beside a writer that adds vertices (crossing several vertex-table chunks,
// so the chunk directory is republished under the readers) and edges. The
// readers check what a pinned snapshot promises; the race detector checks the
// publication protocol.
func TestConcurrentReadersWithVertexWriter(t *testing.T) {
	s := NewStore(socialSchema(), 0)
	const hubExt, base, added = 0, 40, 3 * vchunkSize
	for i := int64(0); i < base; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("x"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i < base; i++ {
		if err := s.AddEdge(0, hubExt, i); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()
	pinned := s.Latest()
	hub, _ := pinned.LookupVertex(0, hubExt)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var adj grin.AdjBatch
			buf := make([]graph.VID, 64)
			labels := make([]graph.LabelID, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The pinned snapshot keeps its frontier and vertex set.
				pinned.ExpandBatch([]graph.VID{hub, graph.VID(base + 5), graph.NilVID}, graph.Both, &adj)
				if lo, hi := adj.Range(0); hi-lo != base-1 {
					t.Errorf("pinned hub expansion drifted: %d", hi-lo)
					return
				}
				if lo, hi := adj.Range(1); hi != lo {
					t.Errorf("vertex newer than the snapshot has %d visible edges", hi-lo)
					return
				}
				if n := pinned.NumVertices(); n != base {
					t.Errorf("pinned vertex count drifted: %d", n)
					return
				}
				seen := 0
				for next := graph.VID(0); next != graph.NilVID; {
					var n int
					n, next = pinned.ScanBatch(0, next, buf)
					seen += n
				}
				if seen != base {
					t.Errorf("pinned scan saw %d vertices", seen)
					return
				}
				// The latest snapshot walks whatever is published so far; every
				// neighbor it reaches must resolve through the lock-free table.
				latest := s.Latest()
				latest.Neighbors(hub, graph.Out, func(n graph.VID, _ graph.EID) bool {
					if latest.ExternalID(n) < 0 || latest.VertexLabel(n) != 0 {
						t.Errorf("neighbor %d unresolved: ext %d label %d", n, latest.ExternalID(n), latest.VertexLabel(n))
						return false
					}
					return true
				})
				n, _ := latest.ScanBatch(graph.AnyLabel, graph.VID(latest.NumVertices()-1), buf)
				latest.GatherVertexLabels(buf[:n], labels[:n])
			}
		}()
	}
	for i := int64(base); i < base+added; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("new"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdge(0, hubExt, i); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdge(0, i, hubExt); err != nil {
			t.Fatal(err)
		}
		s.Commit()
	}
	close(stop)
	wg.Wait()

	final := s.Latest()
	if n := final.NumVertices(); n != base+added {
		t.Fatalf("final vertex count %d", n)
	}
	if d := final.Degree(hub, graph.Out); d != base-1+added {
		t.Fatalf("final hub out-degree %d", d)
	}
	if got := final.ExternalID(graph.VID(base + added - 1)); got != base+added-1 {
		t.Fatalf("last vertex external id %d", got)
	}
}

// segmentCaps returns the capacities of one vertex's out-chain segments.
func segmentCaps(s *Store, v graph.VID) []int {
	var caps []int
	for seg := s.table().slot(v).out.head.Load(); seg != nil; seg = seg.next.Load() {
		caps = append(caps, len(seg.entries))
	}
	return caps
}

// TestGeometricSegmentGrowth pins the segment-size schedule — 4, 8, … up to
// the store's segment size, every later segment at that size; a segment size
// of 4 or less stays fixed (the ablation setting) — and that growing through
// it keeps insertion order and MVCC visibility.
func TestGeometricSegmentGrowth(t *testing.T) {
	cases := []struct {
		segSize int
		edges   int
		want    []int
	}{
		{0, 200, []int{4, 8, 16, 32, 64, 64, 64}},
		{16, 50, []int{4, 8, 16, 16, 16}},
		{4, 10, []int{4, 4, 4}},
		{2, 5, []int{2, 2, 2}},
		{1, 3, []int{1, 1, 1}},
	}
	for _, tc := range cases {
		s := NewStore(socialSchema(), tc.segSize)
		for i := int64(0); i <= int64(tc.edges); i++ {
			if err := s.AddVertex(0, i, graph.StringValue("x"), graph.IntValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		// One commit per edge: version v sees exactly the first v edges.
		for i := int64(1); i <= int64(tc.edges); i++ {
			if err := s.AddEdge(0, 0, i); err != nil {
				t.Fatal(err)
			}
			s.Commit()
		}
		hub, _ := s.Latest().LookupVertex(0, 0)
		got := segmentCaps(s, hub)
		if len(got) != len(tc.want) {
			t.Fatalf("segSize %d: segment capacities %v, want %v", tc.segSize, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("segSize %d: segment capacities %v, want %v", tc.segSize, got, tc.want)
			}
		}
		first := s.ReadVersion() - uint64(tc.edges)
		for _, k := range []int{0, 1, 4, 5, 12, 13, tc.edges} {
			if k > tc.edges {
				continue
			}
			sn := s.Snapshot(first + uint64(k)).(*Snapshot)
			var exts []int64
			sn.Neighbors(hub, graph.Out, func(n graph.VID, _ graph.EID) bool {
				exts = append(exts, sn.ExternalID(n))
				return true
			})
			if len(exts) != k {
				t.Fatalf("segSize %d: version +%d sees %d edges", tc.segSize, k, len(exts))
			}
			for i, e := range exts {
				if e != int64(i+1) {
					t.Fatalf("segSize %d: insertion order broken at %d: %v", tc.segSize, i, exts)
				}
			}
			var adj grin.AdjBatch
			sn.ExpandBatch([]graph.VID{hub}, graph.Out, &adj)
			if lo, hi := adj.Range(0); hi-lo != k {
				t.Fatalf("segSize %d: ExpandBatch at +%d sees %d edges", tc.segSize, k, hi-lo)
			}
		}
		// A tombstone in a small early segment stays invisible from its commit on.
		if n, err := s.DeleteEdge(0, 0, 2); err != nil || n != 1 {
			t.Fatalf("delete: %d %v", n, err)
		}
		before := s.Latest()
		s.Commit()
		if d := before.Degree(hub, graph.Out); d != tc.edges {
			t.Fatalf("segSize %d: uncommitted delete visible (%d)", tc.segSize, d)
		}
		if d := s.Latest().Degree(hub, graph.Out); d != tc.edges-1 {
			t.Fatalf("segSize %d: delete not visible (%d)", tc.segSize, d)
		}
	}
}
