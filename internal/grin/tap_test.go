package grin_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/column"
	"repro/internal/storage/gart"
	"repro/internal/storage/graphar"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/vineyard"
)

// event is one closed site call as a hook sees it.
type event struct {
	site grin.Site
	rows int
}

// recorder is the hook a span recorder would be, minus the clock: Before
// hands out a token, After must bring back the token of a Before at the same
// site — that pairing is what lets a timing hook keep its start time without
// per-goroutine state — and the closed calls are kept in order.
type recorder struct {
	mu       sync.Mutex
	degrade  bool // what Before asks of every site
	next     int64
	open     map[int64]grin.Site
	unpaired int
	events   []event
}

func (r *recorder) Before(s grin.Site) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.open == nil {
		r.open = map[int64]grin.Site{}
	}
	r.next++
	r.open[r.next] = s
	return r.next, r.degrade
}

func (r *recorder) After(s grin.Site, token int64, rows int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.open[token]; !ok || got != s {
		r.unpaired++
	}
	delete(r.open, token)
	r.events = append(r.events, event{s, rows})
}

func snbBatch() *graph.Batch { return dataset.SNB(dataset.SNBOptions{Persons: 40, Seed: 3}) }

func loadVineyard(t *testing.T, b *graph.Batch) *vineyard.Store {
	t.Helper()
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func loadGart(t *testing.T, b *graph.Batch) *gart.Store {
	t.Helper()
	gs := gart.NewStore(b.Schema, 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	return gs
}

// fiveBackends loads one simple graph into every storage backend.
func fiveBackends(t *testing.T) map[string]grin.Graph {
	t.Helper()
	simple := dataset.Datagen("tap", 200, 4, 3)
	b := simple.ToBatch()
	dir := t.TempDir()
	if err := graphar.Write(dir, b, graphar.Options{ChunkSize: 64}); err != nil {
		t.Fatal(err)
	}
	ga, err := graphar.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ga.Close() })
	cg, err := simple.ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	lg := livegraph.NewStore(simple.N)
	for i := range simple.Src {
		if err := lg.AddEdge(simple.Src[i], simple.Dst[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]grin.Graph{
		"vineyard": loadVineyard(t, b), "gart": loadGart(t, b).Latest(), "graphar": ga, "csr": cg, "livegraph": lg,
	}
}

// versionedView lends grin.Versioned to GART's query view (GART keeps the
// trait on its store handle, so no committed backend has a Snapshot to tap).
type versionedView struct {
	*gartView
	gs *gart.Store
}

type gartView = gart.Snapshot

func (v versionedView) ReadVersion() uint64 { return v.gs.ReadVersion() }

func (v versionedView) Snapshot(version uint64) grin.Graph { return v.gs.Snapshot(version) }

// fullStore has every GRIN trait: vineyard's, plus Versioned and Partitioned
// answered trivially.
type fullStore struct{ *vineyard.Store }

func (f fullStore) ReadVersion() uint64            { return 0 }
func (f fullStore) Snapshot(uint64) grin.Graph     { return f.Store }
func (f fullStore) Fragment() (id, total int)      { return 0, 1 }
func (f fullStore) IsInner(graph.VID) bool         { return true }
func (f fullStore) Owner(graph.VID) int            { return 0 }
func (f fullStore) GlobalID(v graph.VID) graph.VID { return v }

// traitInterfaces is every GRIN trait interface. A new trait is added here;
// the test below then fails until tap.go forwards it.
var traitInterfaces = []reflect.Type{
	reflect.TypeOf((*grin.Graph)(nil)).Elem(),
	reflect.TypeOf((*grin.AdjArray)(nil)).Elem(),
	reflect.TypeOf((*grin.PropertyReader)(nil)).Elem(),
	reflect.TypeOf((*grin.WeightReader)(nil)).Elem(),
	reflect.TypeOf((*grin.Index)(nil)).Elem(),
	reflect.TypeOf((*grin.PredicatePush)(nil)).Elem(),
	reflect.TypeOf((*grin.Partitioned)(nil)).Elem(),
	reflect.TypeOf((*grin.Versioned)(nil)).Elem(),
	reflect.TypeOf((*grin.BatchAdjacency)(nil)).Elem(),
	reflect.TypeOf((*grin.BatchProps)(nil)).Elem(),
	reflect.TypeOf((*grin.BatchPropsCol)(nil)).Elem(),
	reflect.TypeOf((*grin.BatchScan)(nil)).Elem(),
	reflect.TypeOf((*grin.LabelAdjacency)(nil)).Elem(),
}

// passThrough lists the trait methods that are deliberately not sites: O(1)
// metadata, label reads, fragment arithmetic, and Snapshot (which re-taps).
var passThrough = map[string]bool{
	"NumVertices": true, "NumEdges": true, "Schema": true, "VertexLabel": true, "EdgeLabel": true,
	"ExternalID": true, "Fragment": true, "IsInner": true, "Owner": true, "GlobalID": true,
	"ReadVersion": true, "Snapshot": true,
}

// zeroArgs builds a harmless argument list for a trait method: zero IDs, nil
// slices, fresh out-parameters, callbacks that stop at once.
func zeroArgs(m reflect.Type) []reflect.Value {
	args := make([]reflect.Value, m.NumIn())
	for i := range args {
		switch in := m.In(i); in.Kind() {
		case reflect.Func:
			args[i] = reflect.MakeFunc(in, func([]reflect.Value) []reflect.Value {
				return []reflect.Value{reflect.ValueOf(false)}
			})
		case reflect.Ptr:
			args[i] = reflect.New(in.Elem())
		default:
			args[i] = reflect.Zero(in)
		}
	}
	return args
}

// TestTapForwardsEveryTrait makes a forgotten forwarder a test failure: the
// tap implements every trait interface, every method of each is a hooked
// site or on the pass-through list (never both, never neither), calling a
// hooked method closes exactly one call at the site of its name, calling a
// pass-through reaches no hook, and no Site row is left without a method.
func TestTapForwardsEveryTrait(t *testing.T) {
	siteOf := map[string]grin.Site{}
	for s := grin.Site(0); s < grin.NumSites; s++ {
		siteOf[s.String()] = s
	}
	rec := &recorder{}
	tapped := reflect.ValueOf(grin.Tap(fullStore{loadVineyard(t, snbBatch())}, "rec", rec))
	seen := map[grin.Site]bool{}
	for _, iface := range traitInterfaces {
		if !tapped.Type().Implements(iface) {
			t.Errorf("tap does not implement %s", iface)
			continue
		}
		for i := 0; i < iface.NumMethod(); i++ {
			m := iface.Method(i)
			site, hooked := siteOf[m.Name]
			if hooked == passThrough[m.Name] {
				t.Errorf("%s.%s: has a Site row = %v, on the pass-through list = %v; want exactly one", iface.Name(), m.Name, hooked, passThrough[m.Name])
				continue
			}
			rec.events = rec.events[:0]
			tapped.MethodByName(m.Name).Call(zeroArgs(m.Type))
			switch {
			case !hooked && len(rec.events) != 0:
				t.Errorf("%s.%s is pass-through but reached the hook: %v", iface.Name(), m.Name, rec.events)
			case hooked && (len(rec.events) != 1 || rec.events[0].site != site):
				t.Errorf("%s.%s closed %v, want one call at %s", iface.Name(), m.Name, rec.events, site)
			}
			if hooked && site.Trait() != traitOf[iface.Name()] {
				t.Errorf("site %s maps to trait %s, its method is on %s", site, site.Trait(), iface.Name())
			}
			if hooked {
				seen[site] = true
			}
		}
	}
	for s := grin.Site(0); s < grin.NumSites; s++ {
		if !seen[s] {
			t.Errorf("site %s names no trait method", s)
		}
	}
	if rec.unpaired != 0 || len(rec.open) != 0 {
		t.Errorf("%d calls came back with the wrong token, %d never closed", rec.unpaired, len(rec.open))
	}
}

// traitOf names the capability each trait interface is discovered under
// (BatchPropsCol rides on BatchProps, see grin.AsBatchPropsCol).
var traitOf = map[string]grin.Trait{
	"Graph": grin.TraitTopology, "AdjArray": grin.TraitAdjArray, "PropertyReader": grin.TraitProperty,
	"WeightReader": grin.TraitWeight, "Index": grin.TraitIndex, "PredicatePush": grin.TraitPredicate,
	"Partitioned": grin.TraitPartition, "Versioned": grin.TraitVersioned,
	"BatchAdjacency": grin.TraitBatchAdjacency, "BatchProps": grin.TraitBatchProps,
	"BatchPropsCol": grin.TraitBatchProps, "BatchScan": grin.TraitBatchScan,
	"LabelAdjacency": grin.TraitLabelAdjacency,
}

// TestTapHookSeesSitesAndRows drives a recording hook over a full-trait
// store, an MVCC snapshot and a topology-only store and checks the
// (site, rows) sequence: 1 at scalar sites, the adjacency returned, the IDs
// handed to a gather, the vertices a scan filled, Declined for a typed
// gather the store turned down — and nothing at all for a typed gather the
// store has no trait for. Then it hammers one site from four goroutines: the
// hook is shared, and every After must still bring back its own token.
func TestTapHookSeesSitesAndRows(t *testing.T) {
	b := snbBatch()
	lg, err := livegraph.LoadBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]grin.Graph{"vineyard": loadVineyard(t, b), "gart": loadGart(t, b).Latest(), "livegraph": lg}
	for name, bare := range stores {
		rec := &recorder{}
		g := grin.Tap(bare, "rec", rec)
		var want []event
		expect := func(s grin.Site, rows int) { want = append(want, event{s, rows}) }

		v := graph.VID(0)
		for bare.Degree(v, graph.Out) == 0 || bare.Degree(v, graph.In) == 0 {
			v++
		}
		g.NumVertices()
		g.Degree(v, graph.Both)
		expect(grin.SiteDegree, 1)
		g.Neighbors(v, graph.In, func(graph.VID, graph.EID) bool { return true })
		expect(grin.SiteNeighbors, 1)
		if aa, ok := grin.AsAdjArray(g); ok {
			aa.AdjSlice(v, graph.Out)
			expect(grin.SiteAdjSlice, bare.Degree(v, graph.Out))
		}
		if ba, ok := grin.AsBatchAdjacency(g); ok {
			var adj grin.AdjBatch
			ba.ExpandBatch([]graph.VID{v, v}, graph.Both, &adj)
			expect(grin.SiteExpandBatch, 2*bare.Degree(v, graph.Both))
		}
		if la, ok := grin.AsLabelAdjacency(g); ok {
			var adj grin.AdjBatch
			la.ExpandLabelBatch([]graph.VID{v, v}, graph.Both, graph.AnyLabel, &adj)
			expect(grin.SiteExpandLabelBatch, 2*bare.Degree(v, graph.Both))
			la.LabelDegrees([]graph.VID{v, v, v}, graph.Out, 0, make([]int, 3))
			expect(grin.SiteLabelDegrees, 3)
		}
		vs := []graph.VID{v, graph.NilVID, v}
		if bp, ok := grin.AsBatchProps(g); ok {
			bp.GatherVertexProp(vs, "firstName", make([]graph.Value, len(vs)))
			expect(grin.SiteGatherVProp, len(vs))
			bp.GatherVertexLabels(vs[:1], make([]graph.LabelID, 1))
			expect(grin.SiteGatherVLabels, 1)
		}
		served := grin.GatherVertexPropCol(g, vs, "firstName", column.New(graph.KindString))
		wrongKind := column.New(graph.KindInt)
		declined := !grin.GatherVertexPropCol(g, vs, "firstName", wrongKind)
		if _, has := grin.AsBatchPropsCol(bare); has {
			expect(grin.SiteGatherVPropCol, len(vs))
			expect(grin.SiteGatherVPropCol, grin.Declined)
		}
		if _, has := grin.AsBatchPropsCol(bare); served != has || !declined || wrongKind.Len() != 0 {
			t.Errorf("%s: typed gather served=%v (store has trait: %v), wrong-kind gather declined=%v leaving %d rows",
				name, served, has, declined, wrongKind.Len())
		}
		if bs, ok := grin.AsBatchScan(g); ok {
			n, _ := bs.ScanBatch(graph.AnyLabel, 0, make([]graph.VID, 8))
			expect(grin.SiteScanBatch, n)
			if n != 8 {
				t.Errorf("%s: ScanBatch filled %d of 8", name, n)
			}
		}
		if !reflect.DeepEqual(rec.events, want) {
			t.Errorf("%s: hook saw\n  %v\nwant\n  %v", name, rec.events, want)
		}

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					g.Degree(v, graph.Out)
				}
			}()
		}
		wg.Wait()
		if got := len(rec.events) - len(want); got != 400 || rec.unpaired != 0 || len(rec.open) != 0 {
			t.Errorf("%s: %d concurrent calls closed (want 400), %d with the wrong token, %d never closed",
				name, got, rec.unpaired, len(rec.open))
		}
	}
}

// TestLabelHelpersAgreeOnEveryPath: grin.ExpandLabelBatch and
// grin.LabelDegrees give the brute-force answer — Neighbors filtered by
// EdgeLabel, in order — whichever way they get it: vineyard's label segments,
// the unlabelled traits of a store without them (gart), a topology-only store
// whose every edge is of the one label there is (livegraph), and a tap whose
// hook degrades, which declines both calls without reaching the store and
// leaves the helper's fallback to run through the tap's unlabelled sites.
func TestLabelHelpersAgreeOnEveryPath(t *testing.T) {
	b := snbBatch()
	lg, err := livegraph.LoadBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	vy := loadVineyard(t, b)
	declining := &recorder{degrade: true}
	stores := map[string]grin.Graph{
		"vineyard": vy, "gart": loadGart(t, b).Latest(), "livegraph": lg,
		"declining(vineyard)": grin.Tap(vy, "rec", declining),
	}
	for name, g := range stores {
		pr, labelled := grin.AsPropertyReader(g)
		frontier := make([]graph.VID, 0, g.NumVertices()+2)
		for v := g.NumVertices() - 1; v >= 0; v -= 2 {
			frontier = append(frontier, graph.VID(v))
		}
		frontier = append(frontier, frontier[0], frontier[0])
		for _, dir := range []graph.Direction{graph.Out, graph.In, graph.Both} {
			for _, elabel := range []graph.LabelID{graph.AnyLabel, 0, 1, 5, 6, 9, 42} {
				var want grin.AdjBatch
				want.Begin(len(frontier))
				for _, v := range frontier {
					g.Neighbors(v, dir, func(nbr graph.VID, e graph.EID) bool {
						if !labelled || elabel == graph.AnyLabel || pr.EdgeLabel(e) == elabel {
							want.Nbrs, want.Edges = append(want.Nbrs, nbr), append(want.Edges, e)
						}
						return true
					})
					want.EndVertex()
				}
				var got grin.AdjBatch
				grin.ExpandLabelBatch(g, frontier, dir, elabel, &got)
				if !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Nbrs, want.Nbrs) || !slices.Equal(got.Edges, want.Edges) {
					t.Fatalf("%s %s label %d: ExpandLabelBatch differs from the filtered walk", name, dir, elabel)
				}
				degs := make([]int, len(frontier))
				grin.LabelDegrees(g, frontier, dir, elabel, degs)
				for i := range frontier {
					if lo, hi := want.Range(i); degs[i] != hi-lo {
						t.Fatalf("%s %s label %d vertex %d: LabelDegrees %d, the walk keeps %d", name, dir, elabel, frontier[i], degs[i], hi-lo)
					}
				}
			}
		}
	}
	sites := map[grin.Site]int{}
	for _, ev := range declining.events {
		sites[ev.site]++
	}
	if sites[grin.SiteExpandLabelBatch]+sites[grin.SiteLabelDegrees] != 0 || sites[grin.SiteExpandBatch] == 0 || sites[grin.SiteGatherELabels] == 0 || sites[grin.SiteDegree] == 0 {
		t.Errorf("a declining tap closed these calls: %v; want none at the label sites, the fallback's at ExpandBatch, GatherEdgeLabels and Degree", sites)
	}
}

// TestTapMasksHonestly pins that a tapped store advertises exactly the inner
// store's traits — on all five backends (csr and livegraph are
// topology-only), on a versioned view, and on the Snapshot the tap re-taps —
// and that the re-tapped Snapshot keeps the hook and the name.
func TestTapMasksHonestly(t *testing.T) {
	stores := fiveBackends(t)
	gs := loadGart(t, snbBatch())
	stores["gart(versioned)"] = versionedView{gs.Latest(), gs}
	for name, bare := range stores {
		tapped := grin.Tap(bare, "rec", &recorder{})
		if got, want := grin.Traits(tapped), grin.Traits(bare); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tapped traits %v, bare %v", name, got, want)
		}
		if got, want := grin.BackendName(tapped), "rec("+grin.BackendName(bare)+")"; got != want {
			t.Errorf("%s: tapped store is named %q, want %q", name, got, want)
		}
	}

	rec := &recorder{}
	vers, ok := grin.AsVersioned(grin.Tap(stores["gart(versioned)"], "rec", rec))
	if !ok {
		t.Fatal("tap hid the Versioned trait")
	}
	snap := vers.Snapshot(vers.ReadVersion())
	if got, want := grin.Traits(snap), grin.Traits(gs.Snapshot(gs.ReadVersion())); !reflect.DeepEqual(got, want) {
		t.Errorf("tapped snapshot traits %v, bare snapshot %v", got, want)
	}
	snap.Degree(0, graph.Out)
	if grin.BackendName(snap) != "rec(gart)" || len(rec.events) != 1 || rec.events[0] != (event{grin.SiteDegree, 1}) {
		t.Errorf("snapshot %q reported %v to the tap's hook, want one Degree call", grin.BackendName(snap), rec.events)
	}
}

// TestNeighborsStopsWhenYieldSaysSo is the early-stop contract of
// Graph.Neighbors on every backend, bare and behind a tap: once yield has
// returned false it is not called again — under Both that includes not
// walking on into the in-edges.
func TestNeighborsStopsWhenYieldSaysSo(t *testing.T) {
	for name, bare := range fiveBackends(t) {
		v := graph.VID(0)
		for bare.Degree(v, graph.Out) < 2 || bare.Degree(v, graph.In) < 2 {
			v++
		}
		for gname, g := range map[string]grin.Graph{name: bare, "tap(" + name + ")": grin.Tap(bare, "tap", &recorder{})} {
			for _, dir := range []graph.Direction{graph.Out, graph.In, graph.Both} {
				for k := 1; k <= g.Degree(v, dir); k++ {
					calls := 0
					g.Neighbors(v, dir, func(graph.VID, graph.EID) bool {
						calls++
						return calls < k
					})
					if calls != k {
						t.Errorf("%s: Neighbors(%d, %s) stopping at %d called yield %d times", gname, v, dir, k, calls)
					}
				}
			}
		}
	}
}
