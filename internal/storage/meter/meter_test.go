package meter

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/obsv"
	"repro/internal/storage/column"
	"repro/internal/storage/gart"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/vineyard"
)

// traits is the method set the tests call a metered view through directly
// (the engines reach the same methods through grin.As*).
type traits interface {
	grin.Graph
	grin.AdjArray
	grin.PropertyReader
	grin.BatchAdjacency
	grin.BatchScan
}

func loadVineyard(t *testing.T) grin.Graph {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 40, Seed: 3})
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTraitMaskingHonest pins the capability contract: the wrapper's Go
// method set covers every trait, but grin.Has must report exactly the inner
// store's capabilities — on a full-trait backend and on a topology-only one.
func TestTraitMaskingHonest(t *testing.T) {
	lg := livegraph.NewStore(8)
	if err := lg.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]grin.Graph{"vineyard": loadVineyard(t), "livegraph": lg} {
		mg := Wrap(inner, &obsv.StoreStats{})
		for _, tr := range grin.Traits(inner) {
			if !grin.Has(mg, tr) {
				t.Errorf("%s: wrapper hides trait %v the inner store has", name, tr)
			}
		}
		for tr := grin.Trait(0); int(tr) < 16; tr++ {
			if grin.Has(mg, tr) && !grin.Has(inner, tr) {
				t.Errorf("%s: wrapper advertises trait %v the inner store lacks", name, tr)
			}
		}
	}
}

// TestSiteCounting pins that each delegated call lands on its chaos-aligned
// site counter, and that uncounted metadata calls (NumVertices, Schema) stay
// out of the profile.
func TestSiteCounting(t *testing.T) {
	st := loadVineyard(t)
	stats := &obsv.StoreStats{}
	mg := Wrap(st, stats).(traits)

	mg.NumVertices()
	mg.Degree(0, graph.Out)
	mg.Degree(0, graph.In)
	mg.Neighbors(0, graph.Out, func(graph.VID, graph.EID) bool { return true })
	mg.AdjSlice(0, graph.Out)
	mg.VertexProp(0, 0)
	var out grin.AdjBatch
	mg.ExpandBatch([]graph.VID{0}, graph.Out, &out)
	buf := make([]graph.VID, 4)
	mg.ScanBatch(0, 0, buf)

	want := map[grin.Site]int64{
		grin.SiteDegree:      2,
		grin.SiteNeighbors:   1,
		grin.SiteAdjSlice:    1,
		grin.SiteVertexProp:  1,
		grin.SiteExpandBatch: 1,
		grin.SiteScanBatch:   1,
	}
	for site := grin.Site(0); site < obsv.NumStoreSites; site++ {
		if got := stats.Calls(site); got != want[site] {
			t.Errorf("site %v: %d calls, want %d", site, got, want[site])
		}
	}
	if got := grin.BackendName(mg); got != "meter(vineyard)" {
		t.Errorf("BackendName = %q", got)
	}
}

// TestNativeFlags pins the native/fallback regime recorded at wrap time: a
// full-trait backend is native everywhere, a topology-only one is native only
// where it really serves the trait.
func TestNativeFlags(t *testing.T) {
	vstats := &obsv.StoreStats{}
	Wrap(loadVineyard(t), vstats)
	for site := grin.Site(0); site < obsv.NumStoreSites; site++ {
		if !vstats.Snapshot().Sites[site].Native {
			t.Errorf("vineyard site %v not native", site)
		}
	}

	lg := livegraph.NewStore(8)
	if err := lg.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	lstats := &obsv.StoreStats{}
	Wrap(lg, lstats)
	lsnap := lstats.Snapshot()
	byName := map[string]obsv.StoreSiteSnapshot{}
	for _, s := range lsnap.Sites {
		byName[s.Site] = s
	}
	if !byName["Degree"].Native || !byName["Neighbors"].Native {
		t.Error("livegraph topology sites must be native")
	}
	if byName["VertexProp"].Native {
		t.Error("livegraph has no property reader; VertexProp cannot be native")
	}
	if byName["GatherVertexProp"].Native {
		t.Error("livegraph has no batch props; GatherVertexProp cannot be native")
	}
}

// versionedGraph lends the Versioned trait to any inner graph for the
// snapshot-sink test (no committed backend exposes Versioned on its query
// view; GART keeps it on the store handle).
type versionedGraph struct {
	grin.Graph
	ver uint64
}

func (v *versionedGraph) ReadVersion() uint64 { return v.ver }

func (v *versionedGraph) Snapshot(version uint64) grin.Graph { return v.Graph }

func (v *versionedGraph) HasTrait(t grin.Trait) bool {
	return t == grin.TraitVersioned || grin.Has(v.Graph, t)
}

// TestSnapshotSharesSink pins the versioned path: a metered store's Snapshot
// returns a metered view whose calls land in the same counter sink, so one
// profile covers the query's pinned read view.
func TestSnapshotSharesSink(t *testing.T) {
	stats := &obsv.StoreStats{}
	mg := Wrap(&versionedGraph{Graph: loadVineyard(t), ver: 7}, stats)
	vers, ok := grin.AsVersioned(mg)
	if !ok {
		t.Fatal("metered store lost the Versioned trait")
	}
	msnap := vers.Snapshot(vers.ReadVersion())
	if got := grin.BackendName(msnap); got != "meter(vineyard)" {
		t.Fatalf("Snapshot returned %s, want a metered view", got)
	}
	before := stats.Calls(grin.SiteDegree)
	msnap.Degree(0, graph.Out)
	if stats.Calls(grin.SiteDegree) != before+1 {
		t.Fatal("snapshot call did not land in the shared sink")
	}
}

// TestTypedColumnGatherForwarded pins the BatchPropsCol contract through the
// wrapper: over a store with the trait the gather is served and counted at
// the GatherVertexProp site; over one without it (GART) the wrapper declines,
// leaves dst untouched and counts nothing, so the caller's boxed gather is
// the call that shows in the profile.
func TestTypedColumnGatherForwarded(t *testing.T) {
	vs := []graph.VID{0, 1}

	stats := &obsv.StoreStats{}
	mg := Wrap(loadVineyard(t), stats)
	dst := column.New(graph.KindString)
	if !grin.GatherVertexPropCol(mg, vs, "firstName", dst) || dst.Len() != len(vs) {
		t.Fatalf("typed gather over vineyard not served through the wrapper (%d rows)", dst.Len())
	}
	if got := stats.Calls(grin.SiteGatherVProp); got != 1 {
		t.Fatalf("served typed gather counted %d times at GatherVertexProp", got)
	}

	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(dataset.SNB(dataset.SNBOptions{Persons: 40, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	stats = &obsv.StoreStats{}
	mg = Wrap(gs.Latest(), stats)
	dst = column.New(graph.KindString)
	if grin.GatherVertexPropCol(mg, vs, "firstName", dst) || dst.Len() != 0 {
		t.Fatalf("typed gather over gart served or left %d rows behind", dst.Len())
	}
	if got := stats.Calls(grin.SiteGatherVProp); got != 0 {
		t.Fatalf("declined typed gather counted %d times", got)
	}
}
