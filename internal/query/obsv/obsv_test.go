package obsv

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/grin"
)

// TestStageCountersAndSnapshots pins the accumulation semantics: StageDone
// sums rows and batches, filter steps split kernel/boxed, selectivity
// accumulates, and Deterministic is the same snapshot with wall times zeroed.
func TestStageCountersAndSnapshots(t *testing.T) {
	q := NewQueryStats()
	q.Bind([]string{"SCAN(a)", "FILTER", "PROJECT"})
	if q.Stages() != 3 {
		t.Fatalf("Stages = %d, want 3", q.Stages())
	}

	start := Now()
	q.SourceRows(0, 100)
	q.SourceRows(0, 50)
	q.SourceDone(0, "SCAN(a)", start, nil)
	q.FilterStep(1, true)
	q.FilterStep(1, true)
	q.FilterStep(1, false)
	q.FilterSel(1, 150, 60)
	q.StageDone(1, "FILTER", 150, 60, start, nil)
	q.StageDone(2, "PROJECT", 60, 60, start, errors.New("boom"))

	snaps := q.StageSnapshots()
	src := snaps[0]
	if src.RowsOut != 150 || src.Batches != 2 {
		t.Errorf("source: rows=%d batches=%d, want 150/2", src.RowsOut, src.Batches)
	}
	fl := snaps[1]
	if fl.KernelSteps != 2 || fl.BoxedSteps != 1 {
		t.Errorf("filter steps: kernel=%d boxed=%d, want 2/1", fl.KernelSteps, fl.BoxedSteps)
	}
	if fl.SelCandidates != 150 || fl.SelSurvivors != 60 {
		t.Errorf("selectivity: %d->%d, want 150->60", fl.SelCandidates, fl.SelSurvivors)
	}
	if fl.RowsIn != 150 || fl.RowsOut != 60 || fl.Batches != 1 {
		t.Errorf("filter rows: in=%d out=%d batches=%d", fl.RowsIn, fl.RowsOut, fl.Batches)
	}
	if snaps[2].Errors != 1 {
		t.Errorf("project errors = %d, want 1", snaps[2].Errors)
	}
	if snaps[1].WallNanos <= 0 {
		t.Error("filter wall time not recorded")
	}
	for i, d := range q.Deterministic() {
		if d.WallNanos != 0 {
			t.Errorf("Deterministic stage %d keeps WallNanos=%d", i, d.WallNanos)
		}
		d.WallNanos = snaps[i].WallNanos
		if d != snaps[i] {
			t.Errorf("Deterministic stage %d diverges beyond wall time", i)
		}
	}

	// Out-of-range stage IDs (hand-built stages) are silently ignored.
	q.StageDone(99, "ghost", 1, 1, start, nil)
	q.FilterStep(-1, true)

	// Rebinding the same shape keeps counters; a different shape resets.
	q.Bind([]string{"SCAN(a)", "FILTER", "PROJECT"})
	if q.StageSnapshots()[0].RowsOut != 150 {
		t.Error("same-shape rebind reset the counters")
	}
	q.Bind([]string{"ONE"})
	if q.StageSnapshots()[0].RowsOut != 0 {
		t.Error("reshaping rebind kept stale counters")
	}
}

// TestSnapshotCountersReduction pins the flexbench summary: rows is the final
// stage's output, batches the cross-stage sum, and the kernel ratio the
// fraction of fused-filter passes on the typed path (1 when none ran).
func TestSnapshotCountersReduction(t *testing.T) {
	q := NewQueryStats()
	q.Bind([]string{"SCAN", "OUT"})
	q.SourceRows(0, 10)
	q.FilterStep(1, true)
	q.FilterStep(1, true)
	q.FilterStep(1, true)
	q.FilterStep(1, false)
	q.StageDone(1, "OUT", 10, 4, Now(), nil)
	c := q.Snapshot().Counters()
	if c["rows"] != 4 {
		t.Errorf("rows = %v, want 4", c["rows"])
	}
	if c["batches"] != 2 {
		t.Errorf("batches = %v, want 2", c["batches"])
	}
	if c["kernel_path_ratio"] != 0.75 {
		t.Errorf("kernel_path_ratio = %v, want 0.75", c["kernel_path_ratio"])
	}
	empty := NewQueryStats().Snapshot().Counters()
	if empty["kernel_path_ratio"] != 1 {
		t.Errorf("no-filter ratio = %v, want 1", empty["kernel_path_ratio"])
	}
}

// TestEngineGauges pins the engine section: worker busy/idle merge by sum,
// mailbox depth keeps the maximum, and pool/boxing counters accumulate.
func TestEngineGauges(t *testing.T) {
	q := NewQueryStats()
	q.SetEngine("gaia", 4)
	q.Segment()
	q.Morsel(16)
	q.Morsel(16)
	q.WorkerDone(100, 30)
	q.WorkerDone(50, 70)
	q.Mailbox(3, 0)
	q.Mailbox(1, 0) // lower depth must not regress the max
	q.PoolGet(true)
	q.PoolGet(false)
	q.PoolGet(true)
	q.BoxedRows(42)
	s := q.Snapshot()
	e := s.Engine
	if e.Engine != "gaia" || e.Workers != 4 {
		t.Errorf("engine = %s/%d, want gaia/4", e.Engine, e.Workers)
	}
	if e.Segments != 1 || e.Morsels != 2 {
		t.Errorf("segments=%d morsels=%d, want 1/2", e.Segments, e.Morsels)
	}
	if e.BusyNanos != 150 || e.IdleNanos != 100 {
		t.Errorf("busy=%d idle=%d, want 150/100", e.BusyNanos, e.IdleNanos)
	}
	if e.QueueDepth != 3 {
		t.Errorf("queue depth = %d, want max 3", e.QueueDepth)
	}
	if s.PoolHits != 2 || s.PoolMisses != 1 {
		t.Errorf("pool hits=%d misses=%d, want 2/1", s.PoolHits, s.PoolMisses)
	}
	if s.BoxedResultRows != 42 {
		t.Errorf("boxed rows = %d, want 42", s.BoxedResultRows)
	}
}

// TestStoreSiteAlignment pins the chaos alignment contract: 17 sites, chaos's
// exact names, batch sites from ExpandBatch on, snapshots in enum order.
func TestStoreSiteAlignment(t *testing.T) {
	wantNames := []string{
		"Degree", "Neighbors", "AdjSlice", "VertexProp", "EdgeProp",
		"EdgeWeight", "LookupVertex", "LabelRange", "ScanVertices",
		"ExpandBatch", "GatherVertexProp", "GatherEdgeProp",
		"GatherVertexLabels", "GatherEdgeLabels", "ScanBatch",
		"ExpandLabelBatch", "LabelDegrees",
	}
	if int(NumStoreSites) != len(wantNames) {
		t.Fatalf("NumStoreSites = %d, want %d", NumStoreSites, len(wantNames))
	}
	st := &StoreStats{}
	st.SetBackend("test")
	for i := grin.Site(0); i < NumStoreSites; i++ {
		if i.String() != wantNames[i] {
			t.Errorf("site %d named %q, want %q", i, i.String(), wantNames[i])
		}
		if got, want := i.Batch(), i >= grin.SiteExpandBatch; got != want {
			t.Errorf("site %v Batch() = %v, want %v", i, got, want)
		}
		for n := grin.Site(0); n <= i; n++ {
			st.Count(i)
		}
	}
	snap := st.Snapshot()
	if snap.Backend != "test" {
		t.Errorf("backend = %q", snap.Backend)
	}
	for i, site := range snap.Sites {
		if site.Site != wantNames[i] {
			t.Errorf("snapshot row %d is %q, want %q (enum order)", i, site.Site, wantNames[i])
		}
		if site.Calls != int64(i+1) {
			t.Errorf("site %q calls = %d, want %d", site.Site, site.Calls, i+1)
		}
	}
}

// TestTraceCapAndExport pins the bounded buffer: events past the cap are
// dropped and counted, the JSON export is a valid Chrome trace-event array
// ending with a truncation marker, and Dump mentions the drop.
func TestTraceCapAndExport(t *testing.T) {
	tr := &Trace{cap: 4}
	for i := 0; i < 7; i++ {
		tr.span("stage", i, int64(i*1000), int64(i*1000+500), int64(i), nil)
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("kept %d events, want cap 4", got)
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(evs) != 5 {
		t.Fatalf("export has %d events, want 4 + truncation marker", len(evs))
	}
	last := evs[len(evs)-1]
	if last["name"] != "trace-truncated" {
		t.Errorf("last event = %v, want trace-truncated marker", last["name"])
	}
	if !strings.Contains(tr.Dump(), "dropped at cap") {
		t.Error("Dump does not mention the dropped events")
	}
}

// TestTraceErrorEvents pins that failed spans and instants carry the error
// string into both the export args and the human dump.
func TestTraceErrorEvents(t *testing.T) {
	tr := NewTrace()
	tr.span("EXPAND", 1, 0, 10, 5, errors.New("chaos: injected"))
	tr.instant("lifecycle-exit", 0, 0, errors.New("deadline"))
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"error":"chaos: injected"`) {
		t.Errorf("export misses span error: %s", sb.String())
	}
	if !strings.Contains(tr.Dump(), `err="deadline"`) {
		t.Errorf("dump misses instant error:\n%s", tr.Dump())
	}
}
