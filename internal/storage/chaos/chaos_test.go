package chaos_test

import (
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/chaos"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/vineyard"
)

func smallVineyard(t *testing.T) grin.Graph {
	t.Helper()
	st, err := vineyard.Load(dataset.SNB(dataset.SNBOptions{Persons: 30, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTraitMasking pins the honesty contract: a chaos wrapper's capability
// set is exactly the inner store's, even though the wrapper type has every
// trait method.
func TestTraitMasking(t *testing.T) {
	lg, err := livegraph.LoadBatch(dataset.SNB(dataset.SNBOptions{Persons: 20, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	vy := smallVineyard(t)
	for _, tc := range []struct {
		name  string
		inner grin.Graph
	}{
		{"vineyard", vy},
		{"livegraph", lg},
	} {
		var w grin.Graph = chaos.Wrap(tc.inner, chaos.Options{})
		for tr := grin.Trait(0); tr < grin.TraitBatchScan+1; tr++ {
			if got, want := grin.Has(w, tr), grin.Has(tc.inner, tr); got != want {
				t.Errorf("%s: wrapper Has(%s) = %v, inner = %v", tc.name, tr, got, want)
			}
		}
		// A direct type assertion would lie; the As* accessors must not.
		if _, ok := w.(grin.PropertyReader); !ok {
			t.Fatalf("%s: wrapper method set should include PropertyReader", tc.name)
		}
		if _, ok := grin.AsPropertyReader(w); ok != grin.Has(tc.inner, grin.TraitProperty) {
			t.Errorf("%s: AsPropertyReader = %v, want inner capability", tc.name, ok)
		}
	}
	if got, want := grin.BackendName(chaos.Wrap(vy, chaos.Options{})), "chaos(vineyard)"; got != want {
		t.Errorf("BackendName = %q, want %q", got, want)
	}
}

// TestErrorFiresOnNthCall pins the counting contract: the fault fires on
// exactly the scheduled call, as a panic carrying a *chaos.Error.
func TestErrorFiresOnNthCall(t *testing.T) {
	w := chaos.Wrap(smallVineyard(t), chaos.Options{
		Seed:   7,
		Faults: []chaos.Fault{{Site: grin.SiteDegree, Kind: chaos.KindError, N: 3}},
	})
	for i := 0; i < 2; i++ {
		w.Degree(0, graph.Out) // calls 1 and 2: clean
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("call 3 did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panicked with %T, want error", r)
		}
		var ce *chaos.Error
		if !errors.As(err, &ce) {
			t.Fatalf("panicked with %v, want *chaos.Error", err)
		}
		if ce.Site != grin.SiteDegree || ce.N != 3 || ce.Seed != 7 {
			t.Errorf("fault fired at %s call %d seed %d, want Degree call 3 seed 7", ce.Site, ce.N, ce.Seed)
		}
		if ce.Transient() {
			t.Error("KindError reported transient")
		}
		if !ce.ChaosInjected() {
			t.Error("ChaosInjected() = false")
		}
	}()
	w.Degree(0, graph.Out)
}

// TestShortReadKeepsScanSequence pins the short-read legality: from the
// trigger call on, ScanBatch returns fewer vertices per chunk, but a full
// cursor walk yields the identical vertex sequence.
func TestShortReadKeepsScanSequence(t *testing.T) {
	inner := smallVineyard(t)
	inj := chaos.New(chaos.Options{
		Faults: []chaos.Fault{{Site: grin.SiteScanBatch, Kind: chaos.KindShortRead, N: 2}},
	})
	w, ok := grin.AsBatchScan(grin.Tap(inner, "chaos", inj))
	if !ok {
		t.Fatal("chaos(vineyard) lost BatchScan")
	}
	walk := func(g grin.BatchScan) []graph.VID {
		var out []graph.VID
		buf := make([]graph.VID, 8)
		cur := graph.VID(0)
		for {
			n, next := g.ScanBatch(graph.AnyLabel, cur, buf)
			out = append(out, buf[:n]...)
			if next == graph.NilVID {
				return out
			}
			cur = next
		}
	}
	bs, ok := grin.AsBatchScan(inner)
	if !ok {
		t.Fatal("vineyard lost BatchScan")
	}
	want := walk(bs)
	got := walk(w)
	if len(got) != len(want) {
		t.Fatalf("short-read walk yielded %d vertices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("short-read walk diverged at %d: %d != %d", i, got[i], want[i])
		}
	}
	if calls := inj.Calls(grin.SiteScanBatch); calls <= int64(len(want)/8) {
		t.Errorf("short reads should need more chunks: %d calls", calls)
	}
}

// TestPlanIsDeterministic pins the seed recipe: the same seed yields the
// same schedule, a different seed a different one.
func TestPlanIsDeterministic(t *testing.T) {
	kinds := []chaos.Kind{chaos.KindError, chaos.KindTransientError, chaos.KindPanic, chaos.KindLatency}
	a := chaos.Plan(42, chaos.Sites(), kinds, 16)
	b := chaos.Plan(42, chaos.Sites(), kinds, 16)
	if len(a.Faults) != len(chaos.Sites()) || len(b.Faults) != len(a.Faults) {
		t.Fatalf("Plan sized %d/%d faults, want one per site", len(a.Faults), len(b.Faults))
	}
	differs := false
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("same seed diverged at fault %d: %+v != %+v", i, a.Faults[i], b.Faults[i])
		}
		if c := chaos.Plan(43, chaos.Sites(), kinds, 16); c.Faults[i] != a.Faults[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
}

// TestLabelSitesDeclineUnlessScheduled pins what degrade means at the
// LabelAdjacency sites: a schedule that does not name one declines every call
// there without reaching the store (so the caller's unlabelled fallback runs
// into whatever the schedule does name); a schedule that names one lets the
// calls through, counts them, and a short read declines from its call on.
func TestLabelSitesDeclineUnlessScheduled(t *testing.T) {
	inner := smallVineyard(t)
	frontier := []graph.VID{0, 1, 2}
	var adj grin.AdjBatch
	degs := make([]int, len(frontier))

	la, ok := grin.AsLabelAdjacency(chaos.Wrap(inner, chaos.Options{
		Faults: []chaos.Fault{{Site: grin.SiteExpandBatch, Kind: chaos.KindError, N: 1}},
	}))
	if !ok {
		t.Fatal("chaos(vineyard) lost LabelAdjacency")
	}
	if la.ExpandLabelBatch(frontier, graph.Out, 0, &adj) || la.LabelDegrees(frontier, graph.Out, 0, degs) {
		t.Error("a schedule that names neither label site served a call there")
	}

	inj := chaos.New(chaos.Options{Faults: []chaos.Fault{
		{Site: grin.SiteExpandLabelBatch, Kind: chaos.KindShortRead, N: 3},
		{Site: grin.SiteLabelDegrees, Kind: chaos.KindLatency, N: 1 << 40},
	}})
	la, _ = grin.AsLabelAdjacency(grin.Tap(inner, "chaos", inj))
	for call, want := range []bool{true, true, false, false} {
		if got := la.ExpandLabelBatch(frontier, graph.Out, 0, &adj); got != want {
			t.Errorf("ExpandLabelBatch call %d served = %v, want %v (short read from call 3)", call+1, got, want)
		}
	}
	if !la.LabelDegrees(frontier, graph.Out, 0, degs) {
		t.Error("LabelDegrees declined under a schedule that names it")
	}
	if a, b := inj.Calls(grin.SiteExpandLabelBatch), inj.Calls(grin.SiteLabelDegrees); a != 4 || b != 1 {
		t.Errorf("counted %d ExpandLabelBatch and %d LabelDegrees calls, want 4 and 1", a, b)
	}
}
