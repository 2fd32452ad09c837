// The fault matrix: every engine × every backend × every fault kind, driven
// through the chaos storage wrapper. Each run must end the way the lifecycle
// contract promises — a row-for-row correct result (short reads, latency) or
// a clean typed error (injected errors, panics, fired deadlines, exhausted
// budgets) — and never a deadlock, a leaked goroutine, or a silently
// truncated result set. CI runs this file under -race.
package query_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/hiactor"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/query/obsv"
	"repro/internal/query/optimizer"
	"repro/internal/storage/chaos"
)

// matrixStores is the same simple graph in all three dynamic-capability
// backends: vineyard (full trait set), gart (MVCC snapshot), livegraph
// (topology only — the wrapper must keep masking its missing traits).
func matrixStores(t *testing.T) (map[string]grin.Graph, *graph.Schema) {
	t.Helper()
	f := datagenFixture(200, 4, 3)
	return f.storeMap(t, "vineyard", "gart", "livegraph"), f.schema()
}

// runOn executes the plan on a fresh engine of the named kind over g. A new
// engine per run keeps fault schedules independent; hiactor's pool is closed
// before returning so the leak check sees a quiet world.
func runOn(engine string, g grin.Graph, p *ir.Plan, maxRows int64, ctx context.Context) ([]exec.Row, error) {
	return runOnObserved(engine, g, p, maxRows, ctx, nil)
}

// runOnObserved is runOn with an optional stats collector attached — the
// fault matrix runs its cells with tracing enabled so a failing cell can log
// the span history leading up to the fault.
func runOnObserved(engine string, g grin.Graph, p *ir.Plan, maxRows int64, ctx context.Context, obs *obsv.QueryStats) ([]exec.Row, error) {
	switch engine {
	case "naive":
		rows, _, err := naive.RunWith(ctx, p, g, exec.Request{BatchSize: 16, MaxRows: maxRows, Obs: obs})
		return rows, err
	case "gaia":
		e := gaia.NewEngine(g, gaia.Options{Parallelism: 4})
		rows, _, err := submit(ctx, e, p, exec.Request{BatchSize: 16, MaxRows: maxRows, Obs: obs})
		return rows, err
	case "hiactor":
		e := hiactor.NewEngine(func() grin.Graph { return g }, hiactor.Options{Shards: 2})
		defer e.Close()
		rows, _, err := submit(ctx, e, p, exec.Request{BatchSize: 16, MaxRows: maxRows, Obs: obs})
		return rows, err
	}
	panic("unknown engine " + engine)
}

var matrixEngines = []string{"naive", "gaia", "hiactor"}

// TestFaultMatrix is the acceptance matrix: engines × backends × fault
// kinds, injected at the batch-expansion site (hit only during execution, so
// schedules cannot fire inside engine construction) and at the batched scan
// (short reads). Every cell must end in a correct result or a typed error.
func TestFaultMatrix(t *testing.T) {
	defer query.CheckLeaks(t)()
	stores, schema := matrixStores(t)
	plan, err := cypher.Parse(`MATCH (a:V)-[:E]->(b:V)-[:E]->(c:V) RETURN id(a) AS x, id(c) AS y`, schema)
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		name  string
		fault chaos.Fault
		// wantTyped is the check an error must pass; nil means the run must
		// succeed with rows identical to the clean reference.
		wantTyped func(error) bool
	}
	cells := []cell{
		{
			name:  "error",
			fault: chaos.Fault{Site: grin.SiteExpandBatch, Kind: chaos.KindError, N: 2},
			wantTyped: func(err error) bool {
				var ce *chaos.Error
				return errors.As(err, &ce) && !retryTransient(err)
			},
		},
		{
			name:  "panic",
			fault: chaos.Fault{Site: grin.SiteExpandBatch, Kind: chaos.KindPanic, N: 3},
			wantTyped: func(err error) bool {
				var pe *exec.PanicError
				return errors.As(err, &pe)
			},
		},
		{
			name:  "transient",
			fault: chaos.Fault{Site: grin.SiteExpandBatch, Kind: chaos.KindTransientError, N: 1},
			wantTyped: func(err error) bool {
				var ce *chaos.Error
				return errors.As(err, &ce) && retryTransient(err)
			},
		},
		{
			name:  "shortread",
			fault: chaos.Fault{Site: grin.SiteScanBatch, Kind: chaos.KindShortRead, N: 1},
		},
		{
			name:  "latency",
			fault: chaos.Fault{Site: grin.SiteExpandBatch, Kind: chaos.KindLatency, N: 1, Latency: 100 * time.Microsecond},
		},
	}

	for _, engine := range matrixEngines {
		for backend, store := range stores {
			// Reference rows: same engine, clean store — the matrix checks
			// fault behavior, not cross-engine parity (parity_test does that).
			want, err := runOn(engine, store, plan, 0, context.Background())
			if err != nil {
				t.Fatalf("%s/%s: clean run failed: %v", engine, backend, err)
			}
			if len(want) == 0 {
				t.Fatalf("%s/%s: clean run returned no rows", engine, backend)
			}
			for _, c := range cells {
				t.Run(engine+"/"+backend+"/"+c.name, func(t *testing.T) {
					// Every cell runs with stats + tracing attached: the
					// matrix doubles as the observed-under-faults parity
					// check, and a failing cell logs the span history
					// leading up to the fault.
					obs := obsv.NewQueryStats()
					obs.Trace = obsv.NewTrace()
					defer func() {
						if t.Failed() {
							t.Logf("trace of failing cell:\n%s", obs.Trace.Dump())
						}
					}()
					faulty := chaos.Wrap(store, chaos.Options{Seed: 1, Faults: []chaos.Fault{c.fault}})
					rows, err := runOnObserved(engine, faulty, plan, 0, context.Background(), obs)
					if c.wantTyped == nil {
						if err != nil {
							t.Fatalf("benign fault failed the query: %v", err)
						}
						mustExactEqual(t, c.name, renderRows(rows), renderRows(want))
						return
					}
					if err == nil {
						t.Fatal("injected fault did not surface")
					}
					if !c.wantTyped(err) {
						t.Fatalf("fault surfaced untyped: %v", err)
					}
					// A surfaced fault must be visible in the trace: at least
					// one span or instant carries the error string.
					var traced bool
					for _, ev := range obs.Trace.Events() {
						if ev.Err != "" {
							traced = true
							break
						}
					}
					if !traced {
						t.Error("typed error surfaced but no trace event records an error")
					}
				})
			}
		}
	}
}

// TestTransientFaultRetries demonstrates the retry layer over the matrix: a
// transient fault fails the first attempt, the seeded backoff re-runs the
// query, and the second attempt (the fault schedule already consumed)
// returns rows identical to the clean reference.
func TestTransientFaultRetries(t *testing.T) {
	defer query.CheckLeaks(t)()
	stores, schema := matrixStores(t)
	plan, err := cypher.Parse(`MATCH (a:V)-[:E]->(b:V) RETURN id(a) AS x, id(b) AS y`, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range matrixEngines {
		for backend, store := range stores {
			want, err := runOn(engine, store, plan, 0, context.Background())
			if err != nil {
				t.Fatalf("%s/%s: clean run failed: %v", engine, backend, err)
			}
			faulty := chaos.Wrap(store, chaos.Options{Seed: 5, Faults: []chaos.Fault{
				{Site: grin.SiteExpandBatch, Kind: chaos.KindTransientError, N: 1},
			}})
			attempts := 0
			var rows []exec.Row
			err = retryDo(context.Background(), retryPolicy{Attempts: 3, BaseDelay: time.Microsecond, Seed: 5}, func() error {
				attempts++
				var rerr error
				rows, rerr = runOn(engine, faulty, plan, 0, context.Background())
				return rerr
			})
			if err != nil {
				t.Fatalf("%s/%s: retries exhausted: %v", engine, backend, err)
			}
			if attempts != 2 {
				t.Errorf("%s/%s: %d attempts, want 2 (one failure, one success)", engine, backend, attempts)
			}
			mustExactEqual(t, engine+"/"+backend, renderRows(rows), renderRows(want))
		}
	}
}

// TestDeadlineCancellationAndBudget pins the remaining lifecycle exits on
// every engine: an expiring deadline (stretched into by injected latency), a
// pre-canceled context, and an exhausted row budget each surface as their
// sentinel, with context sentinels also matching errors.Is on the stdlib
// causes they wrap.
func TestDeadlineCancellationAndBudget(t *testing.T) {
	defer query.CheckLeaks(t)()
	stores, schema := matrixStores(t)
	plan, err := cypher.Parse(`MATCH (a:V)-[:E]->(b:V)-[:E]->(c:V) RETURN id(a) AS x, id(c) AS y`, schema)
	if err != nil {
		t.Fatal(err)
	}
	store := stores["vineyard"]
	for _, engine := range matrixEngines {
		t.Run(engine+"/deadline", func(t *testing.T) {
			slow := chaos.Wrap(store, chaos.Options{Faults: []chaos.Fault{
				{Site: grin.SiteExpandBatch, Kind: chaos.KindLatency, N: 1, Latency: 2 * time.Millisecond},
			}})
			ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
			defer cancel()
			_, err := runOn(engine, slow, plan, 0, ctx)
			if !errors.Is(err, exec.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadline surfaced as %v, want exec.ErrDeadlineExceeded wrapping context.DeadlineExceeded", err)
			}
		})
		t.Run(engine+"/cancel", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := runOn(engine, store, plan, 0, ctx)
			if !errors.Is(err, exec.ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancellation surfaced as %v, want exec.ErrCanceled wrapping context.Canceled", err)
			}
		})
		t.Run(engine+"/budget", func(t *testing.T) {
			_, err := runOn(engine, store, plan, 10, context.Background())
			if !errors.Is(err, exec.ErrBudgetExceeded) {
				t.Fatalf("budget exhaustion surfaced as %v, want exec.ErrBudgetExceeded", err)
			}
		})
	}
}

// TestSeededScheduleReproduces pins the chaos recipe end to end: the same
// seed yields the same schedule and therefore the same query outcome — the
// replay loop a matrix failure's logged seed feeds.
func TestSeededScheduleReproduces(t *testing.T) {
	defer query.CheckLeaks(t)()
	stores, schema := matrixStores(t)
	plan, err := cypher.Parse(`MATCH (a:V)-[:E]->(b:V)-[:E]->(c:V) RETURN id(a) AS x, id(c) AS y`, schema)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []chaos.Kind{chaos.KindError, chaos.KindTransientError, chaos.KindPanic, chaos.KindShortRead}
	// Execution-only site: catalog building scans the store during engine
	// construction, where the lifecycle contract (and its recover boundary)
	// does not apply, so seeded schedules must not land there.
	sites := []grin.Site{grin.SiteExpandBatch}
	outcome := func(seed int64) string {
		opt := chaos.Plan(seed, sites, kinds, 8)
		rows, err := runOn("gaia", chaos.Wrap(stores["vineyard"], opt), plan, 0, context.Background())
		if err != nil {
			// The outcome is the fault that fired (site, kind, call number),
			// not the stage it surfaced in: both expansions run concurrently
			// on Gaia's workers, so which of them makes the Nth ExpandBatch
			// call depends on the schedule.
			var ce *chaos.Error
			var pe *exec.PanicError
			switch {
			case errors.As(err, &ce):
				return "error: " + ce.Error()
			case errors.As(err, &pe):
				return fmt.Sprint("panic: ", pe.Value)
			}
			return "error: " + err.Error()
		}
		out := renderRows(rows)
		return "rows: " + out[len(out)-1]
	}
	for seed := int64(1); seed <= 4; seed++ {
		first := outcome(seed)
		if again := outcome(seed); again != first {
			t.Fatalf("seed %d not reproducible: %q then %q", seed, first, again)
		}
	}
}

// gatherFault panics with val inside the first typed vertex gather the store
// served — after the column was written, the worst place to unwind from. It
// never degrades, so unlike the chaos hook it lets typed gathers through.
type gatherFault struct {
	served atomic.Int64
	val    any
}

func (*gatherFault) Before(grin.Site) (token int64, degrade bool) { return 0, false }

func (h *gatherFault) After(s grin.Site, _ int64, rows int) {
	if s == grin.SiteGatherVPropCol && rows != grin.Declined && h.served.Add(1) == 1 {
		panic(h.val)
	}
}

// TestFaultInsideServedTypedGather covers the site the seeded matrix cannot
// reach (the chaos hook declines every typed gather): an injected error and a
// raw panic raised inside a served GatherVertexPropCol end the query with the
// wrapped error / *exec.PanicError, and the same engine — its arenas went
// through the unwinding — answers the next query correctly.
func TestFaultInsideServedTypedGather(t *testing.T) {
	defer query.CheckLeaks(t)()
	st := snbFixture(120, 5).vineyard(t)
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE f.creationDate > 10 RETURN f.firstName, f.creationDate`, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := gaia.NewEngine(st, gaia.Options{Parallelism: 2}).Submit(context.Background(), plan, nil)
	if err != nil || len(clean) == 0 {
		t.Fatalf("clean run: %d rows, %v", len(clean), err)
	}
	want := renderRows(clean)
	sort.Strings(want)

	injected := &chaos.Error{Site: grin.SiteGatherVPropCol, Kind: chaos.KindError, N: 1}
	for _, engine := range []string{"gaia", "hiactor"} {
		for _, val := range []any{injected, "raw panic in a typed gather"} {
			name := fmt.Sprintf("%s/%T", engine, val)
			hook := &gatherFault{val: val}
			g := grin.Tap(st, "fault", hook)
			var eng queryEngine = gaia.NewEngine(g, gaia.Options{Parallelism: 2})
			if engine == "hiactor" {
				e := hiactor.NewEngine(func() grin.Graph { return g }, hiactor.Options{Shards: 1})
				defer e.Close()
				eng = e
			}
			_, _, err := submit(context.Background(), eng, plan, exec.Request{})
			var ce *chaos.Error
			var pe *exec.PanicError
			switch {
			case val == any(injected) && (!errors.As(err, &ce) || ce != injected):
				t.Errorf("%s: got %v, want the injected error wrapped", name, err)
			case val != any(injected) && !errors.As(err, &pe):
				t.Errorf("%s: got %v, want *exec.PanicError", name, err)
			}
			rows, _, err := submit(context.Background(), eng, plan, exec.Request{})
			if err != nil {
				t.Fatalf("%s: query after the fault: %v", name, err)
			}
			got := renderRows(rows)
			sort.Strings(got)
			mustExactEqual(t, name+" after the fault", got, want)
			if hook.served.Load() < 2 {
				t.Errorf("%s: %d typed gathers served; the fault never had a gather to fire in", name, hook.served.Load())
			}
		}
	}
}

// TestFaultsAtTheLabelSites: a schedule that names ExpandLabelBatch or
// LabelDegrees gets vineyard's label-segmented path with its faults in it
// (any other schedule makes the chaos hook decline those calls, which is how
// the matrix above still finds its ExpandBatch faults on vineyard). Under
// gaia and hiactor every kind ends row-for-row correct or cleanly typed, and
// a short read — the sites' degrade — declines from its call on: the rows
// stay right and the unlabelled fallback is seen taking over.
func TestFaultsAtTheLabelSites(t *testing.T) {
	defer query.CheckLeaks(t)()
	stores, schema := matrixStores(t)
	store := stores["vineyard"]
	typedAs := func(target any) func(error) bool {
		return func(err error) bool { return errors.As(err, target) }
	}
	var ce *chaos.Error
	var pe *exec.PanicError
	kinds := []struct {
		kind      chaos.Kind
		wantTyped func(error) bool // nil: the run must succeed with the clean rows
	}{
		{chaos.KindError, typedAs(&ce)},
		{chaos.KindTransientError, retryTransient},
		{chaos.KindPanic, typedAs(&pe)},
		{chaos.KindLatency, nil},
		{chaos.KindShortRead, nil},
	}
	for site, q := range map[grin.Site]string{
		grin.SiteExpandLabelBatch: `MATCH (a:V)-[:E]->(b:V)-[:E]->(c:V) RETURN id(a) AS x, id(c) AS y`,
		grin.SiteLabelDegrees:     `MATCH (a:V)-[:E]->(b:V) WITH a, COUNT(b) AS n RETURN id(a) AS x, n`,
	} {
		plan, err := cypher.Parse(q, schema)
		if err != nil {
			t.Fatal(err)
		}
		// Engine construction builds the catalog, which counts edges through
		// LabelDegrees outside any query's recover boundary: schedules start
		// after the calls one catalog build makes.
		probe := chaos.New(chaos.Options{Faults: []chaos.Fault{{Site: site, Kind: chaos.KindLatency, N: 1 << 40}}})
		optimizer.BuildCatalog(grin.Tap(store, "chaos", probe))
		built := probe.Calls(site)
		for _, engine := range []string{"gaia", "hiactor"} {
			want, err := runOn(engine, store, plan, 0, context.Background())
			if err != nil || len(want) == 0 {
				t.Fatalf("%s %s: clean run: %d rows, %v", engine, site, len(want), err)
			}
			for _, k := range kinds {
				t.Run(fmt.Sprintf("%s/%s/%s", engine, site, k.kind), func(t *testing.T) {
					inj := chaos.New(chaos.Options{Seed: 3, Faults: []chaos.Fault{
						{Site: site, Kind: k.kind, N: built + 2, Latency: 100 * time.Microsecond},
						// Never fires; naming the site makes the hook count it.
						{Site: grin.SiteExpandBatch, Kind: chaos.KindLatency, N: 1 << 40},
					}})
					rows, err := runOn(engine, grin.Tap(store, "chaos", inj), plan, 0, context.Background())
					if inj.Calls(site) < built+2 {
						t.Fatalf("the query made %d calls at %s; the fault at call %d never had one to fire in", inj.Calls(site)-built, site, built+2)
					}
					unlabelled := inj.Calls(grin.SiteExpandBatch)
					switch {
					case k.wantTyped != nil && (err == nil || !k.wantTyped(err)):
						t.Fatalf("fault surfaced as %v", err)
					case k.wantTyped == nil && err != nil:
						t.Fatalf("benign fault failed the query: %v", err)
					case k.wantTyped == nil:
						mustExactEqual(t, k.kind.String(), renderRows(rows), renderRows(want))
					}
					if declined := k.kind == chaos.KindShortRead; declined != (unlabelled > 0) {
						t.Errorf("%d ExpandBatch calls; the unlabelled fallback runs exactly when the site declines", unlabelled)
					}
				})
			}
		}
	}
}
