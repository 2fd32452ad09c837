// Package obsv is the query observability layer: per-stage runtime stats,
// store-trait call counters, engine gauges, and span traces for one query
// execution. The runtime (exec, gaia, hiactor, naive) hangs a *QueryStats
// off exec.Env behind a nil-pointer fast path — with observability disabled
// every hook is one predictable branch, no allocation, no clock read.
//
// Two contracts shape the design:
//
//   - Determinism: every counter is merged with commutative atomic adds, so
//     totals are identical at any parallelism and worker schedule — the same
//     row-for-row reproducibility the parity matrix pins for results extends
//     to the stats (Deterministic returns exactly the schedule-independent
//     subset). Nothing in this package ever ranges a map to produce ordered
//     output.
//   - Clock hygiene: the execution packages are forbidden from reading the
//     wall clock (flexlint's determinism analyzer); all timing flows through
//     Now here, and time only ever annotates stats and traces — it can never
//     reach result rows.
package obsv

import (
	"sync/atomic"
	"time"
)

// epoch anchors Now; readings are monotonic nanoseconds since process start.
var epoch = time.Now()

// Now returns a monotonic nanosecond reading for stats and trace spans. It
// lives here — not in the engines — so execution packages never touch the
// wall clock directly; durations are observability data, never inputs to
// query evaluation.
func Now() int64 { return int64(time.Since(epoch)) }

// StageStats accumulates one stage's runtime counters. All fields are
// atomics: Gaia workers record per morsel concurrently and the totals are
// order-independent sums.
type StageStats struct {
	// Name is the stage's EXPLAIN name ("SCAN(p)", "EXPAND_FUSED(p->f)", ...).
	Name string

	rowsIn   atomic.Int64
	rowsOut  atomic.Int64
	batches  atomic.Int64
	kernel   atomic.Int64 // fused-filter steps run as monomorphic kernels
	boxed    atomic.Int64 // fused-filter steps on the boxed per-row fallback
	selCand  atomic.Int64 // filter-pass candidate rows
	selSurv  atomic.Int64 // filter-pass surviving rows
	expands  atomic.Bool  // an expansion reported its slots (even 0)
	slots    atomic.Int64 // adjacency slots materialized and scanned
	errors   atomic.Int64
	wallNano atomic.Int64
}

// StageSnapshot is one stage's counters at a point in time — the plain-value
// form EXPLAIN ANALYZE and JSON consumers read.
type StageSnapshot struct {
	Name          string
	RowsIn        int64
	RowsOut       int64
	Batches       int64
	KernelSteps   int64
	BoxedSteps    int64
	SelCandidates int64
	SelSurvivors  int64
	// Expands marks an expansion stage that ran; Slots is then the number of
	// adjacency slots the store handed it and it scanned, over every hop it
	// walked — the work behind its rows, which for a counting expansion
	// (EXPAND_DEGREE) the row counts no longer show. A label-segmented
	// store hands over only the slots of the stage's edge label; a count
	// answered from degrees (Degree, LabelDegrees) scans none.
	Expands   bool
	Slots     int64
	Errors    int64
	WallNanos int64
}

// EngineSnapshot is the engine-gauge section of a snapshot: how the driver
// spent its time, independent of what the stages computed.
type EngineSnapshot struct {
	// Engine names the driver ("naive", "gaia", "hiactor").
	Engine string
	// Workers is the configured parallelism (1 for the serial drivers).
	Workers int
	// Segments counts parallel pipeline segments driven (gaia).
	Segments int64
	// Morsels counts lifecycle-charged morsels across all segments.
	Morsels int64
	// BusyNanos/IdleNanos split worker wall time between processing morsels
	// and waiting on the feed (gaia; serial drivers report busy only).
	BusyNanos int64
	IdleNanos int64
	// QueueDepth is the number of tasks waiting in the engine's shared run
	// queue when this query was enqueued, and Shed is 1 when this query was
	// shed — rejected at enqueue or expired while queued — else 0 (hiactor).
	QueueDepth int64
	Shed       int64
}

// Snapshot is a full point-in-time dump of one query's stats.
type Snapshot struct {
	Stages []StageSnapshot
	Engine EngineSnapshot
	Store  *StoreSnapshot `json:",omitempty"`
	// PoolHits/PoolMisses count batch-pool recycling (gaia's morsel arenas).
	PoolHits   int64
	PoolMisses int64
	// BoxedResultRows counts rows boxed by Batch.Rows — the single
	// sanctioned typed→boxed conversion at the pipeline edge.
	BoxedResultRows int64
}

// QueryStats collects one query execution's observability data. Allocate one
// per query (NewQueryStats), hand it to an engine's *Observed entry point,
// and read Snapshot/Deterministic/Counters after the query returns. A reused
// QueryStats accumulates across runs, which is occasionally what a benchmark
// wants; it is never reset implicitly.
type QueryStats struct {
	// Trace, when non-nil, records span events alongside the counters.
	Trace *Trace
	// Store, when non-nil, receives trait-call counters from a metering
	// storage wrapper (internal/storage/meter).
	Store *StoreStats

	stages []StageStats

	engName    string
	engWorkers int
	segments   atomic.Int64
	morsels    atomic.Int64
	busyNanos  atomic.Int64
	idleNanos  atomic.Int64
	mboxDepth  atomic.Int64
	mboxShed   atomic.Int64

	poolHits   atomic.Int64
	poolMisses atomic.Int64
	boxedRows  atomic.Int64
}

// NewQueryStats returns an empty collector; the stage table is sized when an
// engine binds a compiled plan to it.
func NewQueryStats() *QueryStats { return &QueryStats{} }

// Bind sizes the per-stage table from the compiled plan's stage names.
// Drivers call it once before execution; a rebind with the same shape is a
// no-op so precompiled plans can run repeatedly against one collector.
func (q *QueryStats) Bind(names []string) {
	if len(q.stages) == len(names) {
		return
	}
	q.stages = make([]StageStats, len(names))
	for i, n := range names {
		q.stages[i].Name = n
	}
}

// Stages returns the number of bound stages.
func (q *QueryStats) Stages() int { return len(q.stages) }

// stage returns the counters for a stage ID, or nil for IDs outside the
// bound table (hand-built stages that never went through Compile).
func (q *QueryStats) stage(id int) *StageStats {
	if id < 0 || id >= len(q.stages) {
		return nil
	}
	return &q.stages[id]
}

// StageDone records one stage callback invocation: rows consumed and
// produced, one batch, wall time since start (an obsv.Now reading), and
// whether the callback failed. It also emits the stage's trace span.
func (q *QueryStats) StageDone(id int, name string, rowsIn, rowsOut int, start int64, err error) {
	end := Now()
	if st := q.stage(id); st != nil {
		st.rowsIn.Add(int64(rowsIn))
		st.rowsOut.Add(int64(rowsOut))
		st.batches.Add(1)
		st.wallNano.Add(end - start)
		if err != nil {
			st.errors.Add(1)
		}
	}
	if t := q.Trace; t != nil {
		t.span(name, id, start, end, int64(rowsOut), err)
	}
}

// SourceRows credits the rows of one batch a source stage filled; its wall
// time and span are SourceDone's, once per segment.
func (q *QueryStats) SourceRows(id int, rows int) {
	if st := q.stage(id); st != nil {
		st.rowsOut.Add(int64(rows))
		st.batches.Add(1)
	}
}

// SourceDone records the end of one source run: wall time since start and
// any error, plus the stage's trace span. Rows and batches were credited per
// filled batch by SourceRows. In every driver the span covers the source's
// whole pipeline segment, the downstream work on its morsels included.
func (q *QueryStats) SourceDone(id int, name string, start int64, err error) {
	end := Now()
	if st := q.stage(id); st != nil {
		st.wallNano.Add(end - start)
		if err != nil {
			st.errors.Add(1)
		}
	}
	if t := q.Trace; t != nil {
		t.span(name, id, start, end, 0, err)
	}
}

// FilterStep records one fused-filter conjunct evaluation pass: kernel=true
// for a monomorphic selection kernel over typed payloads, false for the
// boxed per-row fallback (residual conjuncts included).
func (q *QueryStats) FilterStep(id int, kernel bool) {
	st := q.stage(id)
	if st == nil {
		return
	}
	if kernel {
		st.kernel.Add(1)
	} else {
		st.boxed.Add(1)
	}
}

// FilterSel records one whole filter pass's selectivity: candidate rows in,
// surviving rows out.
func (q *QueryStats) FilterSel(id int, candidates, survivors int) {
	if st := q.stage(id); st != nil {
		st.selCand.Add(int64(candidates))
		st.selSurv.Add(int64(survivors))
	}
}

// StageSlots records the adjacency slots one expansion call materialized and
// scanned. It is a per-morsel sum, so totals are identical at any
// parallelism.
func (q *QueryStats) StageSlots(id int, slots int) {
	if st := q.stage(id); st != nil {
		st.expands.Store(true)
		st.slots.Add(int64(slots))
	}
}

// Morsel records one lifecycle-charged morsel of n rows.
func (q *QueryStats) Morsel(n int) {
	q.morsels.Add(1)
	if t := q.Trace; t != nil {
		t.instant("morsel", 0, int64(n), nil)
	}
}

// LifecycleExit records a deadline/cancellation/budget exit observed at a
// lifecycle checkpoint; visible as an instant trace event.
func (q *QueryStats) LifecycleExit(err error) {
	if t := q.Trace; t != nil {
		t.instant("lifecycle-exit", 0, 0, err)
	}
}

// PoolGet records one batch-pool Get (hit: recycled arena, miss: fresh
// allocation).
func (q *QueryStats) PoolGet(hit bool) {
	if hit {
		q.poolHits.Add(1)
	} else {
		q.poolMisses.Add(1)
	}
}

// BoxedRows records n result rows boxed by Batch.Rows at the pipeline edge.
func (q *QueryStats) BoxedRows(n int) { q.boxedRows.Add(int64(n)) }

// SetEngine names the driver and its configured worker count. Engines call
// it on the submitting goroutine before execution begins.
func (q *QueryStats) SetEngine(name string, workers int) {
	q.engName = name
	q.engWorkers = workers
}

// Segment counts one parallel pipeline segment.
func (q *QueryStats) Segment() { q.segments.Add(1) }

// WorkerDone merges one worker goroutine's busy/idle split for a segment.
func (q *QueryStats) WorkerDone(busyNanos, idleNanos int64) {
	q.busyNanos.Add(busyNanos)
	q.idleNanos.Add(idleNanos)
}

// Mailbox records the run-queue depth this query met at enqueue and whether
// it was shed: 1 when it was rejected at enqueue or expired while queued,
// else 0 (hiactor). Depth keeps the maximum seen.
func (q *QueryStats) Mailbox(depth, shed int64) {
	for {
		cur := q.mboxDepth.Load()
		if depth <= cur || q.mboxDepth.CompareAndSwap(cur, depth) {
			break
		}
	}
	q.mboxShed.Store(shed)
}

// StageSnapshots dumps the per-stage counters in stage order.
func (q *QueryStats) StageSnapshots() []StageSnapshot {
	out := make([]StageSnapshot, len(q.stages))
	for i := range q.stages {
		st := &q.stages[i]
		out[i] = StageSnapshot{
			Name:          st.Name,
			RowsIn:        st.rowsIn.Load(),
			RowsOut:       st.rowsOut.Load(),
			Batches:       st.batches.Load(),
			KernelSteps:   st.kernel.Load(),
			BoxedSteps:    st.boxed.Load(),
			SelCandidates: st.selCand.Load(),
			SelSurvivors:  st.selSurv.Load(),
			Expands:       st.expands.Load(),
			Slots:         st.slots.Load(),
			Errors:        st.errors.Load(),
			WallNanos:     st.wallNano.Load(),
		}
	}
	return out
}

// Snapshot dumps everything: stages, engine gauges, pool and boxing
// counters, and the store-trait counters when a metering wrapper is
// attached.
func (q *QueryStats) Snapshot() *Snapshot {
	s := &Snapshot{
		Stages: q.StageSnapshots(),
		Engine: EngineSnapshot{
			Engine:     q.engName,
			Workers:    q.engWorkers,
			Segments:   q.segments.Load(),
			Morsels:    q.morsels.Load(),
			BusyNanos:  q.busyNanos.Load(),
			IdleNanos:  q.idleNanos.Load(),
			QueueDepth: q.mboxDepth.Load(),
			Shed:       q.mboxShed.Load(),
		},
		PoolHits:        q.poolHits.Load(),
		PoolMisses:      q.poolMisses.Load(),
		BoxedResultRows: q.boxedRows.Load(),
	}
	if q.Store != nil {
		snap := q.Store.Snapshot()
		s.Store = &snap
	}
	return s
}

// Deterministic returns only the schedule-independent stage counters: rows,
// batches, slots, filter path hits, and selectivity, with wall times zeroed. For a
// plan without a LIMIT short-circuit these are identical at any parallelism
// and batch schedule — the property the deterministic-merge test pins.
func (q *QueryStats) Deterministic() []StageSnapshot {
	out := q.StageSnapshots()
	for i := range out {
		out[i].WallNanos = 0
	}
	return out
}

// Counters reduces a snapshot to the flat summary flexbench embeds next to
// its timing cells: total rows produced by the final stage, total batches
// across stages, and the fraction of fused-filter passes that ran as typed
// kernels (1 when no filter ran).
func (s *Snapshot) Counters() map[string]float64 {
	c := map[string]float64{}
	var batches, kernel, boxed int64
	for _, st := range s.Stages {
		batches += st.Batches
		kernel += st.KernelSteps
		boxed += st.BoxedSteps
	}
	if n := len(s.Stages); n > 0 {
		c["rows"] = float64(s.Stages[n-1].RowsOut)
	}
	c["batches"] = float64(batches)
	ratio := 1.0
	if kernel+boxed > 0 {
		ratio = float64(kernel) / float64(kernel+boxed)
	}
	c["kernel_path_ratio"] = ratio
	return c
}
