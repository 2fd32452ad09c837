package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/benchmark/metrics"
	"repro/benchmark/span"
	"repro/benchmark/tracegraph"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/hiactor"
	"repro/internal/query/naive"
	"repro/internal/query/obsv"
	"repro/internal/query/optimizer"
	"repro/internal/query/procedures"
	"repro/internal/storage/gart"
)

// Operation classes of the hiactor workloads.
const (
	classShort uint8 = iota
	classComplex
)

const (
	// The read mix is 70 % short reads S1–S7 and 30 % complex reads C1–C14,
	// each class uniform over its queries. The schedule is dealt in decks: a
	// deck holds every short query deckShort times and every complex query
	// deckComplex times (7×14 : 14×3 = 70 : 30) in an order and with
	// bindings the seed draws, so any run of whole decks is the same mix.
	deckShort   = 14
	deckComplex = 3
	// schedDecks is the length of the pre-drawn schedule clients cycle
	// through, roundDecks the decks of one round (1 120 operations: eleven
	// beyond its p99).
	schedDecks = 240
	roundDecks = 8
	// The open-loop writer of snb_mixed_rw: every burstInterval a burst of
	// burstSize updates cycling U1–U8, each committing its own version.
	burstInterval = 20 * time.Millisecond
	burstSize     = 32
	// traceReadsPerBurst interleaves the traced run's single goroutine: one
	// write burst, then this many reads.
	traceReadsPerBurst = 40
	// naive.Run interprets the unoptimized plan with no index (C9 takes
	// over a second per binding at full scale), so the oracle checks this
	// many bindings of each query against it, and the seed moves which.
	naiveShort   = 4
	naiveComplex = 1
)

// hiactorInst is snb_interactive (read-only, two clients) or snb_mixed_rw
// (one reader beside the open-loop writer): stored procedures on a hiactor
// engine over the gart store's latest snapshot.
type hiactorInst struct {
	cfg    Config
	mixed  bool
	sc     procedures.Scale
	schema *graph.Schema
	batch  *graph.Batch
	gs     *gart.Store
	he     *hiactor.Engine

	pools  []pooled // S1–S7, then C1–C14
	sched  []opRef
	cursor [Cores]int
	// check compares every result with the oracle's. It is off on
	// snb_mixed_rw, where results move with the concurrent writes and are
	// checked on the final snapshot instead.
	check bool

	ups    []procedures.Update
	stream *updateStream
	bursts int // write bursts applied to gs so far
}

// updateStream is the seeded state of the update schedule.
type updateStream struct {
	rng  *rand.Rand
	ids  *procedures.IDAllocator
	next int
}

func newUpdateStream(seed int64, sc procedures.Scale) *updateStream {
	return &updateStream{rng: rand.New(rand.NewSource(derive(seed, 2))), ids: procedures.NewIDAllocator(sc)}
}

// burst applies the next burstSize updates, returning how many failed.
// around, when set, wraps each update (the traced run's span).
func (u *updateStream) burst(s procedures.MutableGraph, ups []procedures.Update, sc procedures.Scale, around func(apply func())) (failed int64) {
	for i := 0; i < burstSize; i++ {
		up := ups[u.next%len(ups)]
		u.next++
		apply := func() {
			if err := up.Apply(s, u.rng, sc, u.ids); err != nil {
				failed++
			}
		}
		if around != nil {
			around(apply)
		} else {
			apply()
		}
	}
	return failed
}

// snbDataSeed generates the one SNB dataset every run of the three SNB
// workloads uses, whatever its --seed: the dataset is the world, the seed
// draws what is asked of it (parameter bindings, operation order, update
// stream). What a complex or BI query costs depends on the graph around the
// hubs it meets — over twelve generated datasets the slowest BI query took
// between 34 and 50 ms — and that is a property of the generator, not of the
// program under test.
const snbDataSeed = 1

func readQueries() []procedures.Query {
	return append(procedures.Short(), procedures.Interactive()...)
}

func loadGart(schema *graph.Schema, b *graph.Batch) (*gart.Store, error) {
	gs := gart.NewStore(schema, 0)
	if err := gs.LoadBatch(b); err != nil {
		return nil, err
	}
	return gs, nil
}

// newHiactor starts an engine and installs all 21 read procedures.
func newHiactor(schema *graph.Schema, provider hiactor.GraphProvider) (*hiactor.Engine, error) {
	he := hiactor.NewEngine(provider, hiactor.Options{Shards: Cores})
	for _, q := range readQueries() {
		plan, err := cypher.Parse(q.Cypher, schema)
		if err == nil {
			err = he.Install(q.Name, plan)
		}
		if err != nil {
			he.Close()
			return nil, fmt.Errorf("install %s: %w", q.Name, err)
		}
	}
	return he, nil
}

func buildHiactor(cfg Config, parts map[string]float64, mixed bool) (instance, error) {
	h := &hiactorInst{cfg: cfg, mixed: mixed, sc: procedures.ScaleOf(cfg.Scale.Persons), schema: dataset.SNBSchema()}
	t0 := span.Now()
	h.batch = dataset.SNB(dataset.SNBOptions{Persons: cfg.Scale.Persons, Seed: snbDataSeed})
	t1 := span.Now()
	gs, err := loadGart(h.schema, h.batch)
	if err != nil {
		return nil, err
	}
	parts["dataset.gen_s"], parts["gart.load_s"] = seconds(t1-t0), seconds(span.Now()-t1)
	h.gs = gs
	h.he, err = newHiactor(h.schema, func() grin.Graph { return gs.Latest() })
	return h, err
}

func (h *hiactorInst) close() { h.he.Close() }

func (h *hiactorInst) draw() {
	rng := rand.New(rand.NewSource(derive(h.cfg.Seed, 1)))
	short := drawPool(procedures.Short(), classShort, h.cfg.Scale.ShortPool, rng, h.sc)
	h.pools = append(short, drawPool(procedures.Interactive(), classComplex, h.cfg.Scale.ComplexPool, rng, h.sc)...)
	h.sched = h.sched[:0]
	for d := 0; d < schedDecks; d++ {
		deck := len(h.sched)
		for q, p := range h.pools {
			n := deckShort
			if p.class == classComplex {
				n = deckComplex
			}
			for ; n > 0; n-- {
				h.sched = append(h.sched, opRef{uint16(q), uint16(rng.Intn(len(p.bind)))})
			}
		}
		rng.Shuffle(len(h.sched)-deck, func(i, j int) { h.sched[deck+i], h.sched[deck+j] = h.sched[deck+j], h.sched[deck+i] })
	}
	for c := range h.cursor {
		h.cursor[c] = c * (schedDecks / Cores) * h.deckOps() // clients start whole decks apart
	}
	h.ups = procedures.Updates()
	h.stream = newUpdateStream(h.cfg.Seed, h.sc)
}

// deckOps is the number of operations in one deck of the schedule.
func (h *hiactorInst) deckOps() int { return len(h.sched) / schedDecks }

func (h *hiactorInst) roundOps() int { return roundDecks * h.deckOps() }

func (h *hiactorInst) oracle(r *run) error {
	if h.mixed {
		return nil // results move with the writes; see verify
	}
	// Reference pass: every pooled binding once, serially, on the idle
	// engine; the naive spot check then ties the engine to the baseline.
	for qi := range h.pools {
		p := &h.pools[qi]
		for b, params := range p.bind {
			rows, err := h.he.Call(ctx, p.Name, params)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			p.want[b] = hashRows(rows)
		}
	}
	h.check = true
	return h.naiveParity(r, h.he, h.gs.Latest())
}

// naiveParity compares the idle engine with naive.Run on the same snapshot
// for the first few bindings of every query.
func (h *hiactorInst) naiveParity(r *run, he *hiactor.Engine, snap grin.Graph) error {
	for _, p := range h.pools {
		n := naiveShort
		if p.class == classComplex {
			n = naiveComplex
		}
		plan, err := cypher.Parse(p.Cypher, h.schema)
		if err != nil {
			return err
		}
		for b := 0; b < n && b < len(p.bind); b++ {
			want, _, err := naive.Run(ctx, plan, snap, p.bind[b])
			if err != nil {
				return fmt.Errorf("naive %s: %w", p.Name, err)
			}
			got, err := he.Call(ctx, p.Name, p.bind[b])
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			if hashRows(got) != hashRows(want) {
				r.mismatch("%s binding %d: hiactor returned %d rows, naive %d, digests differ", p.Name, b, len(got), len(want))
			}
		}
	}
	return nil
}

func (h *hiactorInst) scheduleHash() uint64 {
	return hashSchedule(h.cfg.Workload, h.pools, h.sched, hashBatch(h.batch), uint64(derive(h.cfg.Seed, 2)), burstSize, uint64(burstInterval))
}

func (h *hiactorInst) op(c int) (uint8, int64, bool) {
	ref := h.sched[h.cursor[c]%len(h.sched)]
	h.cursor[c]++
	p := &h.pools[ref.q]
	rows, err := h.he.Call(ctx, p.Name, p.bind[ref.b])
	end := span.Now()
	return p.class, end, err == nil && (!h.check || hashRows(rows) == p.want[ref.b])
}

func (h *hiactorInst) window(d time.Duration) *window {
	for c := range h.cursor {
		h.cursor[c] = alignUp(h.cursor[c], h.deckOps()) // rounds are whole decks
	}
	if !h.mixed {
		return closedLoop(d, Cores, h.op)
	}
	// The write schedule is fixed by seed and duration: all n bursts are
	// applied even when the last ones run late, so both sides of a
	// comparison — and the sequential replay — see the same growth.
	n := int(d / burstInterval)
	var ws *writeStats
	var wg sync.WaitGroup
	wg.Add(1)
	start := span.Now()
	go func() {
		defer wg.Done()
		ws = openLoop(start, n, int64(burstInterval), span.Now, func(ns int64) { time.Sleep(time.Duration(ns)) }, func() int64 {
			return h.stream.burst(h.gs, h.ups, h.sc, nil)
		})
	}()
	w := closedLoop(d, 1, h.op)
	wg.Wait()
	w.writes = ws
	h.bursts += n
	return w
}

// writeStats is the outcome of one open-loop writer.
type writeStats struct {
	lat    []int64 // burst latency from its due time to its last commit
	late   []int64 // how late each burst started
	failed int64
}

// openLoop runs n bursts on a fixed schedule, burst k due at
// start+k*interval whether or not earlier bursts have finished. A burst is
// timed from when it was due, which counts the wait a stall imposes on the
// bursts behind it.
func openLoop(start int64, n int, interval int64, now func() int64, sleep func(int64), burst func() (failed int64)) *writeStats {
	ws := &writeStats{}
	for k := 0; k < n; k++ {
		due := start + int64(k)*interval
		if wait := due - now(); wait > 0 {
			sleep(wait)
		}
		begin := now()
		ws.failed += burst()
		ws.late = append(ws.late, begin-due)
		ws.lat = append(ws.lat, now()-due)
	}
	return ws
}

func (h *hiactorInst) report(r *run, w *window) {
	short, complexLat := w.classLatencies(classShort), w.classLatencies(classComplex)
	r.setPercentile("short_p50_us", short, 50, 1e3)
	r.setPercentile("short_p99_us", short, 99, 1e3)
	r.setPercentile("complex_p50_ms", complexLat, 50, 1e6)
	r.setPercentile("complex_p99_ms", complexLat, 99, 1e6)
	if !h.mixed {
		return
	}
	ws := w.writes
	r.attempted += int64(len(ws.lat)) * burstSize
	r.failed += ws.failed
	slices.Sort(ws.lat)
	slices.Sort(ws.late)
	r.setPercentile("write_p95_ms", ws.lat, 95, 1e6)
	r.setPercentile("load.writer_late_p95_ms", ws.late, 95, 1e6)
	// Reader throughput in the last quarter of the window over the first:
	// below 1 when version-chain growth slows readers down.
	var first, last float64
	for _, s := range w.samples {
		switch at := s.end - w.start; {
		case !s.ok:
		case at < w.dur/4:
			first++
		case at >= w.dur*3/4 && at < w.dur:
			last++
		}
	}
	r.set("gart.read_slowdown", ratio(last, first))
}

// fixedResult is the outcome of one fixed-count schedule.
type fixedResult struct {
	elapsed   int64
	digests   []uint64
	failed    int64
	writeFail int64
	version   uint64
	nv, ne    int
	exec      execTotals
}

// fixedCount runs the traced schedule's fixed operation count on one
// goroutine: with rec nil untraced, otherwise with a span around every call
// into a layer and the store wrapped by tracegraph. snb_mixed_rw runs on a
// fresh store, so that both passes and every repeat see the same versions.
func (h *hiactorInst) fixedCount(rec *span.Recorder) (*fixedResult, error) {
	gs, he := h.gs, h.he
	if h.mixed {
		fresh, err := loadGart(h.schema, h.batch)
		if err != nil {
			return nil, err
		}
		gs = fresh
	}
	if h.mixed || rec != nil {
		provider := func() grin.Graph { return gs.Latest() }
		if rec != nil {
			provider = func() grin.Graph {
				t0 := span.Now()
				snap := gs.Latest()
				rec.Add("gart.Latest", t0, span.Now(), 0, 0)
				return tracegraph.Wrap(snap, rec)
			}
		}
		own, err := newHiactor(h.schema, provider)
		if err != nil {
			return nil, err
		}
		defer own.Close()
		he = own
	}
	stream := newUpdateStream(h.cfg.Seed, h.sc)
	res := &fixedResult{digests: make([]uint64, h.cfg.Scale.TraceOps)}
	runtime.GC() // both passes start from a collected heap
	start := span.Now()
	for i := range res.digests {
		if h.mixed && i%traceReadsPerBurst == 0 {
			if rec == nil {
				res.writeFail += stream.burst(gs, h.ups, h.sc, nil)
			} else {
				rec.Begin("burst")
				res.writeFail += stream.burst(gs, h.ups, h.sc, func(apply func()) {
					s := rec.Enter("gart.Apply")
					apply()
					rec.Exit(s)
				})
				rec.End()
			}
		}
		ref := h.sched[i%len(h.sched)]
		p := &h.pools[ref.q]
		var rows []exec.Row
		var err error
		if rec == nil {
			rows, err = he.Call(ctx, p.Name, p.bind[ref.b])
		} else {
			rec.Begin("op")
			obs := obsv.NewQueryStats()
			s := rec.Enter("hiactor.Call")
			rows, err = he.CallObserved(ctx, p.Name, p.bind[ref.b], obs)
			rec.Exit(s)
			rec.End()
			res.exec.add(obs.Snapshot(), len(rows))
		}
		if err != nil {
			res.failed++
			continue
		}
		res.digests[i] = hashRows(rows)
		if h.check && res.digests[i] != p.want[ref.b] {
			res.failed++
		}
	}
	res.elapsed = span.Now() - start
	res.version = gs.ReadVersion()
	snap := gs.Latest()
	res.nv, res.ne = snap.NumVertices(), snap.NumEdges()
	return res, nil
}

func (h *hiactorInst) trace(r *run, w *window) error {
	m := h.he.Metrics()
	r.set("hiactor.mailbox_depth_max", float64(m.MaxDepth))
	r.set("hiactor.shed", float64(m.Shed))
	t0 := span.Now()
	optimizer.BuildCatalog(h.gs.Latest())
	r.set("optimizer.catalog_build_ms", millis(span.Now()-t0))

	if !h.mixed {
		// Head-of-line blocking: the same read mix with one client, whose
		// shorts never queue behind another client's complex read.
		one := closedLoop(h.cfg.Duration/5, 1, h.op)
		r.attempted += int64(len(one.samples))
		for _, s := range one.samples {
			if !s.ok {
				r.failed++
			}
		}
		two99, _ := metrics.Percentile(w.classLatencies(classShort), 99)
		one99, _ := metrics.Percentile(one.classLatencies(classShort), 99)
		r.set("hiactor.hol_ratio", ratio(float64(two99), float64(one99)))
	}

	// Untraced before and after the traced pass, so that drift over the
	// three passes cancels out of the overhead.
	before, err := h.fixedCount(nil)
	if err != nil {
		return err
	}
	rec := span.NewRecorder()
	traced, err := h.fixedCount(rec)
	if err != nil {
		return err
	}
	after, err := h.fixedCount(nil)
	if err != nil {
		return err
	}
	ops := int64(len(traced.digests))
	r.attempted += 3 * ops
	for _, pass := range []*fixedResult{before, traced, after} {
		r.failed += pass.failed + pass.writeFail
		for i := range pass.digests {
			if pass.digests[i] != before.digests[i] {
				r.mismatch("op %d of the fixed-count schedule returned another result on a later pass", i)
			}
		}
		if pass.version != before.version || pass.nv != before.nv || pass.ne != before.ne {
			r.mismatch("a fixed-count pass ended at version %d (%d vertices, %d edges), the first at %d (%d, %d)",
				pass.version, pass.nv, pass.ne, before.version, before.nv, before.ne)
		}
	}

	store := storeTotals(rec)
	call, reads := rec.Agg("hiactor.Call"), float64(rec.Agg("op").Nanos) // the bursts have roots of their own
	r.set("gart.calls_per_op", ratio(float64(store.calls), float64(ops)))
	r.set("gart.batch_call_frac", ratio(float64(store.batchCalls), float64(store.calls)))
	r.set("gart.busy_frac", ratio(float64(store.nanos), reads))
	r.set("gart.latest_ns", ratio(float64(rec.Agg("gart.Latest").Nanos), float64(rec.Agg("gart.Latest").Count)))
	r.set("gart.versions", float64(traced.version))
	r.set("hiactor.call_us_per_op", micros(call.Nanos)/float64(ops))
	r.set("hiactor.self_frac", ratio(float64(call.Self), reads))
	if h.mixed {
		apply := rec.Agg("gart.Apply")
		r.set("gart.write_us_per_op", ratio(micros(apply.Nanos), float64(apply.Count)))
		r.set("gart.write_fail", float64(traced.writeFail))
	}
	traced.exec.report(r, ops)
	r.set("trace.overhead_frac", 1-ratio(float64(before.elapsed+after.elapsed)/2, float64(traced.elapsed)))
	if err := checkSelfTimes(rec); err != nil {
		return err
	}
	return writeTrace(h.cfg.TraceOut, rec)
}

func (h *hiactorInst) verify(r *run) error {
	if !h.mixed {
		return nil
	}
	// Sequential replay of the same update schedule on a fresh store.
	replay, err := loadGart(h.schema, h.batch)
	if err != nil {
		return err
	}
	stream := newUpdateStream(h.cfg.Seed, h.sc)
	for k := 0; k < h.bursts; k++ {
		if failed := stream.burst(replay, h.ups, h.sc, nil); failed != 0 {
			r.mismatch("replay burst %d: %d updates failed", k, failed)
		}
	}
	got, want := h.gs.Latest(), replay.Latest()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || h.gs.ReadVersion() != replay.ReadVersion() {
		r.mismatch("after %d bursts the store holds %d vertices, %d edges at version %d; the sequential replay %d, %d at %d",
			h.bursts, got.NumVertices(), got.NumEdges(), h.gs.ReadVersion(), want.NumVertices(), want.NumEdges(), replay.ReadVersion())
	}
	return h.naiveParity(r, h.he, got)
}
