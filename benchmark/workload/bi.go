package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/benchmark/span"
	"repro/benchmark/tracegraph"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/naive"
	"repro/internal/query/obsv"
	"repro/internal/query/optimizer"
	"repro/internal/query/procedures"
	"repro/internal/storage/vineyard"
)

// biRoundPasses is the number of passes in one round: 100 operations, five of
// them the slowest query, whose latencies the round's tail lies in.
const biRoundPasses = 5

// biSchedPasses is the length of the pre-drawn schedule the client cycles
// through.
const biSchedPasses = 64

// biInst is snb_bi: one closed-loop client on the ad-hoc analytical path.
// Each operation is query text → cypher.Parse → gaia.Engine.Submit
// (optimise, compile, data-parallel run) over vineyard, in passes over
// BI1–BI20, each pass in an order of its own.
type biInst struct {
	cfg    Config
	sc     procedures.Scale
	schema *graph.Schema
	st     *vineyard.Store
	eng    *gaia.Engine

	pools  []pooled
	sched  []opRef // biSchedPasses passes, each BI1–BI20 in an order the seed draws
	cursor int
	data   uint64 // digest of the generated dataset
}

func buildBI(cfg Config, parts map[string]float64) (instance, error) {
	b := &biInst{cfg: cfg, sc: procedures.ScaleOf(cfg.Scale.Persons), schema: dataset.SNBSchema()}
	t0 := span.Now()
	batch := dataset.SNB(dataset.SNBOptions{Persons: cfg.Scale.Persons, Seed: snbDataSeed})
	t1 := span.Now()
	st, err := vineyard.Load(batch)
	if err != nil {
		return nil, err
	}
	parts["dataset.gen_s"], parts["vineyard.load_s"] = seconds(t1-t0), seconds(span.Now()-t1)
	b.st, b.data = st, hashBatch(batch)
	b.eng = gaia.NewEngine(st, gaia.Options{Parallelism: Cores})
	return b, nil
}

func (b *biInst) close() {}

func (b *biInst) draw() {
	rng := rand.New(rand.NewSource(derive(b.cfg.Seed, 1)))
	b.pools = drawPool(procedures.BI(), 0, b.cfg.Scale.ComplexPool, rng, b.sc)
	// No BI query draws a parameter, so what the seed decides here is the
	// order of the queries within each pass.
	b.sched = b.sched[:0]
	for pass := 0; pass < biSchedPasses; pass++ {
		for _, q := range rng.Perm(len(b.pools)) {
			b.sched = append(b.sched, opRef{uint16(q), uint16(pass % len(b.pools[q].bind))})
		}
	}
}

func (b *biInst) oracle(*run) error {
	// Most BI queries take no parameters, so equal bindings share one
	// naive.Run.
	for qi := range b.pools {
		p := &b.pools[qi]
		plan, err := cypher.Parse(p.Cypher, b.schema)
		if err != nil {
			return err
		}
		known := map[string]uint64{}
		for i, params := range p.bind {
			key := paramKey(params)
			if _, ok := known[key]; !ok {
				rows, _, err := naive.Run(ctx, plan, b.st, params)
				if err != nil {
					return fmt.Errorf("naive %s: %w", p.Name, err)
				}
				known[key] = hashRows(rows)
			}
			p.want[i] = known[key]
		}
	}
	return nil
}

func (b *biInst) scheduleHash() uint64 { return hashSchedule(b.cfg.Workload, b.pools, b.sched, b.data) }

// next returns the operation at position k of the pass schedule.
func (b *biInst) next(k int) (*pooled, int) {
	ref := b.sched[k%len(b.sched)]
	return &b.pools[ref.q], int(ref.b)
}

func (b *biInst) op(int) (uint8, int64, bool) {
	p, i := b.next(b.cursor)
	b.cursor++
	plan, err := cypher.Parse(p.Cypher, b.schema)
	var rows []exec.Row
	if err == nil {
		rows, _, err = b.eng.Submit(ctx, plan, p.bind[i])
	}
	end := span.Now()
	return 0, end, err == nil && hashRows(rows) == p.want[i]
}

func (b *biInst) window(d time.Duration) *window {
	b.cursor = alignUp(b.cursor, len(b.pools)) // rounds are whole passes
	return closedLoop(d, 1, b.op)
}

// roundOps is biRoundPasses passes over BI1–BI20.
func (b *biInst) roundOps() int { return biRoundPasses * len(b.pools) }

func (b *biInst) report(*run, *window) {}

// pass runs rounds passes over BI1–BI20 from the start of the schedule: with
// rec nil through Submit as the timed window does, otherwise with a span
// around each layer call Submit makes, on eng over the wrapped store.
func (b *biInst) pass(rec *span.Recorder, eng *gaia.Engine, ex *execTotals) (elapsed, failed int64, parseFail int64) {
	start := span.Now()
	for k := 0; k < b.cfg.Scale.TraceRounds*len(b.pools); k++ {
		p, i := b.next(k)
		var rows []exec.Row
		var err error
		if rec == nil {
			plan, perr := cypher.Parse(p.Cypher, b.schema)
			if err = perr; err == nil {
				rows, _, err = eng.Submit(ctx, plan, p.bind[i])
			}
		} else {
			rows, err = b.tracedOp(rec, eng, ex, p, i, &parseFail)
		}
		if err != nil || hashRows(rows) != p.want[i] {
			failed++
		}
	}
	return span.Now() - start, failed, parseFail
}

func (b *biInst) tracedOp(rec *span.Recorder, eng *gaia.Engine, ex *execTotals, p *pooled, i int, parseFail *int64) ([]exec.Row, error) {
	rec.Begin("op")
	defer rec.End()
	s := rec.Enter("cypher.Parse")
	plan, err := cypher.Parse(p.Cypher, b.schema)
	rec.Exit(s)
	if err != nil {
		*parseFail++
		return nil, err
	}
	s = rec.Enter("optimizer.Optimize")
	phys, err := optimizer.Optimize(plan, eng.Catalog(), optimizer.All())
	rec.Exit(s)
	if err != nil {
		return nil, err
	}
	s = rec.Enter("exec.Compile")
	c, err := exec.Compile(phys, exec.Options{Schema: b.schema})
	rec.Exit(s)
	if err != nil {
		return nil, err
	}
	obs := obsv.NewQueryStats()
	s = rec.Enter("gaia.RunCompiled")
	rows, err := eng.RunCompiledObserved(ctx, c, p.bind[i], obs)
	rec.Exit(s)
	ex.add(obs.Snapshot(), len(rows))
	return rows, err
}

func (b *biInst) trace(r *run, _ *window) error {
	t0 := span.Now()
	optimizer.BuildCatalog(b.st)
	r.set("optimizer.catalog_build_ms", millis(span.Now()-t0))

	// Untraced before and after the traced pass, so that drift over the
	// three passes cancels out of the overhead.
	before, failedBefore, _ := b.pass(nil, b.eng, nil)
	rec := span.NewRecorder()
	var ex execTotals
	traced, failedTraced, parseFail := b.pass(rec, gaia.NewEngine(tracegraph.Wrap(b.st, rec), gaia.Options{Parallelism: Cores}), &ex)
	after, failedAfter, _ := b.pass(nil, b.eng, nil)
	ops := int64(b.cfg.Scale.TraceRounds * len(b.pools))
	r.attempted += 3 * ops
	r.failed += failedBefore + failedTraced + failedAfter

	roots, _ := rec.Totals()
	store := storeTotals(rec)
	run := rec.Agg("gaia.RunCompiled")
	r.set("vineyard.calls_per_op", ratio(float64(store.calls), float64(ops)))
	r.set("vineyard.batch_call_frac", ratio(float64(store.batchCalls), float64(store.calls)))
	// Store calls run on Cores parallel workers: their summed time is
	// core-seconds, set against wall time × workers.
	r.set("vineyard.busy_frac", ratio(float64(store.nanos), float64(roots*Cores)))
	r.set("vineyard.expand_rows_per_call", ratio(float64(store.expandRows), float64(store.expandCalls)))
	r.set("vineyard.col_gather_frac", ratio(float64(store.colGathers), float64(store.colGathers+store.boxedGathers)))
	r.set("cypher.parse_us_per_op", micros(rec.Agg("cypher.Parse").Nanos)/float64(ops))
	r.set("cypher.parse_fail", float64(parseFail))
	r.set("optimizer.optimize_us_per_op", micros(rec.Agg("optimizer.Optimize").Nanos)/float64(ops))
	r.set("exec.compile_us_per_op", micros(rec.Agg("exec.Compile").Nanos)/float64(ops))
	ex.report(r, ops)
	r.set("gaia.run_us_per_op", micros(run.Nanos)/float64(ops))
	r.set("gaia.self_frac", ratio(float64(run.Self), float64(roots)))
	r.set("gaia.worker_busy_frac", ratio(float64(ex.busy), float64(ex.busy+ex.idle)))
	r.set("gaia.morsels_per_op", ratio(float64(ex.morsels), float64(ops)))
	r.set("gaia.segments_per_op", ratio(float64(ex.segments), float64(ops)))
	r.set("gaia.pool_hit_ratio", ratio(float64(ex.poolHits), float64(ex.poolHits+ex.poolMisses)))
	r.set("trace.overhead_frac", 1-ratio(float64(before+after)/2, float64(traced)))
	if err := checkSelfTimes(rec); err != nil {
		return err
	}
	return writeTrace(b.cfg.TraceOut, rec)
}

func (b *biInst) verify(*run) error { return nil }
