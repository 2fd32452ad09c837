// Package gaia implements the dataflow execution engine of §5.3 for OLAP
// queries: the physical plan's pipeline segments run data-parallel over
// sequence-numbered batch streams, with barriers at blocking operators
// (ORDER/GROUP/DEDUP/LIMIT) — the MAP/FLATMAP pipeline of Fig 5(e).
//
// Workers consume whole batches and the collector reassembles their output
// in input-sequence order, so results are row-for-row identical to serial
// execution at any Parallelism and BatchSize. A LIMIT after a segment stops
// the segment's source as soon as the in-order output prefix holds enough
// rows; a failing or panicking operator, a fired deadline, or an exhausted
// row budget cancels the producer instead of leaking it. One derived
// context is the single teardown authority for the whole segment: the
// query's own ctx, an internal stop (LIMIT satisfied) and a worker error all
// release every goroutine through the same cancellation.
//
// A GROUP that only counts — COUNT(*) or COUNT(alias), weighted or not, over
// no key or one bare int, vertex or edge key — ends its segment with
// exec's GROUP(partial) stage, so each worker folds its morsel to one row
// per group and the barrier merges partial counts instead of every expanded
// row. The collector's in-order reassembly is what keeps the merge exact:
// partial rows reach the barrier in morsel-sequence order, so groups appear
// in the same first-appearance order as an unsplit fold would give.
//
// Memory has two owners. Each goroutine that runs stages — a worker, or the
// coordinator, which lends its arena to the producer running the source while
// it collects — runs with its own exec.Arena: operator scratch and the
// worker's intermediate Map buffers live there, unshared and never cleared.
// The engine recycles arenas across segments and queries through a small free
// list. Batches that outlive the goroutine or segment that filled them — the
// last Map stage's output a worker hands to the collector, and the segment
// accumulators — come from the engine's exec.BatchPool instead.
package gaia

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/exec"
	"repro/internal/query/ir"
	"repro/internal/query/obsv"
	"repro/internal/query/optimizer"
)

// Options configures the engine.
type Options struct {
	// Parallelism is the worker count per pipeline segment (0: GOMAXPROCS).
	Parallelism int
	// BatchSize is the target rows per batch (0: exec.DefaultBatchSize).
	BatchSize int
	// MaxRows caps the rows one query may process (0: unlimited); exceeding
	// it fails the query with exec.ErrBudgetExceeded. A predicated SCAN
	// charges every candidate its source proposes (see exec.Env.MaxRows).
	MaxRows int64
}

// Engine executes optimized plans data-parallel.
type Engine struct {
	g   grin.Graph
	cat *optimizer.Catalog
	opt Options
	// pool recycles the batches that cross goroutines: the per-morsel outputs
	// workers hand to the collector and the segment accumulators, so steady-
	// state execution allocates no batch per morsel.
	pool exec.BatchPool
	// arenas is the free list of goroutine-local arenas, one per worker plus
	// the coordinator's: enough for one query to recycle all of its own.
	// Overlapping queries allocate what the list cannot supply and drop what
	// it cannot hold, so retention stays at one query's worth.
	arenas chan *exec.Arena
}

// NewEngine builds a Gaia engine with a catalog for the CBO.
func NewEngine(g grin.Graph, opt Options) *Engine {
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{g: g, cat: optimizer.BuildCatalog(g), opt: opt, arenas: make(chan *exec.Arena, opt.Parallelism+1)}
}

// getArena takes an arena off the free list, or allocates one when the list
// is empty. The caller owns it until putArena.
func (e *Engine) getArena() *exec.Arena {
	select {
	case a := <-e.arenas:
		a.Reset()
		return a
	default:
		return new(exec.Arena)
	}
}

// putArena returns an arena no goroutine uses any more; a full list drops it.
func (e *Engine) putArena(a *exec.Arena) {
	select {
	case e.arenas <- a:
	default:
	}
}

// Catalog exposes the engine's statistics catalog.
func (e *Engine) Catalog() *optimizer.Catalog { return e.cat }

// Submit optimizes and executes a logical plan under ctx, returning rows and
// output column names. The context is the query's lifecycle authority: its
// deadline or cancellation stops all workers cooperatively (once per morsel)
// and surfaces as exec.ErrDeadlineExceeded/exec.ErrCanceled.
func (e *Engine) Submit(ctx context.Context, p *ir.Plan, params map[string]graph.Value) ([]exec.Row, []string, error) {
	return e.SubmitWith(ctx, p, params, optimizer.All())
}

// SubmitWith executes with explicit optimizer options (used by the Fig 7e
// rule ablation).
func (e *Engine) SubmitWith(ctx context.Context, p *ir.Plan, params map[string]graph.Value, opt optimizer.Options) ([]exec.Row, []string, error) {
	c, err := e.compileWith(p, opt)
	if err != nil {
		return nil, nil, err
	}
	rows, err := e.RunCompiled(ctx, c, params)
	if err != nil {
		return nil, nil, err
	}
	return rows, c.Out, nil
}

// SubmitObserved is Submit with an observability collector attached: stats
// and trace spans land in obs while results stay row-for-row identical to
// Submit. A nil obs degrades to plain Submit.
func (e *Engine) SubmitObserved(ctx context.Context, p *ir.Plan, params map[string]graph.Value, obs *obsv.QueryStats) ([]exec.Row, []string, error) {
	c, err := e.Compile(p)
	if err != nil {
		return nil, nil, err
	}
	rows, err := e.RunCompiledObserved(ctx, c, params, obs)
	if err != nil {
		return nil, nil, err
	}
	return rows, c.Out, nil
}

// Compile optimizes and lowers a logical plan without executing it — the
// entry point EXPLAIN (ANALYZE) uses so it can keep the Compiled around for
// rendering after the run.
func (e *Engine) Compile(p *ir.Plan) (*exec.Compiled, error) {
	return e.compileWith(p, optimizer.All())
}

func (e *Engine) compileWith(p *ir.Plan, opt optimizer.Options) (*exec.Compiled, error) {
	phys, err := optimizer.Optimize(p, e.cat, opt)
	if err != nil {
		return nil, err
	}
	copts := exec.Options{}
	if pr, ok := grin.AsPropertyReader(e.g); ok {
		// With the catalog schema the compiler types batch columns and
		// compiles predicate kernels; without it every column is boxed.
		copts.Schema = pr.Schema()
	}
	return exec.Compile(phys, copts)
}

// RunCompiled executes a compiled plan data-parallel: exec.Drive cuts the
// plan into pipeline segments and morsels, parallelSegment runs each segment
// across workers, blocking stages run at barriers.
func (e *Engine) RunCompiled(ctx context.Context, c *exec.Compiled, params map[string]graph.Value) ([]exec.Row, error) {
	return e.RunCompiledObserved(ctx, c, params, nil)
}

// RunCompiledObserved is RunCompiled with an observability collector: per-
// stage stats flow through the exec hooks, and the engine adds its own
// gauges (worker busy/idle split, segment count, pool hit/miss, boxed result
// rows). A nil obs is the zero-overhead disabled path.
func (e *Engine) RunCompiledObserved(ctx context.Context, c *exec.Compiled, params map[string]graph.Value, obs *obsv.QueryStats) ([]exec.Row, error) {
	env := &exec.Env{Graph: e.g, Params: params, BatchSize: e.opt.BatchSize, MaxRows: e.opt.MaxRows, Obs: obs, Arena: e.getArena()}
	// Every goroutine of the query has been joined when Drive returns.
	defer e.putArena(env.Arena)
	if obs != nil {
		obs.SetEngine("gaia", e.opt.Parallelism)
	}
	acc, err := c.Drive(ctx, env, e.parallelSegment)
	if err != nil {
		return nil, err
	}
	rows := acc.Rows()
	if obs != nil {
		obs.BoxedRows(len(rows))
	}
	// The final accumulator's payload arrays go back to the pool once the
	// result is materialized — large results otherwise re-grow a fresh
	// accumulator from zero on every query.
	e.pool.Put(acc)
	return rows, nil
}

// poolGet draws from the engine's batch pool, reporting hit/miss to the
// observer when one is attached.
func (e *Engine) poolGet(obs *obsv.QueryStats, kinds []graph.Kind, capRows int) *exec.Batch {
	if obs == nil {
		return e.pool.Get(kinds, capRows)
	}
	b, hit := e.pool.GetHit(kinds, capRows)
	obs.PoolGet(hit)
	return b
}

// seqBatch tags a batch with its position in the input stream.
type seqBatch struct {
	seq int
	b   *exec.Batch
}

// parallelSegment drains the feed (already split into morsels by exec.Drive)
// through a run of Map stages with P workers. Output batches are reassembled
// in input-sequence order, so the gathered rows are identical to serial
// execution. Teardown has one authority: a context derived from the query's
// ctx. stop() fires it when the in-order prefix satisfies a LIMIT or a
// worker fails, and the query's own deadline/cancellation propagates through
// the same channel — the producer unblocks via ErrStop, workers drain, and
// no goroutine is ever left behind on any path.
func (e *Engine) parallelSegment(env *exec.Env, seg []exec.Stage, feed func(exec.EmitBatch) error, kinds []graph.Kind, stopAfter int) (*exec.Batch, error) {
	if len(seg) == 0 {
		// No transforms: nothing to parallelize, the coordinator drains the
		// feed itself.
		return exec.RunSegmentSerial(env, seg, feed, e.poolGet(env.Obs, kinds, 0), stopAfter)
	}

	p := e.opt.Parallelism
	in := make(chan seqBatch, p)
	results := make(chan seqBatch, p)
	segCtx, stop := context.WithCancel(env.Context())
	defer stop()
	done := segCtx.Done()

	// Producer: pumps morsels into the input channel. Cancellation stops the
	// feed via ErrStop instead of leaving the send blocked forever (the
	// goroutine leak the row-at-a-time runtime had on the error path).
	prodErr := make(chan error, 1)
	go func() {
		seq := 0
		err := feed(func(b *exec.Batch) (bool, error) {
			select {
			case in <- seqBatch{seq, b}:
				seq++
				return false, nil // the channel owns the batch now
			case <-done:
				return false, exec.ErrStop
			}
		})
		close(in)
		if err == exec.ErrStop {
			err = nil
		}
		prodErr <- err
	}()

	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop()
	}
	obs := env.Obs
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker runs with its own shallow copy of the query's Env —
			// lifecycle and stats pointers stay shared, so the row budget,
			// cancellation and counters merge across workers — carrying its
			// own arena: operator scratch and the intermediate Map buffers,
			// reused per morsel. Only the last Map stage's output leaves the
			// goroutine; it is drawn from the engine's batch pool per morsel
			// and recycled by the collector once appended. An all-filter
			// segment delivers the morsel view itself, narrowed in place
			// (safe: the producer never reuses an emitted batch).
			wenv := *env
			wenv.Arena = e.getArena()
			defer e.putArena(wenv.Arena)
			bufs, last := exec.StageBuffers(&wenv, seg)
			process := func(sb seqBatch) {
				if last >= 0 {
					bufs[last] = e.poolGet(obs, seg[last].OutLayout(), sb.b.Len())
				}
				cur, err := exec.RunMorsel(&wenv, seg, bufs, sb.b)
				if err != nil {
					fail(err)
					if last >= 0 {
						e.pool.Put(bufs[last])
					}
					return // keep draining so the producer unblocks
				}
				// Always deliver: the collector drains results until every
				// worker exits, and it needs all pre-error morsels to decide
				// whether the in-order prefix satisfied a LIMIT before the
				// error point.
				results <- seqBatch{sb.seq, cur}
			}
			if obs == nil {
				for sb := range in {
					process(sb)
				}
				return
			}
			// Observed path: split the worker's wall time into busy (morsel
			// processing) and idle (waiting on the feed or the collector).
			wstart := obsv.Now()
			var busy int64
			for sb := range in {
				m0 := obsv.Now()
				process(sb)
				busy += obsv.Now() - m0
			}
			obs.WorkerDone(busy, obsv.Now()-wstart-busy)
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: reassemble in input-sequence order. AppendBatch compacts
	// any selection the segment's trailing filters installed; Put drops
	// view batches (their payloads belong to the producer).
	acc := e.poolGet(obs, kinds, 0)
	pending := map[int]*exec.Batch{}
	next := 0
	limitDone := false
	for sb := range results {
		if limitDone {
			e.pool.Put(sb.b)
			continue
		}
		pending[sb.seq] = sb.b
		for {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			acc.AppendBatch(b)
			e.pool.Put(b)
			if stopAfter > 0 && acc.Len() >= stopAfter {
				limitDone = true
				stop()
				break
			}
		}
	}
	//lint:allow determinism drains undelivered morsels back to the pool after an early stop; order cannot reach output rows
	for _, b := range pending {
		e.pool.Put(b)
	}
	ferr := <-prodErr
	if limitDone {
		// The limit was satisfied by the in-order morsel prefix; any error
		// sits in a later morsel, which the serial driver (same morsel
		// partition, courtesy of exec.Drive) would have stopped before
		// evaluating.
		return acc, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if ferr != nil {
		return nil, ferr
	}
	// The segment drained normally, but the query's context may have fired
	// after the last morsel was charged; report it rather than returning a
	// result the caller will mistake for a completed query.
	if err := env.Alive(); err != nil {
		return nil, err
	}
	return acc, nil
}
