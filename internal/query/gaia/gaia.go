// Package gaia implements the dataflow execution engine of §5.3 for OLAP
// queries: the physical plan's pipeline segments run data-parallel over
// sequence-numbered morsels, with barriers at blocking operators
// (ORDER/GROUP/DEDUP/LIMIT) — the MAP/FLATMAP pipeline of Fig 5(e).
//
// A segment runs on P workers, the calling goroutine and P − 1 it spawns,
// that share one exec.Feed and one lock and nothing else. Each worker claims
// the feed's next morsel under the lock, runs it through the segment's
// stages, and publishes the output under the morsel's sequence number;
// whichever worker completes the in-order prefix appends it to the
// accumulator. The feed is the morsel authority the serial driver uses too,
// so results are row-for-row identical to serial execution at any
// Parallelism and batch size. A LIMIT after a segment stops the claims as
// soon as the in-order prefix holds enough rows; a failing or panicking
// operator, a fired deadline or an exhausted row budget stops them too, and
// the error returned is the earliest failed morsel's, the serial driver's
// error. The segment returns once every worker has, on every path.
//
// A GROUP that only counts — COUNT(*) or COUNT(alias), weighted or not, over
// no key or one bare int, vertex or edge key — ends its segment with
// exec's GROUP(partial) stage, so each worker folds its morsel to one row
// per group and the barrier merges partial counts instead of every expanded
// row. The in-order publication is what keeps the merge exact: partial rows
// reach the barrier in morsel-sequence order, so groups appear in the same
// first-appearance order as an unsplit fold would give.
//
// Memory has two owners. Each worker runs with its own exec.Arena — the
// calling goroutine with the query's — holding operator scratch, the
// morsels the feed hands it and its intermediate Map buffers, unshared and
// never cleared. The engine recycles arenas across segments and queries
// through a small free list. Batches that outlive the worker or segment that
// filled them — each morsel's published output and the segment accumulators
// — come from the engine's exec.BatchPool instead.
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

// Options configures the engine; the per-query knobs ride on each call's
// exec.Request.
type Options struct {
	// Parallelism is the worker count per pipeline segment (0: GOMAXPROCS).
	Parallelism int
}

// Engine executes optimized plans data-parallel.
type Engine struct {
	g   grin.Graph
	cat *optimizer.Catalog
	opt Options
	// pool recycles the batches that cross goroutines: the per-morsel outputs
	// workers publish and the segment accumulators, so steady-state execution
	// allocates no batch per morsel.
	pool exec.BatchPool
	// arenas is the free list of goroutine-local arenas, one per worker, the
	// calling goroutine's included: enough for one query to recycle all of
	// its own.
	// Overlapping queries allocate what the list cannot supply and drop what
	// it cannot hold, so retention stays at one query's worth.
	arenas chan *exec.Arena
}

// NewEngine builds a Gaia engine with a catalog for the CBO.
func NewEngine(g grin.Graph, opt Options) *Engine {
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{g: g, cat: optimizer.BuildCatalog(g), opt: opt, arenas: make(chan *exec.Arena, opt.Parallelism)}
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

// Compile optimizes and lowers a logical plan without executing it, for Run
// to execute — EXPLAIN (ANALYZE) keeps the Compiled around for rendering
// after the run.
func (e *Engine) Compile(p *ir.Plan) (*exec.Compiled, error) {
	phys, err := optimizer.Optimize(p, e.cat, optimizer.All())
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

// Run executes a compiled plan data-parallel under ctx: exec.Drive cuts the
// plan into pipeline segments and morsels, parallelSegment runs each segment
// across workers, blocking stages run at barriers. The context is the
// query's lifecycle authority: its deadline or cancellation stops all workers
// cooperatively (once per morsel) and surfaces as
// exec.ErrDeadlineExceeded/exec.ErrCanceled. With a non-nil req.Obs, per-
// stage stats flow through the exec hooks and the engine adds its own gauges
// (worker busy/idle split, segment count, pool hit/miss, boxed result rows);
// a nil Obs is the zero-overhead disabled path.
func (e *Engine) Run(ctx context.Context, c *exec.Compiled, req exec.Request) ([]exec.Row, error) {
	env := &exec.Env{Graph: e.g, Request: req, Arena: e.getArena()}
	// Every goroutine of the query has been joined when Drive returns.
	defer e.putArena(env.Arena)
	obs := req.Obs
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

// Submit is Compile then Run with params bound, returning the rows and the
// output column names.
func (e *Engine) Submit(ctx context.Context, p *ir.Plan, params map[string]graph.Value) ([]exec.Row, []string, error) {
	return e.submit(ctx, p, exec.Request{Params: params})
}

// SubmitObserved is Submit with req.Obs set.
//
// Deprecated: use Compile and Run with a non-nil exec.Request.Obs.
func (e *Engine) SubmitObserved(ctx context.Context, p *ir.Plan, params map[string]graph.Value, obs *obsv.QueryStats) ([]exec.Row, []string, error) {
	return e.submit(ctx, p, exec.Request{Params: params, Obs: obs})
}

// RunCompiledObserved is Run with params and obs set.
//
// Deprecated: use Run with a non-nil exec.Request.Obs.
func (e *Engine) RunCompiledObserved(ctx context.Context, c *exec.Compiled, params map[string]graph.Value, obs *obsv.QueryStats) ([]exec.Row, error) {
	return e.Run(ctx, c, exec.Request{Params: params, Obs: obs})
}

func (e *Engine) submit(ctx context.Context, p *ir.Plan, req exec.Request) ([]exec.Row, []string, error) {
	c, err := e.Compile(p)
	if err != nil {
		return nil, nil, err
	}
	rows, err := e.Run(ctx, c, req)
	if err != nil {
		return nil, nil, err
	}
	return rows, c.Out, nil
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

// segment is the state one parallelSegment run shares between its workers,
// kept in one struct so it escapes to the heap once. mu guards the feed and
// every field after it.
type segment struct {
	e         *Engine
	env       *exec.Env
	seg       []exec.Stage
	kinds     []graph.Kind
	stopAfter int
	wg        sync.WaitGroup

	mu      sync.Mutex
	feed    *exec.Feed
	acc     *exec.Batch
	next    int         // sequence number of the output acc waits for
	pending []published // outputs published ahead of next
	limited bool        // the in-order prefix satisfied the LIMIT
	errSeq  int         // the earliest failed morsel
	err     error       // its error
}

// published is one morsel's output, filed under the morsel's sequence number
// until the in-order prefix reaches it.
type published struct {
	seq int
	b   *exec.Batch
}

// parallelSegment runs one pipeline segment on P workers: the calling
// goroutine and P − 1 it spawns, each running claim, run and publish in a
// loop. A worker claims the feed's next morsel under the segment lock, runs
// it through the segment on its own arena into a pooled output batch, and
// publishes that batch under the morsel's sequence number; whichever worker
// completes the in-order prefix appends it to the accumulator, so the rows
// gathered are the serial driver's, in its order. Workers claim no morsel
// once the prefix satisfies a LIMIT or a morsel fails, and finish the ones
// they hold, so every morsel before a failed one has run: the error returned
// is the earliest failed morsel's — the one the serial driver meets first —
// unless the prefix before it already satisfied the LIMIT, where the serial
// driver stops too. The function returns after every worker has.
func (e *Engine) parallelSegment(env *exec.Env, seg []exec.Stage, feed *exec.Feed, kinds []graph.Kind, stopAfter int) (*exec.Batch, error) {
	if len(seg) == 0 {
		// No transforms: nothing to parallelize, the caller drains the feed
		// itself.
		return exec.RunSegmentSerial(env, seg, feed, e.poolGet(env.Obs, kinds, 0), stopAfter)
	}
	s := &segment{e: e, env: env, seg: seg, kinds: kinds, stopAfter: stopAfter, feed: feed, acc: e.poolGet(env.Obs, kinds, 0)}
	s.wg.Add(e.opt.Parallelism - 1)
	for w := 1; w < e.opt.Parallelism; w++ {
		go s.spawned()
	}
	s.work(env)
	s.wg.Wait()

	for _, p := range s.pending {
		e.pool.Put(p.b)
	}
	if s.limited {
		return s.acc, nil
	}
	err := s.err
	if err == nil {
		// The segment drained normally, but the query's context may have
		// fired after the last morsel was charged; report it rather than
		// return a result the caller would take for a completed query.
		err = env.Alive()
	}
	if err != nil {
		e.pool.Put(s.acc)
		return nil, err
	}
	return s.acc, nil
}

// spawned is a worker goroutine: it runs the loop with its own shallow copy
// of the query's Env — lifecycle and stats pointers stay shared, so the row
// budget, cancellation and counters merge across workers — carrying an arena
// of its own.
func (s *segment) spawned() {
	defer s.wg.Done()
	wenv := *s.env
	wenv.Arena = s.e.getArena()
	defer s.e.putArena(wenv.Arena)
	s.work(&wenv)
}

// work is one worker's claim, run and publish loop. Operator scratch and the
// intermediate Map buffers come from wenv's arena; only the output leaves
// the worker, in a batch drawn from the engine's pool per morsel: the last
// Map stage writes into it, and an all-filter segment copies its narrowed
// morsel into it, so a published batch never aliases a worker's input.
func (s *segment) work(wenv *exec.Env) {
	e, obs := s.e, wenv.Obs
	bufs, last := exec.StageBuffers(wenv, s.seg)
	outKinds := s.kinds
	if last >= 0 {
		outKinds = s.seg[last].OutLayout()
	}
	// With an observer the worker's wall time splits into busy (running and
	// publishing a morsel) and idle (waiting for the lock and the feed).
	var start, busy int64
	if obs != nil {
		start = obsv.Now()
	}
	for {
		b, seq, ok := s.claim(wenv)
		if !ok {
			break
		}
		var m0 int64
		if obs != nil {
			m0 = obsv.Now()
		}
		out := e.poolGet(obs, outKinds, b.Len())
		if last >= 0 {
			bufs[last] = out
		}
		cur, err := exec.RunMorsel(wenv, s.seg, bufs, b)
		if err == nil && last < 0 {
			out.AppendBatch(cur)
		}
		s.finish(seq, out, err)
		if obs != nil {
			busy += obsv.Now() - m0
		}
	}
	if obs != nil {
		obs.WorkerDone(busy, obsv.Now()-start-busy)
	}
}

// claim hands the worker the feed's next morsel under the lock; ok is false
// once the feed is drained, a morsel has failed or the LIMIT is met.
func (s *segment) claim(wenv *exec.Env) (b *exec.Batch, seq int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limited || s.err != nil {
		return nil, 0, false
	}
	b, seq, ok, err := s.feed.Next(wenv)
	if err != nil {
		s.fail(seq, err)
	}
	return b, seq, ok
}

// finish publishes morsel seq's output, or records its failure.
func (s *segment) finish(seq int, out *exec.Batch, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.fail(seq, err)
		s.e.pool.Put(out)
		return
	}
	s.publish(seq, out)
}

// fail records morsel seq's error, keeping the earliest. The caller holds mu.
func (s *segment) fail(seq int, err error) {
	if s.err == nil || seq < s.errSeq {
		s.err, s.errSeq = err, seq
	}
}

// publish files morsel seq's output and appends the in-order prefix it
// completes to the accumulator; AppendBatch compacts any selection the
// segment's trailing filters installed. The caller holds mu.
func (s *segment) publish(seq int, out *exec.Batch) {
	if s.limited {
		s.e.pool.Put(out)
		return
	}
	s.pending = append(s.pending, published{seq, out})
	for i := 0; i < len(s.pending); {
		p := s.pending[i]
		if p.seq != s.next {
			i++
			continue
		}
		s.pending[i] = s.pending[len(s.pending)-1]
		s.pending = s.pending[:len(s.pending)-1]
		s.next++
		i = 0
		s.acc.AppendBatch(p.b)
		s.e.pool.Put(p.b)
		if s.stopAfter > 0 && s.acc.Len() >= s.stopAfter {
			s.limited = true
			return
		}
	}
}
