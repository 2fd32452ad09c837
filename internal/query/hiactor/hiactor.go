// Package hiactor implements the high-concurrency actor engine of §5.3 for
// OLTP queries: a pool of shard actors, each executing one (typically
// parameterized, precompiled) query at a time. Throughput comes from many
// small queries in flight across shards — the design point of the
// fraud-detection deployment (Exp-5, Table 2).
//
// A query runs as Compile then Run(ctx, c, req), where req is the caller's
// exec.Request: parameters, batch size, row budget and an optional stats
// collector, all per call. Install compiles a plan once and registers it as
// a stored procedure; Procedure looks it up for Run, and Call does both.
//
// The actors drain one bounded run queue of Shards × 128 tasks: k actors
// behind one queue are a k-server queue, so a request never waits while an
// actor is idle — a 10 ms complex read occupies one actor and the short
// reads behind it flow through the others. Tasks start in arrival order.
// Each actor owns a query-scoped exec.Arena: the serial driver draws its
// accumulators and stage buffers from it and the operators their scratch,
// the actor resets it before its next task, and after warm-up a query
// allocates little beyond its result rows. An arena retains one buffer set,
// sized by the largest query its actor has run, whatever batch size each
// call asked for.
//
// Every call carries a context: enqueueing respects it (a full run queue plus
// a deadline is the admission-control path — the caller gets a typed error
// instead of blocking forever), execution checks it once per morsel, and a
// query that panics inside an operator or storage trait fails alone — the
// actor recovers, returns a typed *exec.PanicError to that caller, and keeps
// serving the queue.
package hiactor

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/exec"
	"repro/internal/query/ir"
	"repro/internal/query/obsv"
	"repro/internal/query/optimizer"
)

// GraphProvider returns the store view a query should run against. Dynamic
// stores (GART) return their latest snapshot, so every query sees a
// consistent version while writers proceed.
type GraphProvider func() grin.Graph

// Options configures the engine; the per-query knobs ride on each call's
// exec.Request.
type Options struct {
	// Shards is the actor count (0: GOMAXPROCS).
	Shards int
}

// queuePerShard is each actor's share of the shared run queue, which holds
// Shards × queuePerShard waiting tasks. That is the admission bound: past
// it a call waits under its context, and is shed when the context fires,
// instead of queueing.
const queuePerShard = 128

// Engine is the actor pool plus the stored-procedure registry.
type Engine struct {
	provider GraphProvider
	cat      *optimizer.Catalog
	opt      Options

	mu    sync.RWMutex
	procs map[string]*exec.Compiled

	// queue is the run queue every actor drains. Callers enqueue holding
	// closeMu shared and Close closes the queue holding it exclusively, so a
	// send never meets a closed channel: a call either is queued before the
	// close (and completes) or sees closed (and fails).
	queue   chan task
	wg      sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool

	// Pool-level gauges: accepted tasks, shed tasks (rejected at enqueue or
	// expired while queued), and the high-water run-queue depth sampled at
	// enqueue. Atomic adds only, so Metrics is safe against in-flight calls.
	enqueued atomic.Int64
	shed     atomic.Int64
	maxDepth atomic.Int64
}

type task struct {
	ctx   context.Context
	c     *exec.Compiled
	req   exec.Request
	reply chan result
}

type result struct {
	rows []exec.Row
	err  error
}

// NewEngine starts the actor pool. The catalog is built once from the
// provider's current view.
func NewEngine(provider GraphProvider, opt Options) *Engine {
	return newEngine(provider, opt, queuePerShard)
}

// newEngine is NewEngine with each actor's share of the run queue given.
func newEngine(provider GraphProvider, opt Options, perShard int) *Engine {
	if opt.Shards <= 0 {
		opt.Shards = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		provider: provider,
		cat:      optimizer.BuildCatalog(provider()),
		opt:      opt,
		procs:    map[string]*exec.Compiled{},
	}
	e.queue = make(chan task, opt.Shards*perShard)
	for i := 0; i < opt.Shards; i++ {
		e.wg.Add(1)
		go e.actor()
	}
	return e
}

// actor executes tasks from the run queue one at a time. Each task runs
// behind runTask's panic isolation, so a poisoned query returns an error to
// its caller while the actor goroutine — and every other in-flight query —
// survives. The arena is this actor's alone: resetting it when a task starts
// reclaims the previous task's buffers, whose rows were materialized before
// that task replied.
func (e *Engine) actor() {
	defer e.wg.Done()
	arena := new(exec.Arena)
	for t := range e.queue {
		// A query that spent its deadline waiting in the queue is shed
		// without executing — the admission-control degradation path.
		if err := t.ctx.Err(); err != nil {
			e.shed.Add(1)
			if obs := t.req.Obs; obs != nil {
				obs.Mailbox(0, 1)
			}
			t.reply <- result{err: ctxError(t.ctx)}
			continue
		}
		arena.Reset()
		rows, err := e.runTask(t, arena)
		t.reply <- result{rows: rows, err: err}
	}
}

// runTask executes one query with a last-resort recover: panics inside stage
// callbacks are already converted by the exec layer, and anything escaping
// outside them (result materialization, plan bookkeeping) is caught here so
// the actor loop never dies.
func (e *Engine) runTask(t task, arena *exec.Arena) (rows []exec.Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, err = nil, &exec.PanicError{Stage: "hiactor:actor", Value: r}
		}
	}()
	if obs := t.req.Obs; obs != nil {
		obs.SetEngine("hiactor", e.opt.Shards)
	}
	env := &exec.Env{Graph: e.provider(), Request: t.req, Arena: arena}
	return t.c.Run(t.ctx, env)
}

// Metrics is a point-in-time snapshot of the pool's admission gauges.
type Metrics struct {
	Shards   int   // actor count
	Enqueued int64 // tasks accepted into the run queue
	Shed     int64 // tasks shed: rejected at enqueue or expired while queued
	MaxDepth int64 // high-water run-queue depth (tasks waiting for an actor) sampled at enqueue
}

// Metrics reports the pool's cumulative admission-control gauges. The values
// are schedule-dependent (they describe load, not query semantics) and so
// live here rather than in per-stage snapshots.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Shards:   e.opt.Shards,
		Enqueued: e.enqueued.Load(),
		Shed:     e.shed.Load(),
		MaxDepth: e.maxDepth.Load(),
	}
}

// background is the shared no-deadline context for nil-ctx callers.
var background = context.Background()

// ctxError maps a fired context to the exec error taxonomy.
func ctxError(ctx context.Context) error {
	if ctx.Err() == context.DeadlineExceeded {
		return exec.ErrDeadlineExceeded
	}
	return exec.ErrCanceled
}

// Close drains the pool. Pending calls complete; new calls fail.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	close(e.queue)
	e.closeMu.Unlock()
	e.wg.Wait()
}

// Compile optimizes and lowers a plan against the current snapshot's schema,
// so the compiled plan carries typed column layouts. It may later run
// against a newer snapshot; the kinds are hints — runtime mismatches demote
// to boxed columns, never misread payloads.
func (e *Engine) Compile(p *ir.Plan) (*exec.Compiled, error) {
	phys, err := optimizer.Optimize(p, e.cat, optimizer.All())
	if err != nil {
		return nil, err
	}
	opts := exec.Options{}
	if pr, ok := grin.AsPropertyReader(e.provider()); ok {
		opts.Schema = pr.Schema()
	}
	return exec.Compile(phys, opts)
}

// Install compiles and registers a stored procedure under a name. The plan
// is optimized once; Call then binds parameters per invocation — the
// parameterized-query pattern of §2.3.
func (e *Engine) Install(name string, p *ir.Plan) error {
	c, err := e.Compile(p)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.procs[name] = c
	e.mu.Unlock()
	return nil
}

// Procedure returns the stored procedure installed under name, for Run; its
// Out names the output columns.
func (e *Engine) Procedure(name string) (*exec.Compiled, error) {
	e.mu.RLock()
	c, ok := e.procs[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hiactor: unknown procedure %q", name)
	}
	return c, nil
}

// Call is Procedure then Run with params bound.
func (e *Engine) Call(ctx context.Context, name string, params map[string]graph.Value) ([]exec.Row, error) {
	return e.call(ctx, name, exec.Request{Params: params})
}

// CallObserved is Call with req.Obs set.
//
// Deprecated: use Procedure and Run with a non-nil exec.Request.Obs.
func (e *Engine) CallObserved(ctx context.Context, name string, params map[string]graph.Value, obs *obsv.QueryStats) ([]exec.Row, error) {
	return e.call(ctx, name, exec.Request{Params: params, Obs: obs})
}

func (e *Engine) call(ctx context.Context, name string, req exec.Request) ([]exec.Row, error) {
	c, err := e.Procedure(name)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, c, req)
}

// Run executes a compiled plan under ctx on the first actor to come free and
// waits for the result. With a non-nil req.Obs, the per-stage counters, this
// call's run-queue gauge and trace spans (when Obs carries a Trace) are
// recorded into it.
func (e *Engine) Run(ctx context.Context, c *exec.Compiled, req exec.Request) ([]exec.Row, error) {
	if ctx == nil {
		ctx = background
	}
	reply := make(chan result, 1)
	// Held across the enqueue only. A full queue blocks here under the
	// caller's deadline while the actors keep draining, so a waiting Close
	// is delayed, never deadlocked.
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return nil, fmt.Errorf("hiactor: engine closed")
	}
	// The depth gauge samples the run queue at enqueue — the tasks waiting
	// ahead of this call, and the pool's backpressure signal.
	depth := int64(len(e.queue))
	for {
		cur := e.maxDepth.Load()
		if depth <= cur || e.maxDepth.CompareAndSwap(cur, depth) {
			break
		}
	}
	// Enqueue under the caller's deadline: when the run queue is full, the
	// context decides how long to wait — backpressure with a typed timeout
	// instead of an unbounded block.
	select {
	case e.queue <- task{ctx: ctx, c: c, req: req, reply: reply}:
		e.closeMu.RUnlock()
		e.enqueued.Add(1)
		if obs := req.Obs; obs != nil {
			obs.Mailbox(depth, 0)
		}
	case <-ctx.Done():
		e.closeMu.RUnlock()
		e.shed.Add(1)
		if obs := req.Obs; obs != nil {
			obs.Mailbox(depth, 1)
		}
		return nil, ctxError(ctx)
	}
	// The reply channel is buffered, so the actor never blocks sending even
	// if this caller abandons the wait on ctx expiry.
	select {
	case res := <-reply:
		return res.rows, res.err
	case <-ctx.Done():
		return nil, ctxError(ctx)
	}
}
