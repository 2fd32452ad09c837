package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/query/obsv"
)

// The query-lifecycle contract: every execution path ends in exactly one of
//
//   - a complete, row-for-row deterministic result,
//   - ErrDeadlineExceeded / ErrCanceled when the query's context expired,
//   - ErrBudgetExceeded when the per-query row budget ran out,
//   - a *PanicError when an operator or storage trait panicked, or
//   - an ordinary evaluation error (type mismatch, division by zero, ...),
//
// and never a hang, a leaked goroutine, or a silently truncated result set.
// Engines check the context cooperatively once per batch (morsel), so
// cancellation latency is bounded by one morsel's work.

// ErrDeadlineExceeded reports that the query's deadline passed while it was
// executing. It wraps context.DeadlineExceeded so callers can test either.
var ErrDeadlineExceeded = fmt.Errorf("exec: query deadline exceeded: %w", context.DeadlineExceeded)

// ErrCanceled reports that the query's context was canceled mid-execution.
// It wraps context.Canceled so callers can test either.
var ErrCanceled = fmt.Errorf("exec: query canceled: %w", context.Canceled)

// ErrBudgetExceeded reports that the query processed more rows than its
// Request.MaxRows budget allows — the admission-control degradation path: the
// query fails cleanly instead of monopolizing the engine.
var ErrBudgetExceeded = errors.New("exec: query row budget exceeded")

// PanicError is a panic from an operator or storage trait, caught at the
// stage boundary and converted into an error so one bad query cannot take
// down the process or other in-flight queries. Stage identifies the failing
// operator ("EXPAND_FUSED(p->f)", "GROUP", ...); Stack is the panicking
// goroutine's stack at recovery time.
type PanicError struct {
	// Stage is the name of the stage whose callback panicked.
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at the recovery point.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic in stage %s: %v", e.Stage, e.Value)
}

// injected is the structural marker of fault-injection errors: the chaos
// storage wrapper panics with an error implementing it (the GRIN traits are
// errorless by design, so a storage-level failure surfaces exactly the way a
// remote-fragment RPC failure would — as a panic unwound to the stage
// boundary). The recover path converts such panics back into ordinary
// wrapped errors instead of PanicErrors. Structural typing keeps exec free
// of storage-backend imports.
type injected interface {
	error
	ChaosInjected() bool
}

// recovered converts a recovered panic value into the typed error the
// lifecycle contract promises.
func recovered(stage string, r any) error {
	if err, ok := r.(error); ok {
		var inj injected
		if errors.As(err, &inj) && inj.ChaosInjected() {
			return fmt.Errorf("exec: stage %s: %w", stage, err)
		}
	}
	return &PanicError{Stage: stage, Value: r, Stack: debug.Stack()}
}

// The Run* guards are also the observability layer's instrumentation point:
// every driver passes through them once per morsel per stage, so recording
// here covers naive, Gaia, and HiActor identically with no driver-specific
// hooks. The disabled path (env.Obs == nil) costs one pointer load and
// branch per guard — no clock read, no allocation.

// RunMap invokes the stage's Map callback with panic isolation: a panic in
// the operator or in a storage trait it calls becomes a typed error.
func (st *Stage) RunMap(env *Env, in, out *Batch) (err error) {
	obs := env.Obs
	var t0 int64
	var outBase int
	if obs != nil {
		outBase = out.Len()
		t0 = obsv.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			err = recovered(st.Name, r)
		}
		if obs != nil {
			obs.StageDone(st.ID, st.Name, in.Len(), out.Len()-outBase, t0, err)
		}
	}()
	return st.Map(env, in, out)
}

// RunFilter invokes the stage's Filter callback with panic isolation.
func (st *Stage) RunFilter(env *Env, b *Batch) (err error) {
	obs := env.Obs
	var t0 int64
	var inLen int
	if obs != nil {
		inLen = b.Len()
		t0 = obsv.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			err = recovered(st.Name, r)
		}
		if obs != nil {
			obs.StageDone(st.ID, st.Name, inLen, b.Len(), t0, err)
		}
	}()
	return st.Filter(env, b)
}

// RunBlocking invokes the stage's Blocking callback with panic isolation.
func (st *Stage) RunBlocking(env *Env, in *Batch) (out *Batch, err error) {
	obs := env.Obs
	var t0 int64
	var inLen int
	if obs != nil {
		if in != nil {
			inLen = in.Len() // before: LIMIT truncates in place
		}
		t0 = obsv.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, recovered(st.Name, r)
		}
		if obs != nil {
			outLen := 0
			if out != nil {
				outLen = out.Len()
			}
			obs.StageDone(st.ID, st.Name, inLen, outLen, t0, err)
		}
	}()
	return st.Blocking(env, in)
}

// RunSource invokes the stage's Source callback with panic isolation and
// credits the batch it filled (out arrives empty) to the source stage, when
// the fill produced rows. The stage's span is recorded by Drive and covers
// the whole segment, in every driver.
func (st *Stage) RunSource(env *Env, at *graph.VID, n int, out *Batch) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			done, err = true, recovered(st.Name, r)
		}
	}()
	done, err = st.Source(env, at, n, out)
	if obs := env.Obs; obs != nil && err == nil && out.Len() > 0 {
		obs.SourceRows(st.ID, out.Len())
	}
	return done, err
}

// background is the shared no-deadline context, hoisted so the per-query
// paths never re-materialize context.Background()'s interface value.
var background = context.Background()

// lifecycle is the per-query cancellation and budget state shared by every
// driver goroutine of one execution. It lives behind a pointer so that Env
// remains copy-free for the engines that construct it per query.
type lifecycle struct {
	ctx  context.Context
	done <-chan struct{}
	// maxRows > 0 caps the total rows charged; used accumulates across all
	// pipeline segments and workers.
	maxRows int64
	used    atomic.Int64
}

// bind installs the query context into the environment; Drive calls it once
// per execution. A nil ctx binds context.Background() (no deadline, no
// cancellation) with zero per-batch cost.
func (env *Env) bind(ctx context.Context) {
	if env.life == nil {
		env.life = &lifecycle{maxRows: env.MaxRows}
	}
	if ctx == nil {
		ctx = background
	}
	env.life.ctx = ctx
	env.life.done = ctx.Done()
	env.life.maxRows = env.MaxRows
}

// Context returns the query's context (context.Background() before bind).
func (env *Env) Context() context.Context {
	if env.life == nil || env.life.ctx == nil {
		return background
	}
	return env.life.ctx
}

// ctxErr maps a fired context to the lifecycle's typed sentinel.
func ctxErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
}

// Alive is the cooperative cancellation check: nil while the query may keep
// running, ErrDeadlineExceeded/ErrCanceled once its context has fired.
// Sources and drivers call it once per batch; with no deadline or
// cancellation installed it is a nil-channel check.
func (env *Env) Alive() error {
	if env.life == nil || env.life.done == nil {
		return nil
	}
	select {
	case <-env.life.done:
		return ctxErr(env.life.ctx)
	default:
		return nil
	}
}

// ChargeRows charges n processed rows against the query's budget and checks
// the context — the once-per-batch bookkeeping every driver performs before
// running a morsel. Row charges accumulate atomically across Gaia's workers.
// As the per-morsel chokepoint it also feeds the observability layer: a
// morsel count on success, a lifecycle-exit trace event on deadline/
// cancellation/budget failure.
func (env *Env) ChargeRows(n int) error {
	obs := env.Obs
	if err := env.Alive(); err != nil {
		if obs != nil {
			obs.LifecycleExit(err)
		}
		return err
	}
	if obs != nil {
		obs.Morsel(n)
	}
	if env.life == nil || env.life.maxRows <= 0 {
		return nil
	}
	if env.life.used.Add(int64(n)) > env.life.maxRows {
		if obs != nil {
			obs.LifecycleExit(ErrBudgetExceeded)
		}
		return ErrBudgetExceeded
	}
	return nil
}
