// Bounded-backoff retry over transient query failures, the helper
// TestTransientFaultRetries drives: a fault the chaos backend marks transient
// is worth re-running the query for, while deadline, cancellation, budget and
// plain evaluation errors are not. Backoff is exponential with deterministic
// seeded jitter (no math/rand, so a test run's exact sleep schedule
// reproduces from its seed) and every wait respects the caller's context: a
// deadline firing mid-backoff surfaces immediately with the context's error,
// never after a stale sleep.
package query_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// transient is the structural marker retryable errors implement — the chaos
// backend's *Error does, with Transient() reporting whether the injected
// kind was transient.
type transient interface {
	error
	Transient() bool
}

// retryTransient reports whether err (anywhere in its wrap chain) is marked
// transient.
func retryTransient(err error) bool {
	var t transient
	return errors.As(err, &t) && t.Transient()
}

// retryPolicy bounds a retry loop.
type retryPolicy struct {
	// Attempts is the total tries, first included (0 or 1: no retrying).
	Attempts int
	// BaseDelay is the backoff before the first retry; each subsequent retry
	// doubles it (0: 1ms).
	BaseDelay time.Duration
	// MaxDelay caps the per-retry backoff (0: 100ms).
	MaxDelay time.Duration
	// Seed drives the jitter stream; the same seed yields the same delays.
	Seed int64
}

// splitmix64 advances state and returns the next value of the jitter stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// retryDo runs op up to p.Attempts times, retrying only errors
// retryTransient reports retryable, with exponential backoff and seeded full
// jitter between tries.
// A context that fires before or during a backoff wait ends the loop with
// ctx.Err(); a non-transient error ends it immediately with that error.
func retryDo(ctx context.Context, p retryPolicy, op func() error) error {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	state := uint64(p.Seed)
	delay := p.BaseDelay
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			// Full jitter in [delay/2, delay]: enough spread to de-correlate
			// concurrent retriers, bounded below so backoff still backs off.
			d := delay/2 + time.Duration(splitmix64(&state)%uint64(delay/2+1))
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
			if delay *= 2; delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		if err = ctx.Err(); err != nil {
			return err
		}
		if err = op(); err == nil || !retryTransient(err) {
			return err
		}
	}
	return err
}

// flaky is a transient error for n failures, then success.
type flaky struct{ fails, calls int }

type transientErr struct{ n int }

func (e *transientErr) Error() string   { return fmt.Sprintf("transient failure %d", e.n) }
func (e *transientErr) Transient() bool { return true }

func (f *flaky) op() error {
	f.calls++
	if f.calls <= f.fails {
		return &transientErr{n: f.calls}
	}
	return nil
}

func TestRetriesTransientUntilSuccess(t *testing.T) {
	f := &flaky{fails: 2}
	err := retryDo(context.Background(), retryPolicy{Attempts: 4, BaseDelay: time.Microsecond}, f.op)
	if err != nil {
		t.Fatalf("Do = %v, want success after retries", err)
	}
	if f.calls != 3 {
		t.Errorf("op ran %d times, want 3 (2 transient failures + 1 success)", f.calls)
	}
}

func TestExhaustedAttemptsReturnLastError(t *testing.T) {
	f := &flaky{fails: 10}
	err := retryDo(context.Background(), retryPolicy{Attempts: 3, BaseDelay: time.Microsecond}, f.op)
	var te *transientErr
	if !errors.As(err, &te) || te.n != 3 {
		t.Fatalf("Do = %v, want the 3rd transient error", err)
	}
	if f.calls != 3 {
		t.Errorf("op ran %d times, want exactly Attempts", f.calls)
	}
}

func TestNonTransientFailsImmediately(t *testing.T) {
	perm := errors.New("permanent")
	calls := 0
	err := retryDo(context.Background(), retryPolicy{Attempts: 5, BaseDelay: time.Microsecond}, func() error {
		calls++
		return perm
	})
	if !errors.Is(err, perm) {
		t.Fatalf("Do = %v, want the permanent error", err)
	}
	if calls != 1 {
		t.Errorf("op ran %d times, want 1 (no retry of non-transient errors)", calls)
	}
}

// TestTransientSeesWrappedErrors pins the structural detection through wrap
// chains — the exec layer rewraps chaos errors with stage context.
func TestTransientSeesWrappedErrors(t *testing.T) {
	wrapped := fmt.Errorf("exec: stage SCAN: %w", &transientErr{n: 1})
	if !retryTransient(wrapped) {
		t.Error("Transient missed a wrapped transient error")
	}
	if retryTransient(errors.New("plain")) {
		t.Error("Transient matched a plain error")
	}
	if retryTransient(nil) {
		t.Error("Transient matched nil")
	}
}

func TestContextCancelStopsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := retryDo(ctx, retryPolicy{Attempts: 5, BaseDelay: time.Hour}, func() error {
		calls++
		return &transientErr{n: calls}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if calls > 1 {
		t.Errorf("op ran %d times under a canceled context, want at most 1", calls)
	}
}

// TestJitterIsSeeded pins determinism: the retry loop with a fixed seed is
// reproducible — same seed, same behavior (verified indirectly: the jitter
// stream cannot make delays exceed the doubling bound, and the loop
// completes within the deterministic schedule's total).
func TestJitterIsSeeded(t *testing.T) {
	f := &flaky{fails: 3}
	start := time.Now()
	err := retryDo(context.Background(), retryPolicy{
		Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 99,
	}, f.op)
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	// Backoffs are at most 1+2+2 ms; anything wildly above means the jitter
	// escaped its [delay/2, delay] bound.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("retries took %v, want bounded backoff", elapsed)
	}
}
