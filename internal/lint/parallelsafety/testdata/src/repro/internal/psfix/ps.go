// Package psfix exercises the parallel-safety rule: every goroutine needs a
// join, cancel, or error path. The analyzer has no path filter — the
// invariant holds everywhere.
package psfix

import (
	"context"
	"errors"
	"sync"
)

// Orphan launches a goroutine nothing can join, cancel, or observe failing.
func Orphan(work func()) {
	go func() { // want "goroutine has no join, cancel, or error path"
		work()
	}()
}

// Joined gives the goroutine a WaitGroup exit.
func Joined(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// Signalled gives the goroutine a channel exit.
func Signalled(work func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	return done
}

// CtxCancelable exits through the context's done channel — the ctx-done
// select every engine driver goroutine uses is a valid cancel path, not an
// orphan.
func CtxCancelable(ctx context.Context, work func()) {
	go func() {
		select {
		case <-ctx.Done():
		default:
			work()
		}
	}()
}

// CtxDerived derives its teardown context inside the goroutine; the
// context-typed value alone marks the cancel path.
func CtxDerived(ctx context.Context, work func(context.Context)) {
	go func() {
		segCtx, stop := context.WithCancel(ctx)
		defer stop()
		work(segCtx)
	}()
}

// RecoveredWorker isolates panics behind a recover block and exits through
// its reply channel: the recover must neither hide the join path nor be
// flagged itself.
func RecoveredWorker(work func() error) <-chan error {
	out := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- errors.New("panic isolated")
			}
		}()
		out <- work()
	}()
	return out
}
