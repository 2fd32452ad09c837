// Package parallel is the shared work-scheduling runtime used by the storage
// and analytics hot paths: chunked parallel-for over vertex/edge index
// ranges, worker counts sized by the host CPU, and per-worker partial results
// folded by an explicit merge step. It is deliberately tiny — contiguous
// static chunks for uniform work, an atomic cursor for skewed work — so that
// callers keep deterministic layouts (each worker owns a contiguous range and
// merges happen in worker order).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for a loop over n items:
// requested <= 0 selects runtime.GOMAXPROCS(0), and the result is clamped to
// [1, n] so every worker owns a non-empty range (n == 0 yields 1; the loop
// body then simply never runs).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunk returns worker w's contiguous range [lo, hi) of [0, n) split into
// workers near-equal parts (the first n%workers chunks are one larger).
func chunk(n, workers, w int) (lo, hi int) {
	size := n / workers
	rem := n % workers
	lo = w*size + min(w, rem)
	hi = lo + size
	if w < rem {
		hi++
	}
	return lo, hi
}

// For splits [0, n) into one contiguous chunk per worker and runs body on
// each chunk concurrently. body receives the worker index and its [lo, hi)
// range; ranges are disjoint and cover [0, n) in order, so layouts produced
// by For are identical to the sequential loop. workers is resolved with
// Workers; a single worker runs inline on the caller's goroutine.
func For(n, workers int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := chunk(n, workers, w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ForDynamic schedules [0, n) in grain-sized chunks handed to workers from an
// atomic cursor — for skewed per-index costs (per-vertex scans on power-law
// graphs, column files of uneven size) where static chunking load-
// imbalances. grain <= 0 picks n/(8*workers), clamped to at least 1. body
// receives the worker index (stable per goroutine, usable to index partial
// results) and a chunk range. Chunk-to-worker assignment is nondeterministic;
// callers must only perform order-independent work per index.
func ForDynamic(n, workers, grain int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if grain <= 0 {
		grain = n / (8 * workers)
		if grain < 1 {
			grain = 1
		}
	}
	if workers == 1 {
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// Reduce runs body over per-worker contiguous chunks of [0, n), each
// producing a partial result seeded with identity, then folds the partials
// into identity in worker order with merge. Because chunks and the merge
// order are deterministic, Reduce of an associative merge gives the same
// result for any worker count.
func Reduce[T any](n, workers int, identity T, body func(worker, lo, hi int, acc T) T, merge func(a, b T) T) T {
	if n <= 0 {
		return identity
	}
	workers = Workers(workers, n)
	if workers == 1 {
		return body(0, 0, n, identity)
	}
	partials := make([]T, workers)
	For(n, workers, func(w, lo, hi int) {
		partials[w] = body(w, lo, hi, identity)
	})
	acc := identity
	for _, p := range partials {
		acc = merge(acc, p)
	}
	return acc
}

// ReduceDynamic is Reduce with ForDynamic's scheduling: grain-sized chunks
// from an atomic cursor feed per-worker accumulators (seeded with identity),
// which merge in worker order at the end. Chunk-to-worker assignment is
// nondeterministic, so the result is only deterministic for merges that are
// associative and commutative (sums, mins, counts) — use it where per-index
// cost is skewed and the reduction is order-independent.
func ReduceDynamic[T any](n, workers, grain int, identity T, body func(lo, hi int, acc T) T, merge func(a, b T) T) T {
	if n <= 0 {
		return identity
	}
	workers = Workers(workers, n)
	if workers == 1 {
		return body(0, n, identity)
	}
	partials := make([]T, workers)
	for w := range partials {
		partials[w] = identity
	}
	ForDynamic(n, workers, grain, func(w, lo, hi int) {
		partials[w] = body(lo, hi, partials[w])
	})
	acc := identity
	for _, p := range partials {
		acc = merge(acc, p)
	}
	return acc
}
