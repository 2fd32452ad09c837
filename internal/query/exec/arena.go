package exec

import "repro/internal/graph"

// Arena is a query-scoped set of batch buffers owned by one goroutine — one
// HiActor actor. The serial driver draws its source buffer, segment
// accumulators and per-stage Map buffers from it instead of allocating them
// per call, and the owner calls Reset before its next query, which hands
// every buffer back at once. Ownership is single-threaded by construction (an
// actor runs one query at a time and materializes the result rows before it
// takes the next), so there is no sync.Pool, no lock, and nothing is cleared
// on the hot path.
//
// Buffers are handed out in draw order and reshaped to the requested column
// layout, keeping their payload arrays: after a warm-up the arena holds one
// buffer set sized by the largest query its owner has run, and a steady
// procedure mix allocates only its result rows. Everything a query draws stays
// valid until the next Reset — a batch returned by RunBatch with an arena
// installed must be consumed (Rows) before then. A query that panicked or was
// abandoned mid-flight may leave buffers half-written; the reshape on the next
// draw restores them, so the arena needs no cleanup path.
//
// A nil *Arena is valid and allocates a fresh batch per draw — the behavior of
// every caller that installs none (naive, Gaia's coordinator, tests).
type Arena struct {
	batches []*Batch
	next    int
	// bufs is the per-segment stage-buffer table; segments of one query run
	// one after another, so one table serves them all.
	bufs []*Batch
}

// Reset hands every buffer back to the arena. The owner calls it at the start
// of each query; batches drawn before the call must no longer be in use.
func (a *Arena) Reset() {
	if a != nil {
		a.next = 0
	}
}

// batch draws an empty batch with the given column layout.
func (a *Arena) batch(kinds []graph.Kind) *Batch {
	if a == nil {
		return NewBatchKinds(kinds, 0)
	}
	if a.next == len(a.batches) {
		a.batches = append(a.batches, NewBatchKinds(kinds, 0))
	} else {
		a.batches[a.next].reshape(kinds)
	}
	b := a.batches[a.next]
	a.next++
	return b
}

// stageBufs returns a nil-filled table of n stage-buffer slots.
func (a *Arena) stageBufs(n int) []*Batch {
	if a == nil {
		return make([]*Batch, n)
	}
	if cap(a.bufs) < n {
		a.bufs = make([]*Batch, n)
	}
	bufs := a.bufs[:n]
	clear(bufs)
	return bufs
}
