package exec

import "repro/internal/graph"

// Arena is the reusable memory of one driver goroutine — a HiActor actor, a
// Gaia worker (the goroutine that called Gaia is one of them), or the caller
// of a serial Run. It is the only owner of goroutine-local memory in this
// package: Drive draws each segment's Feed and source batch from the arena of
// the goroutine running it, Feed.Next the morsel it hands that goroutine, the
// serial driver its segment accumulators and per-stage Map buffers, a Gaia
// worker its intermediate Map buffers, and every operator its scratch
// (frontiers, adjacency, ID and value columns, row bridges). Stage closures
// are shared by all goroutines running a plan, so that state cannot live in
// the closure; it reaches the operator through Env.Arena, which Drive
// guarantees to be set.
//
// Ownership is single-threaded by construction — one goroutine uses an arena
// at a time, and handing it to another goes through a happens-before edge (a
// channel, a join) — so there is no sync.Pool, no lock, and nothing is
// cleared on the hot path: a short query must not pay a memset sized by the
// largest query its owner ever ran. The one exception is the Feed and its
// source batch, which Gaia's workers reach only under the segment's lock.
// The price is retention: boxed scratch, the morsel copy and the chunk view
// keep referencing the last batch's values (overwhelmingly store-resident
// strings, alive regardless) until they are overwritten. Batches that
// outlive the goroutine or the segment that filled them are BatchPool's job,
// not the arena's.
//
// Batches are handed out in draw order and reshaped to the requested column
// layout, keeping their payload arrays: after a warm-up the arena holds one
// buffer set sized by the largest query its owner has run — expansion
// scratch, once by far the largest part, is sized by one chunk of a frontier
// and, for a counted path, one chunk's reach per level (see walker), not by
// a query — and a steady procedure mix allocates
// only its result rows. The owner calls Reset before
// its next query, which hands every batch back at once; everything a query
// draws stays valid until then — the final batch Drive returns must be
// consumed (Rows) first. A query that panicked or was abandoned mid-flight
// may leave buffers half-written; the reshape on the next draw and the
// truncate-before-use of every scratch slice restore them, so the arena needs
// no cleanup path.
type Arena struct {
	batches []*Batch
	next    int
	// bufs is the per-segment stage-buffer table; segments of one query run
	// one after another, so one table serves them all.
	bufs []*Batch
	// feed is the segment Drive is running; morsel and chunk are what
	// Feed.Next hands this arena's goroutine: a source morsel's copy, and the
	// header of a barrier chunk's view (also the staging view of the copy).
	feed   Feed
	morsel Batch
	chunk  Batch

	// Operator scratch, one field per role: two users that are live at the
	// same time never share one. An expansion or GET_VERTEX runs its pushed
	// filter over the rows it just emitted (expand/gather vs filter), and
	// PROJECT keeps gather.vals live while evalColumn fills eval's ID column
	// and row bridge. A SCAN only proposes candidate vertices — it keeps
	// no predicate scratch, because a predicated scan's SELECT decides with
	// filter like any other. A barrier GROUP gathers its property arguments
	// through gather, which no other stage holds while a barrier runs.
	filter  filterScratch
	expand  expandScratch
	gather  gatherScratch
	eval    gatherScratch
	scanIDs []graph.VID  // label-scan ID chunk
	group   groupScratch // GROUP's typed fold: key index and accumulators
	order   orderScratch // ORDER's key sources and permutation
}

// Reset hands every batch back to the arena. The owner calls it at the start
// of each query; batches drawn before the call must no longer be in use.
func (a *Arena) Reset() { a.next = 0 }

// batch draws an empty batch with the given column layout.
func (a *Arena) batch(kinds []graph.Kind) *Batch {
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
	if cap(a.bufs) < n {
		a.bufs = make([]*Batch, n)
	}
	bufs := a.bufs[:n]
	clear(bufs)
	return bufs
}
