// Package baselines implements the comparator systems of Exp-3 (Fig 7h-7i):
// a PowerGraph-style GAS engine and a Gemini-style push/pull engine. Both
// produce results identical to the GRAPE algorithms; they differ — exactly as
// the real systems do — in communication granularity:
//
//   - PowerGraph partitions *edges* (vertex-cut), so every gather and every
//     mirror synchronization is a message; messages travel in small batches.
//   - Gemini partitions *vertices* in ranges and synchronizes mirrors by
//     broadcasting each fragment's updated values in fixed-size chunks of
//     raw structs (no compaction, one channel op per chunk).
//   - GRAPE (package grape) combines at the sender and ships one compact
//     varint buffer per fragment pair per superstep.
//
// The ordering GRAPE < Gemini < PowerGraph in runtime therefore emerges from
// the same mechanism the paper credits (§6: aggregating fragmented small
// messages into a continuous compact buffer).
package baselines

import (
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/grin"
)

// msg is the wire unit of both baseline engines.
type msg struct {
	target graph.VID
	value  float64
}

// sendBatched routes messages to per-destination channels in batches of
// batchSize, modeling fine-grained network sends.
type router struct {
	workers   int
	batchSize int
	chans     []chan []msg
}

func newRouter(workers, batchSize int) *router {
	r := &router{workers: workers, batchSize: batchSize, chans: make([]chan []msg, workers)}
	for i := range r.chans {
		r.chans[i] = make(chan []msg, 64)
	}
	return r
}

// sender is a per-worker handle buffering outgoing batches.
type sender struct {
	r    *router
	bufs [][]msg
}

func (r *router) sender() *sender {
	return &sender{r: r, bufs: make([][]msg, r.workers)}
}

func (s *sender) send(dst int, m msg) {
	s.bufs[dst] = append(s.bufs[dst], m)
	if len(s.bufs[dst]) >= s.r.batchSize {
		s.flushOne(dst)
	}
}

func (s *sender) flushOne(dst int) {
	if len(s.bufs[dst]) == 0 {
		return
	}
	batch := make([]msg, len(s.bufs[dst]))
	copy(batch, s.bufs[dst])
	s.bufs[dst] = s.bufs[dst][:0]
	s.r.chans[dst] <- batch
}

func (s *sender) flushAll() {
	for d := range s.bufs {
		s.flushOne(d)
	}
}

// exchange runs one communication round: each worker produces messages via
// produce(workerID, sender), and consume(workerID, batch) handles arrivals.
func (r *router) exchange(produce func(w int, s *sender), consume func(w int, batch []msg)) {
	var prodWG, consWG sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		consWG.Add(1)
		go func(w int) {
			defer consWG.Done()
			for batch := range r.chans[w] {
				consume(w, batch)
			}
		}(w)
	}
	for w := 0; w < r.workers; w++ {
		prodWG.Add(1)
		go func(w int) {
			defer prodWG.Done()
			s := r.sender()
			produce(w, s)
			s.flushAll()
		}(w)
	}
	prodWG.Wait()
	for w := 0; w < r.workers; w++ {
		close(r.chans[w])
	}
	consWG.Wait()
	// Re-arm channels for the next round.
	for i := range r.chans {
		r.chans[i] = make(chan []msg, 64)
	}
}

func defaultWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// collectEdges materializes the edge list for the vertex-cut engines.
func collectEdges(g grin.Graph) (src, dst []graph.VID, eid []graph.EID) {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		grin.ForEachNeighbor(g, graph.VID(v), graph.Out, func(u graph.VID, e graph.EID) bool {
			src = append(src, graph.VID(v))
			dst = append(dst, u)
			eid = append(eid, e)
			return true
		})
	}
	return
}
