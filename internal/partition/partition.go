// Package partition splits a vertex set into fragments for the simulated
// distributed engines. It implements the edge-cut range partitioning used by
// Vineyard/GRAPE (contiguous, weight-balanced vertex ranges; edges crossing
// ranges become messages).
package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Range assigns vertices to fragments by contiguous ranges of roughly equal
// weight. It is defined by its cut points: fragment f owns [cuts[f],
// cuts[f+1]).
type Range struct {
	cuts []graph.VID // len parts+1; cuts[0] = 0, cuts[parts] = n, ascending
}

// NewRange cuts n vertices into parts contiguous fragments so that every
// fragment carries an equal share of Σ weight(v), weight(v) being what
// vertex v costs the caller when it wants fragments that do equal work
// rather than hold equal vertex counts (grape weighs a vertex by what a
// superstep spends on it). A nil weight weighs every vertex 1, which splits
// by count with stride ⌈n/parts⌉.
//
// Fragment f ends after the first vertex at which the running weight reaches
// (f+1) shares, a share being ⌈Σ weight / parts⌉. Targets are global, not
// restarted per fragment, so one overshoot does not shift every later cut; a
// hub that outweighs a share leaves the fragments it swallowed empty.
func NewRange(n, parts int, weight func(graph.VID) int) (*Range, error) {
	if parts <= 0 || n < 0 {
		return nil, fmt.Errorf("partition: invalid n=%d parts=%d", n, parts)
	}
	if weight == nil {
		weight = func(graph.VID) int { return 1 }
	}
	total := 0
	for v := 0; v < n; v++ {
		total += weight(graph.VID(v))
	}
	share := max((total+parts-1)/parts, 1)
	r := &Range{cuts: make([]graph.VID, parts+1)}
	f, sum := 1, 0
	for v := 0; v < n && f < parts; v++ {
		sum += weight(graph.VID(v))
		for ; f < parts && sum >= f*share; f++ {
			r.cuts[f] = graph.VID(v + 1)
		}
	}
	for ; f <= parts; f++ {
		r.cuts[f] = graph.VID(n)
	}
	return r, nil
}

// Owner returns the fragment owning v: the number of interior cuts at or
// below v, found by binary search. Where empty fragments share a cut, the
// owner is the last of them — the one whose range is not empty.
func (r *Range) Owner(v graph.VID) int {
	lo, hi := 0, len(r.cuts)-2 // answer in [lo, hi]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.cuts[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Bounds returns fragment f's vertex range [lo, hi).
func (r *Range) Bounds(f int) (lo, hi graph.VID) { return r.cuts[f], r.cuts[f+1] }
