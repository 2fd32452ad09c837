package grape

import "repro/internal/graph"

// Grouper regroups one fragment's inbox by target, for programs that need
// every value sent to a vertex at once (Pregel's Compute, label propagation).
// It is a stable counting sort over the fragment's vertex range — O(messages
// + range), no hashing — into buffers reused across supersteps. The zero
// Grouper is ready; a fragment keeps its own.
type Grouper struct {
	lo   graph.VID
	off  []int // off[v-lo] : off[v-lo+1] delimits v's values
	vals []float64
}

// Group takes the inbox of the fragment owning [lo, hi).
func (g *Grouper) Group(lo, hi graph.VID, msgs []Message) {
	n := int(hi - lo)
	g.lo = lo
	g.off = resized(g.off, n+2)
	clear(g.off)
	g.vals = resized(g.vals, len(msgs))
	// Count at +2, prefix-sum, then place through +1: each placement
	// advances v's end marker, which is also v+1's start.
	for _, m := range msgs {
		g.off[m.Target-lo+2]++
	}
	for i := 2; i < len(g.off); i++ {
		g.off[i] += g.off[i-1]
	}
	for _, m := range msgs {
		k := m.Target - lo + 1
		g.vals[g.off[k]] = m.Value
		g.off[k]++
	}
}

// Values returns the values sent to v in arrival order, valid until the next
// Group. The caller may reorder them.
func (g *Grouper) Values(v graph.VID) []float64 {
	k := v - g.lo
	return g.vals[g.off[k]:g.off[k+1]]
}

// resized returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified. (Not slices.Grow: `flexlint -allocs`
// cannot attribute an allocation the compiler reports at a standard-library
// position after inlining.)
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
