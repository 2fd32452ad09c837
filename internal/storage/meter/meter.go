// Package meter is call counting for any GRIN store: a grin.Hook that counts
// the calls per site into an obsv.StoreStats, put in front of the store by
// grin.Tap. It is chaos's benign sibling — the same sites, counted instead of
// sabotaged, on the same forwarding wrapper — so a fault schedule and a call
// profile always talk about the same surface, and the metered path is the
// timed path: the tap forwards every trait the store has, typed-column
// gathers included.
//
// The tap masks its method set down to the inner store's real capability
// set, which is what makes fallback-vs-native observable: when the inner
// backend lacks a batch trait, grin's generic helpers take the scalar
// fallback *through the tap*, and the scalar site counters (Neighbors,
// VertexProp, ...) rise where a native backend would show batch calls
// (ExpandBatch, GatherVertexProp, ...). The StoreStats native flags record
// which regime each site was in.
//
// Counting is one atomic add per call with no locks and no maps, so a
// metered query stays safe for the engines' full parallelism and the counts
// merge deterministically regardless of worker schedule.
package meter

import (
	"repro/internal/grin"
	"repro/internal/query/obsv"
)

// counter is the counting grin.Hook.
type counter struct{ stats *obsv.StoreStats }

func (counter) Before(grin.Site) (token int64, degrade bool) { return 0, false }

// After counts the call at its site. A served typed gather counts at its
// boxed site (the same trait call in its typed form); a declined one counts
// nothing, the boxed call that follows does.
func (c counter) After(s grin.Site, _ int64, rows int) {
	switch {
	case rows == grin.Declined:
		return
	case s == grin.SiteGatherVPropCol:
		s = grin.SiteGatherVProp
	case s == grin.SiteGatherEPropCol:
		s = grin.SiteGatherEProp
	}
	c.stats.Count(s)
}

// Wrap builds a metering view of inner, named "meter(<inner>)", counting
// into stats. It also records the backend name and the native/fallback
// regime of every site into the sink. Snapshots of the view count into the
// same sink.
func Wrap(inner grin.Graph, stats *obsv.StoreStats) grin.Graph {
	stats.SetBackend(grin.BackendName(inner))
	for s := grin.Site(0); s < obsv.NumStoreSites; s++ {
		stats.SetNative(s, grin.Has(inner, s.Trait()))
	}
	return grin.Tap(inner, "meter", counter{stats})
}
