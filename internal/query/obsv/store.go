package obsv

import (
	"sync/atomic"

	"repro/internal/grin"
)

// NumStoreSites is the number of rows in a store profile: every grin.Site
// but the typed-column gathers, which a metering hook counts at their boxed
// site.
const NumStoreSites = grin.SiteGatherVPropCol

// StoreStats counts trait calls per site for one metered store. Counters are
// a fixed array of atomics — no map, no lock — so batch-loop call sites cost
// one atomic add. The native flags are written once at wrap time (before any
// query runs) and record whether each batch site is served natively by the
// inner backend or routed through grin's generic scalar fallbacks; together
// with the counts they show which path a backend actually took.
type StoreStats struct {
	backend string
	native  [NumStoreSites]bool
	calls   [NumStoreSites]atomic.Int64
}

// SetBackend records the metered backend's name (wrap time, single
// goroutine).
func (s *StoreStats) SetBackend(name string) { s.backend = name }

// SetNative records whether the site's trait is natively provided by the
// inner backend (wrap time, single goroutine).
func (s *StoreStats) SetNative(site grin.Site, native bool) { s.native[site] = native }

// Count records one call to the site.
func (s *StoreStats) Count(site grin.Site) { s.calls[site].Add(1) }

// Calls reads the site's counter.
func (s *StoreStats) Calls(site grin.Site) int64 { return s.calls[site].Load() }

// StoreSiteSnapshot is one site's row in a snapshot.
type StoreSiteSnapshot struct {
	Site  string
	Calls int64
	// Native is true when the inner backend serves this trait itself; false
	// for batch traits that fall back to scalar loops (and for scalar sites
	// on backends that lack the trait entirely).
	Native bool
	// Batch is true for the vectorized trait sites (ExpandBatch, Gather*,
	// ScanBatch) as opposed to per-row scalar sites.
	Batch bool
}

// StoreSnapshot is a point-in-time dump of all 17 site counters, in enum
// order — never map order.
type StoreSnapshot struct {
	Backend string
	Sites   []StoreSiteSnapshot
}

// Snapshot dumps the counters.
func (s *StoreStats) Snapshot() StoreSnapshot {
	snap := StoreSnapshot{Backend: s.backend, Sites: make([]StoreSiteSnapshot, NumStoreSites)}
	for i := grin.Site(0); i < NumStoreSites; i++ {
		snap.Sites[i] = StoreSiteSnapshot{Site: i.String(), Calls: s.calls[i].Load(), Native: s.native[i], Batch: i.Batch()}
	}
	return snap
}
