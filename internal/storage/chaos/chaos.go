// Package chaos is deterministic fault injection for any GRIN store: a
// grin.Hook (Injector) that counts the calls per site and fires configured
// faults at exact call numbers, put in front of the store by grin.Tap — the
// tap owns the forwarding, the trait masking and the snapshot re-wrapping;
// this package is only the faults. The GRIN traits are errorless by design,
// so an injected error is *panicked* as a value implementing the
// ChaosInjected marker; the exec layer's stage recovery converts it back
// into an ordinary wrapped error — exactly the unwinding a failing
// remote-fragment RPC would take in the distributed deployment. Raw injected
// panics stay panics and surface as *exec.PanicError, exercising the
// isolation path.
//
// Schedules are reproducible: faults fire on the Nth call to a site (counted
// atomically across all workers of a query), and Plan derives a whole fault
// schedule from a single seed with a splitmix64 stream — the same seed
// always yields the same schedule, so any matrix failure replays from its
// logged seed.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/grin"
)

// Sites lists every injectable site, for seeded schedules: all of grin's but
// the typed-column gathers, which a chaos-wrapped store never serves (see
// Injector.Before).
func Sites() []grin.Site {
	var ss []grin.Site
	for s := grin.Site(0); !s.Typed(); s++ {
		ss = append(ss, s)
	}
	return ss
}

// Kind is what happens when a fault fires.
type Kind uint8

const (
	// KindError panics with a permanent *Error; exec recovers it into a
	// wrapped error and the query fails cleanly.
	KindError Kind = iota
	// KindTransientError is KindError with Transient() = true, the retry
	// layer's signal that re-running the query may succeed.
	KindTransientError
	// KindPanic panics with a plain non-error value; exec converts it into a
	// *exec.PanicError — the isolation path.
	KindPanic
	// KindLatency sleeps Fault.Latency before the call proceeds, stretching
	// queries into their deadlines without corrupting results.
	KindLatency
	// KindShortRead takes the site's legal lesser path, so results must
	// remain row-for-row identical: ScanBatch gets half its buffer and
	// returns fewer vertices than asked with a valid resume cursor;
	// ExpandLabelBatch and LabelDegrees decline, and the caller answers from
	// the unlabelled traits. Ignored at other sites.
	KindShortRead
)

// String names the kind in errors and matrix logs.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindTransientError:
		return "transient"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindShortRead:
		return "shortread"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault fires Kind at the Nth call (1-based, counted atomically across all
// goroutines of the query) to Site. KindShortRead and KindLatency instead
// apply from the Nth call onward — a single stretched or shortened call
// rarely lands where the schedule intends, a persistent one always does.
type Fault struct {
	Site grin.Site
	Kind Kind
	// N is the triggering call number, 1-based. Zero means 1.
	N int64
	// Latency is the added delay for KindLatency.
	Latency time.Duration
}

// Options configures a wrapper.
type Options struct {
	// Seed labels the schedule for reproduction logs (Plan also derives
	// schedules from it). Seed itself has no effect on explicit Faults.
	Seed int64
	// Faults is the schedule.
	Faults []Fault
}

// Error is an injected fault in flight. It travels by panic through the
// errorless GRIN traits; exec's stage recovery detects ChaosInjected and
// rewraps it as an ordinary error.
type Error struct {
	Site grin.Site
	Kind Kind
	// N is the call number at which the fault fired.
	N int64
	// Seed is the schedule's seed, for replay.
	Seed int64
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected %s at %s call %d (seed %d)", e.Kind, e.Site, e.N, e.Seed)
}

// ChaosInjected marks the error as deliberately injected (the exec layer's
// structural test for rewrapping recovered panics as plain errors).
func (e *Error) ChaosInjected() bool { return true }

// Transient reports whether retrying the whole query may succeed — the
// retry layer's structural test.
func (e *Error) Transient() bool { return e.Kind == KindTransientError }

// site is one call site's counter plus its slice of the schedule.
type site struct {
	calls  atomic.Int64
	faults []Fault
}

// Injector is the fault-injecting grin.Hook. Safe for concurrent use: the
// schedule is immutable after New and the counters are atomic. Every
// Snapshot of a tapped store shares it, so faults keep firing on the view a
// query actually reads.
type Injector struct {
	seed  int64
	sites [grin.NumSites]site
}

// New builds the hook for a schedule.
func New(opt Options) *Injector {
	in := &Injector{seed: opt.Seed}
	for _, f := range opt.Faults {
		if f.N <= 0 {
			f.N = 1
		}
		in.sites[f.Site].faults = append(in.sites[f.Site].faults, f)
	}
	return in
}

// Wrap builds a fault-injecting view of inner, named "chaos(<inner>)".
func Wrap(inner grin.Graph, opt Options) grin.Graph { return grin.Tap(inner, "chaos", New(opt)) }

// Calls reports how many times a site with scheduled faults has been called —
// test introspection for pinning schedules to real call counts.
func (in *Injector) Calls(s grin.Site) int64 { return in.sites[s].calls.Load() }

// Before implements grin.Hook: it counts one call to the site and fires any
// fault scheduled for this call number. A scheduled short read is reported
// as degrade — ScanBatch halves its buffer, a LabelAdjacency site declines
// to the caller's unlabelled fallback from that call on, other sites ignore
// it; the other kinds act here.
func (in *Injector) Before(s grin.Site) (token int64, degrade bool) {
	if s.Typed() {
		// Typed gathers always decline, so every fault scheduled at a boxed
		// gather site is reached and the boxed fallback every caller must
		// keep is what the fault matrix runs.
		return 0, true
	}
	st := &in.sites[s]
	if st.faults == nil {
		// A LabelAdjacency site the schedule does not name declines, like a
		// typed gather: the query then runs the unlabelled fallback, where
		// the faults the schedule does name (ExpandBatch, GatherEdgeLabels,
		// Degree) are waiting. A schedule that names the site gets the
		// store's own path, and its faults, there.
		return 0, s.Trait() == grin.TraitLabelAdjacency
	}
	n := st.calls.Add(1)
	for _, f := range st.faults {
		persistent := f.Kind == KindLatency || f.Kind == KindShortRead
		if n != f.N && !(persistent && n > f.N) {
			continue
		}
		switch f.Kind {
		case KindError, KindTransientError:
			panic(&Error{Site: s, Kind: f.Kind, N: n, Seed: in.seed})
		case KindPanic:
			panic(fmt.Sprintf("chaos: injected panic at %s call %d (seed %d)", s, n, in.seed))
		case KindLatency:
			time.Sleep(f.Latency)
		case KindShortRead:
			degrade = true
		}
	}
	return 0, degrade
}

// After implements grin.Hook; faults fire ahead of the call only.
func (in *Injector) After(grin.Site, int64, int) {}
