// Package span is the benchmark's own tracer: the benchmark records a root
// span per operation and a child span around each call it makes into a
// layer, from outside the program. Spans stay in memory and are written as
// Chrome trace-event JSON when the run ends.
//
// The traced run is single-client, so exactly one operation is open at a
// time; spans recorded by concurrent engine workers (store-trait calls on
// parallel gaia workers) attach to that operation's current parent.
package span

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FullOps is how many operations keep their full spans for the exported
// trace; later operations only feed the per-name aggregates.
const FullOps = 500

// maxKept bounds the exported span buffer, so one operation making millions
// of store calls cannot turn the trace into an unbounded allocation.
const maxKept = 1 << 18

var epoch = time.Now()

// Now is a monotonic nanosecond reading.
func Now() int64 { return int64(time.Since(epoch)) }

// Span is one timed interval. Parent indexes the operation's span list
// (-1 for the root); Lane separates spans that overlap in time.
type Span struct {
	Name       string
	Start, End int64
	Parent     int
	Op         int
	Lane       int
	Rows       int64
}

// Agg accumulates one span name over every operation.
type Agg struct {
	Count int64
	Nanos int64 // summed durations (core-time where spans ran in parallel)
	Self  int64 // summed self times
	Rows  int64
}

// Recorder collects the spans of one traced run.
type Recorder struct {
	mu     sync.Mutex
	cur    []Span // spans of the open operation; cur[0] is the root
	parent int    // index in cur that new child spans attach to
	op     int
	kept   []Span
	agg    map[string]*Agg
	roots  int64         // summed root durations
	selfs  int64         // summed self times of every span
	shared int64         // child time covered by more than one sibling at once
	lanes  atomic.Uint32 // bitmask of lanes held by open concurrent spans
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{agg: map[string]*Agg{}} }

// Begin opens the next operation's root span.
func (r *Recorder) Begin(name string) {
	r.mu.Lock()
	r.cur = append(r.cur[:0], Span{Name: name, Start: Now(), Parent: -1, Op: r.op})
	r.parent = 0
	r.mu.Unlock()
}

// Enter opens a child of the root around one layer call and makes it the
// parent of spans recorded until Exit. It returns the span's index.
func (r *Recorder) Enter(name string) int {
	r.mu.Lock()
	r.cur = append(r.cur, Span{Name: name, Start: Now(), Parent: 0, Op: r.op})
	i := len(r.cur) - 1
	r.parent = i
	r.mu.Unlock()
	return i
}

// Exit closes the span Enter opened and hands parenthood back to the root.
func (r *Recorder) Exit(i int) {
	end := Now()
	r.mu.Lock()
	r.cur[i].End = end
	r.parent = 0
	r.mu.Unlock()
}

// Lane claims a display lane for a span that may overlap others (lane 0 is
// the operation's own); Add releases it.
func (r *Recorder) Lane() int {
	for {
		m := r.lanes.Load()
		free := 0
		for m&(1<<free) != 0 && free < 31 {
			free++
		}
		if r.lanes.CompareAndSwap(m, m|1<<free) {
			return free + 1
		}
	}
}

// Add records a finished span under the current parent. It is safe to call
// from engine worker goroutines.
func (r *Recorder) Add(name string, start, end int64, lane int, rows int64) {
	r.mu.Lock()
	if len(r.cur) > 0 {
		r.cur = append(r.cur, Span{Name: name, Start: start, End: end, Parent: r.parent, Op: r.op, Lane: lane, Rows: rows})
	}
	r.mu.Unlock()
	if lane > 0 {
		r.lanes.And(^(uint32(1) << (lane - 1)))
	}
}

// End closes the operation: it computes every span's self time, folds the
// spans into the aggregates and keeps them for export while the operation
// is among the first FullOps.
func (r *Recorder) End() {
	end := Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur[0].End = end
	self, shared := SelfTimes(r.cur)
	r.shared += shared
	for i, s := range r.cur {
		a := r.agg[s.Name]
		if a == nil {
			a = &Agg{}
			r.agg[s.Name] = a
		}
		a.Count++
		a.Nanos += s.End - s.Start
		a.Self += self[i]
		a.Rows += s.Rows
		r.selfs += self[i]
	}
	r.roots += r.cur[0].End - r.cur[0].Start
	if r.op < FullOps && len(r.kept)+len(r.cur) <= maxKept {
		r.kept = append(r.kept, r.cur...)
	}
	r.op++
	r.cur = r.cur[:0]
}

// Totals returns the summed root durations and the summed self times of all
// spans, counting time that parallel siblings spent side by side once. The
// two are equal unless a child span sticks out of its parent.
func (r *Recorder) Totals() (roots, selfs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roots, r.selfs - r.shared
}

// Ops returns the number of closed operations.
func (r *Recorder) Ops() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.op
}

// Agg returns the aggregate of one span name (zero when never recorded).
func (r *Recorder) Agg(name string) Agg {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.agg[name]; a != nil {
		return *a
	}
	return Agg{}
}

// SelfTimes returns, for each span of one operation, its duration minus the
// part of that interval its child spans cover. Children that overlap (calls
// on parallel workers) cover their union once; shared is the child time
// beyond that union, which the children's own self times count twice.
func SelfTimes(spans []Span) (self []int64, shared int64) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := spans[k].Start, spans[k].End
			shared += end - lo
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.End - s.Start - covered
		shared -= covered
	}
	return self, shared
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the kept spans as a Chrome trace-event JSON array.
func (r *Recorder) WriteChrome(w io.Writer) error {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.kept))
	for _, s := range r.kept {
		e := chromeEvent{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.Lane,
			Args: map[string]any{"op": s.Op}}
		if s.Rows != 0 {
			e.Args["rows"] = s.Rows
		}
		events = append(events, e)
	}
	r.mu.Unlock()
	return json.NewEncoder(w).Encode(events)
}
