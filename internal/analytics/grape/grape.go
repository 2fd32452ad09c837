// Package grape implements the high-performance analytical engine of §6: a
// fragment-centric distributed engine executing PIE-model programs (partial
// evaluation + incremental evaluation) over range-partitioned fragments.
//
// The paper's GRAPE runs fragments on cluster nodes over MPI; here each
// fragment runs on its own goroutine for the whole run, the fragments meet at
// one barrier per superstep, and "the network" is the shared address space.
// Fragments are the engine's only parallelism: PEval and IncEval are the
// sequential code the PIE model promises, and a program uses more cores by
// running more fragments. What §6 asks of the message path — combine at the
// sender, one contiguous hand-off per fragment pair per superstep — is kept,
// at the cost of the loop it replaces:
//
//   - Each program declares its Exchange: its combiner, and the adjacency a
//     superstep walks per inner vertex (Out for a scatter along out-edges,
//     In for a pull over in-edges, Both for both). Fragments are contiguous
//     vertex ranges cut so each holds an equal share of that work, not an
//     equal vertex count: a generator that puts every out-edge in the first
//     half of the ID range would otherwise leave half the fragments idle. A
//     vertex weighs vertexWork(Combine) + its degree along Walk (Both: out +
//     in). With a combiner an in-edge costs its receiver nothing, since the
//     gather is per target, so a scatter declares Out; without one every
//     in-edge a vertex is sent along becomes a delivered Message, so a
//     program that sends along Both declares Both. A pull recomputes only
//     the vertices whose value some vertex reads, those with an out-edge, and
//     pulls each sink once, in its last superstep, so under In a sink weighs
//     vertexWork alone: PageRank's cut is Σ(1 + [outdeg > 0]·indeg). The
//     engine cuts once per weight class, on the first Run that needs it, and
//     reuses the cut.
//   - The combiner is a closed type (NoCombine, Sum, Min), so folding a
//     message is inlined arithmetic, never an indirect call.
//   - With a combiner every source fragment folds its sends into one flat
//     accumulator over all n vertices — a float64 cell per vertex holding the
//     combiner's identity (−0 for Sum, +Inf for Min) until touched, plus a
//     touched bitmap of n/8 bytes. A fold is `cell[t] = comb(cell[t], val)`
//     and, while the superstep is sparse, `bits[t>>6] |= 1<<(t&63)`: no owner
//     lookup, no per-destination buffer, no append.
//   - SendToNeighbors is the bulk form of Send: the engine resolves the array
//     trait once, walks AdjSlice itself and folds with the combiner hoisted
//     out of the loop — no closure per vertex, no call per edge. Per-edge
//     Send/SendAux remain for values that depend on the edge.
//   - Dense supersteps do plain array work, sparse ones bookkeeping (as
//     Gemini switches its dense and sparse modes): once a source has sent n
//     messages in a superstep its bulk sends stop setting bits,
//     and the gather scans the cells of its range, taking any cell whose bits
//     are not the identity's. A send of a value the identity absorbs (−0
//     under Sum; +Inf or NaN under Min) still sets its bit, so it is still
//     delivered. A sparse superstep — a BFS frontier, a late SSSP relaxation
//     — keeps the bitmap, and its gather costs what was touched plus n/64
//     words.
//   - The exchange copies nothing, and fragments meet once per superstep.
//     Every buffer the exchange reads — accumulators, materialised messages,
//     the continue-vote — exists twice, by superstep parity. After superstep s's barrier destination d reads range
//     [lo_d, hi_d) of every source's parity-s accumulator, combines the
//     touched cells in source order, resets them, and appends to an inbox it
//     owns and reuses, while a faster fragment already runs s+1 into the
//     other parity; the barrier of s+1 is what lets a source reuse parity s.
//     Inboxes therefore arrive in ascending target order with at most one
//     message per target — a guarantee of the combiner path that
//     Program.IncEval states.
//
// Without a combiner, sends are buffered per destination fragment as
// Messages (Aux is carried only here) and the destination concatenates them
// in source order.
//
// A program may also exchange through state of its own instead of messages,
// as a pull does: per-vertex state that a fragment writes for its inner
// vertices in superstep s, double-buffered by Superstep() parity, is readable
// by every fragment in superstep s+1. The one barrier per superstep orders
// those accesses: no fragment begins superstep s+1 before every fragment has
// finished superstep s, and none begins s+2 — which writes parity s again —
// before every fragment has finished reading it in s+1. State that is
// written in one superstep only (WCC's local roots, written in PEval) needs
// no second buffer: every fragment may read it from the next superstep on.
package grape

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/partition"
)

// Message is one value directed at a vertex. Value is a float64 payload —
// wide enough for ranks, distances, levels and component/community labels
// (vertex IDs are exactly representable).
type Message struct {
	Target graph.VID
	// Aux carries a small integer payload alongside Value (a shareholder ID
	// for equity propagation). It is delivered only by engines running
	// NoCombine: combined messages have no single sender, so their Aux is 0.
	Aux   uint32
	Value float64
}

// Program is a PIE-model algorithm: PEval runs once on every fragment, then
// IncEval runs on every fragment each superstep until no fragment received a
// message or voted to rerun.
type Program interface {
	// Exchange declares how the program's messages combine and which
	// adjacency its supersteps walk; Run reads it once.
	Exchange() Exchange
	// PEval performs partial evaluation on a fragment.
	PEval(f *Fragment, ctx *Context)
	// IncEval performs incremental evaluation given freshly arrived
	// messages. msgs belongs to the engine and is valid until IncEval
	// returns; the program may reorder it in place. With a combiner it holds
	// at most one message per target, in ascending target order.
	IncEval(f *Fragment, ctx *Context, msgs []Message)
}

// Combiner merges message values directed at the same target.
type Combiner uint8

const (
	// NoCombine delivers every message individually, Aux included.
	NoCombine Combiner = iota
	// Sum delivers the sum of the values sent to a target (PageRank); a sum
	// of zeros is delivered as +0.
	Sum
	// Min delivers the smallest value sent to a target (BFS, SSSP).
	Min
)

// identity is the value an untouched accumulator cell holds: −0 under Sum,
// the exact additive identity, so that no sum lands back on it unless every
// addend was −0.
func (c Combiner) identity() float64 {
	if c == Min {
		return math.Inf(1)
	}
	return math.Copysign(0, -1)
}

// absorbs reports whether folding val leaves an identity cell unchanged, so
// that only a touched bit can tell the target was sent to.
func (c Combiner) absorbs(val float64) bool {
	if c == Min {
		return !(val < math.Inf(1))
	}
	return math.Float64bits(val) == math.Float64bits(c.identity())
}

func (c Combiner) apply(a, b float64) float64 {
	if c == Sum {
		return a + b
	}
	return min(a, b)
}

// Exchange is what a program declares about its supersteps.
type Exchange struct {
	// Combine merges message values directed at the same target.
	Combine Combiner
	// Walk is the adjacency a superstep's work follows per inner vertex,
	// and what fragments are cut by: Out for a scatter along out-edges, In
	// for a pull over in-edges whose sinks (no out-edge, so no vertex reads
	// their value) are pulled in the last superstep only, Both when both
	// cost (without a combiner, every in-edge a vertex is sent along
	// arrives as a Message).
	Walk graph.Direction
}

// Options configures an Engine.
type Options struct {
	// Fragments is the fragment count, one goroutine each: the engine's only
	// parallelism. 0 selects GOMAXPROCS; a fixed count gives results that do
	// not depend on the machine (Sum combines in fragment order).
	Fragments int
}

// Engine executes PIE programs over a partitioned graph view. Its runs must
// not overlap: they share the cuts and the accumulators.
type Engine struct {
	g   grin.Graph
	adj grin.AdjArray // nil when the store lacks (or masks) the array trait
	nf  int
	// cuts[k] is the cut of weight class k (see weightClass), made by the
	// first Run of that class.
	cuts [2 * (graph.Both + 1)]*cut
	// acc[c][p][f] is fragment f's flat accumulator under combiner c for
	// supersteps of parity p, made by the first Run under c (none for
	// NoCombine). All cells hold the identity between runs.
	acc   [Min + 1][2][]*accum
	stats *RunStats
}

// cut is one partition of the vertex range and its fragments.
type cut struct {
	part *partition.Range
	fr   []*Fragment
}

// combinedWork is what one vertex costs a combined superstep, in out-edges
// scattered: its IncEval loop iteration, its inbox message and its share of
// the gather. It was measured from RunStats on a 2-vCPU x86 VM, on the push
// PageRank the library ran then: at one fragment over Datagen 20 000 × {4,
// 8, 16, 32}, the median ComputeNs + ExchangeNs of a superstep fitted to
// a·n + b·edges gave a = 15–21 ns and b = 1.6–1.8 ns, a/b = 9.5–11.8 in four
// fits. On the graphalytics graph at two fragments the fragments' busy times
// (µs per superstep, fragment 0 / 1) read 429 / 487 at 9, 513 / 537 and
// 447 / 418 at 10, 490 / 408 at 14; whole runs at 6, 8 and 10 differed by
// less than the VM's noise. PageRank now pulls and WCC joins local roots,
// both without a message; the constant serves the scatters that combine —
// BFS and SSSP.
const combinedWork = 10

// vertexWork is what one vertex costs a superstep beyond the edges it walks,
// in walked edges: combinedWork with a combiner, 1 without.
func vertexWork(c Combiner) int {
	if c == NoCombine {
		return 1
	}
	return combinedWork
}

// weightClass indexes Engine.cuts: exchanges that weigh vertices alike share
// a cut.
func weightClass(ex Exchange) int {
	k := int(ex.Walk)
	if ex.Combine != NoCombine {
		k += int(graph.Both) + 1
	}
	return k
}

// accum is a flat combining accumulator over the whole vertex range: a cell
// per vertex holding the combiner's identity until touched, and a bitmap of
// the touched cells that dense bulk sends leave unset.
type accum struct {
	comb  Combiner
	dense bool // this superstep's bulk sends stopped setting bits
	cell  []float64
	bits  []uint64
}

func newAccum(n int, comb Combiner) *accum {
	a := &accum{comb: comb, cell: make([]float64, n), bits: make([]uint64, (n+63)/64)}
	id := comb.identity()
	for i := range a.cell {
		a.cell[i] = id
	}
	return a
}

// fold merges one value into the target's cell and marks it touched.
func (a *accum) fold(t graph.VID, val float64) {
	if a.comb == Sum {
		a.cell[t] += val
	} else if val < a.cell[t] {
		a.cell[t] = val
	}
	a.bits[t>>6] |= 1 << (t & 63)
}

// scatter folds val into every target of an adjacency slice, the combiner
// chosen once outside the loop. A dense superstep updates cells only, unless
// the identity absorbs val. Its Min compares orderedKeys, so that the update
// compiles to a select rather than a branch the random targets mispredict; a
// zero, whose sign `<` ignores and the keys do not, takes the bitmap loop.
func (a *accum) scatter(adj []grin.Target, val float64) {
	cell, bm := a.cell, a.bits
	dense := a.dense && !a.comb.absorbs(val)
	switch {
	case dense && a.comb == Sum:
		for _, t := range adj {
			cell[t.Nbr] += val
		}
	case dense && val != 0:
		vb := math.Float64bits(val)
		vk := orderedKey(vb)
		for _, t := range adj {
			cb := math.Float64bits(cell[t.Nbr])
			if vk < orderedKey(cb) {
				cb = vb
			}
			cell[t.Nbr] = math.Float64frombits(cb)
		}
	case a.comb == Sum:
		for _, t := range adj {
			cell[t.Nbr] += val
			bm[t.Nbr>>6] |= 1 << (t.Nbr & 63)
		}
	default:
		for _, t := range adj {
			if val < cell[t.Nbr] {
				cell[t.Nbr] = val
			}
			bm[t.Nbr>>6] |= 1 << (t.Nbr & 63)
		}
	}
}

// orderedKey maps the bits of a float64 other than NaN to an int64 that
// orders as the floats do, except that −0 sorts below +0.
func orderedKey(b uint64) int64 { return int64(b ^ uint64(int64(b)>>63)>>1) }

// rangeMask selects, in bitmap word w of [w0, w1], the bits of [lo, hi).
func rangeMask(w, w0, w1 int, lo, hi graph.VID) uint64 {
	m := ^uint64(0)
	if w == w0 {
		m &= ^uint64(0) << (lo & 63)
	}
	if w == w1 {
		m &= ^uint64(0) >> (63 - (hi-1)&63)
	}
	return m
}

// NewEngine prepares an engine of opt.Fragments fragments over the graph;
// each Run cuts them by what its program declares. The topology trait is
// required; the array trait is exploited when present.
func NewEngine(g grin.Graph, opt Options) (*Engine, error) {
	if err := grin.Require(g, "grape"); err != nil {
		return nil, err
	}
	if opt.Fragments <= 0 {
		opt.Fragments = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if opt.Fragments > n && n > 0 {
		opt.Fragments = n
	}
	if n == 0 {
		return nil, fmt.Errorf("grape: empty graph")
	}
	e := &Engine{g: g, nf: opt.Fragments}
	e.adj, _ = grin.AsAdjArray(g)
	return e, nil
}

// Fragments returns the fragment count.
func (e *Engine) Fragments() int { return e.nf }

// cut returns the fragments of ex's weight class, cutting them on first use
// so that each holds an equal share of Σ vertexWork(Combine) + the degree
// along Walk: its vertices plus the edges a superstep walks from them. Under
// In a sink weighs vertexWork alone, since it is pulled in one superstep.
func (e *Engine) cut(ex Exchange) (*cut, error) {
	k := weightClass(ex)
	if c := e.cuts[k]; c != nil {
		return c, nil
	}
	g, work, walk := e.g, vertexWork(ex.Combine), ex.Walk
	part, err := partition.NewRange(g.NumVertices(), e.nf, func(v graph.VID) int {
		out := g.Degree(v, graph.Out)
		switch walk {
		case graph.Out:
			return work + out
		case graph.In:
			if out == 0 {
				return work
			}
			return work + g.Degree(v, graph.In)
		}
		return work + out + g.Degree(v, graph.In)
	})
	if err != nil {
		return nil, err
	}
	c := &cut{part: part, fr: make([]*Fragment, e.nf)}
	for f := range c.fr {
		lo, hi := part.Bounds(f)
		c.fr[f] = &Fragment{id: f, total: e.nf, lo: lo, hi: hi, g: g, part: part}
	}
	e.cuts[k] = c
	return c, nil
}

// accums returns combiner c's accumulator pair, made on first use; none for
// NoCombine.
func (e *Engine) accums(c Combiner) [2][]*accum {
	if c != NoCombine && e.acc[c][0] == nil {
		n := e.g.NumVertices()
		accs := make([]*accum, 2*e.nf)
		for i := range accs {
			accs[i] = newAccum(n, c)
		}
		e.acc[c] = [2][]*accum{accs[:e.nf], accs[e.nf:]}
	}
	return e.acc[c]
}

// Fragment is one partition of the graph: a contiguous range of inner
// vertices plus read access to the shared topology. It implements the GRIN
// partition trait.
type Fragment struct {
	id, total int
	lo, hi    graph.VID
	g         grin.Graph
	part      *partition.Range
}

var _ grin.Partitioned = (*Fragment)(nil)

// Fragment implements grin.Partitioned.
func (f *Fragment) Fragment() (int, int) { return f.id, f.total }

// IsInner implements grin.Partitioned.
func (f *Fragment) IsInner(v graph.VID) bool { return v >= f.lo && v < f.hi }

// Owner implements grin.Partitioned.
func (f *Fragment) Owner(v graph.VID) int { return f.part.Owner(v) }

// GlobalID implements grin.Partitioned (ranges use global IDs directly).
func (f *Fragment) GlobalID(v graph.VID) graph.VID { return v }

// Bounds returns the inner vertex range [lo, hi), which may be empty when a
// hub vertex outweighs a whole fragment's share.
func (f *Fragment) Bounds() (graph.VID, graph.VID) { return f.lo, f.hi }

// Graph exposes the topology for local evaluation.
func (f *Fragment) Graph() grin.Graph { return f.g }

// outbox is where a fragment's sends land until the exchange: folded into a
// flat accumulator when the engine has a combiner, otherwise buffered as
// Messages per destination fragment. acc and out are the current
// superstep's parity of the buffers the Context holds.
type outbox struct {
	e    *Engine
	part *partition.Range // the run's cut
	acc  *accum           // sender-side combining; nil under NoCombine
	out  [][]Message      // per destination fragment (NoCombine)
	sent int64            // sends since the run began (RunStats.Folded)
	// denseAt is the sent count at which this superstep's bulk sends turn
	// dense: n sends after it began. By then about 1 − 1/e of the cells a
	// random scatter covers are touched, and a scan of the gathered range
	// costs less than a bit per further send (BFS at two fragments on the
	// graphalytics graph, p50 of 30 interleaved runs: 2.44 ms never dense,
	// 2.05 / 1.87 / 1.90 / 1.76 ms from n/8 / n/4 / n/2 / n sends).
	denseAt int64

	// Iterator-trait fallback of SendToNeighbors: one closure per outbox,
	// reading the value in flight from val.
	yield func(graph.VID, graph.EID) bool
	val   float64

	// The padding makes an outbox 128 bytes, a size class whose objects
	// start on 128-byte boundaries, so that no two fragments' outboxes share
	// a cache line: a fragment writes sent on every send. At 80 bytes two
	// outboxes could share one, and BFS at two fragments on the graphalytics
	// graph read 2.24 ms against 2.05 ms padded (medians of 8 alternating
	// runs of 400).
	_ [48]byte
}

// Send directs a value at a vertex; it reaches the owner fragment's IncEval
// in the next superstep.
func (o *outbox) Send(v graph.VID, val float64) { o.SendAux(v, 0, val) }

// SendAux directs a value with an auxiliary integer payload at a vertex. The
// payload is delivered only under NoCombine (see Message.Aux).
func (o *outbox) SendAux(v graph.VID, aux uint32, val float64) {
	o.sent++
	if o.acc != nil {
		o.acc.fold(v, val)
		return
	}
	o.buffer(v, aux, val)
}

func (o *outbox) buffer(v graph.VID, aux uint32, val float64) {
	d := o.part.Owner(v)
	o.out[d] = append(o.out[d], Message{Target: v, Aux: aux, Value: val})
}

// SendToNeighbors sends val to every neighbor of v in the direction (Both:
// out-edges, then in-edges) — Send in bulk, for values that do not depend on
// the edge. With the array trait the adjacency slice is walked here and
// folded with the combiner inlined; other stores are iterated through
// Neighbors with a closure built once per outbox.
func (o *outbox) SendToNeighbors(v graph.VID, dir graph.Direction, val float64) {
	if adj := o.e.adj; adj != nil {
		if dir != graph.In {
			o.scatter(adj.AdjSlice(v, graph.Out), val)
		}
		if dir != graph.Out {
			o.scatter(adj.AdjSlice(v, graph.In), val)
		}
		return
	}
	if o.yield == nil {
		o.yield = func(n graph.VID, _ graph.EID) bool {
			o.Send(n, o.val)
			return true
		}
	}
	o.val = val
	o.e.g.Neighbors(v, dir, o.yield)
}

func (o *outbox) scatter(adj []grin.Target, val float64) {
	o.sent += int64(len(adj))
	if a := o.acc; a != nil {
		a.dense = a.dense || o.sent >= o.denseAt
		a.scatter(adj, val)
		return
	}
	for _, t := range adj {
		o.buffer(t.Nbr, 0, val)
	}
}

// Context carries one fragment's state through a run: its outbox, its inbox
// and the continue-vote.
type Context struct {
	*outbox
	frag  *Fragment
	rerun bool
	step  int
	// stepSent is sent when the current superstep began.
	stepSent int64
	// more[p] is this fragment's wish for another superstep after the last
	// superstep of parity p: written by it before that superstep's barrier,
	// read by every fragment after.
	more      [2]bool
	delivered int64 // messages handed to IncEval so far (RunStats.Delivered)
	// outs[p] holds the per-destination Message buffers of parity p
	// (NoCombine).
	outs [2][][]Message

	// inbox is the buffer IncEval's msgs alias, reused across supersteps;
	// words is gather's merged-bitmap scratch.
	inbox []Message
	words []uint64
}

// Rerun votes to run another superstep on this fragment even without
// incoming messages.
func (c *Context) Rerun() { c.rerun = true }

// Superstep reports the current superstep index (0 = PEval).
func (c *Context) Superstep() int { return c.step }

// RunStats is what one Run did, for callers that ask through CollectStats.
// Supersteps, Folded and Delivered are exact counts: at a fixed fragment
// count they repeat bit-for-bit from run to run and at any GOMAXPROCS. A
// program whose messages follow edges alone (BFS) also repeats them at any
// fragment count. One that exchanges through state of its own (PageRank's
// shares, WCC's local roots and pair lists) sends nothing: it folds and
// delivers 0. Steps holds wall-clock measurements.
type RunStats struct {
	// Supersteps is Run's return value: PEval plus every IncEval round.
	Supersteps int
	// Folded counts sends (Send, SendAux, and one per edge walked by
	// SendToNeighbors) before any combining.
	Folded int64
	// Delivered counts messages handed to IncEval, after combining.
	Delivered int64
	// Steps[f][s] is fragment f's split of superstep s.
	Steps [][]FragmentStep
}

// FragmentStep is one fragment's wall-clock split of one superstep.
type FragmentStep struct {
	// ComputeNs is the time inside the program's PEval or IncEval.
	ComputeNs int64
	// ExchangeNs is the engine's own message work: gathering and combining
	// this fragment's inbox.
	ExchangeNs int64
	// WaitNs is the time blocked at the superstep's one barrier — what the
	// fragment lost to the slowest fragment's compute.
	WaitNs int64
}

// CollectStats makes every later Run overwrite s with that run's statistics;
// nil stops collecting. An engine nobody asked pays one nil check per
// fragment per superstep.
func (e *Engine) CollectStats(s *RunStats) { e.stats = s }

// run is the state the fragment goroutines of one Run share.
type run struct {
	p    Program
	acc  [2][]*accum // the program's combiner's accumulators, by parity
	ctxs []*Context
	bar  barrier
	// steps[f] is fragment f's wall-clock record; nil when nobody collects.
	steps [][]FragmentStep
}

// Run executes the program to quiescence and returns the superstep count.
// The fragments are cut by the program's Exchange.
func (e *Engine) Run(p Program) (int, error) {
	ex := p.Exchange()
	if ex.Combine > Min {
		return 0, fmt.Errorf("grape: unknown combiner %d", ex.Combine)
	}
	if ex.Walk > graph.Both {
		return 0, fmt.Errorf("grape: unknown walk %v", ex.Walk)
	}
	cut, err := e.cut(ex)
	if err != nil {
		return 0, err
	}
	nf := e.nf
	r := &run{p: p, acc: e.accums(ex.Combine), ctxs: make([]*Context, nf)}
	r.bar.init(nf)
	for i := range r.ctxs {
		c := &Context{outbox: &outbox{e: e, part: cut.part}, frag: cut.fr[i]}
		if r.acc[0] == nil {
			outs := make([][]Message, 2*nf)
			c.outs = [2][][]Message{outs[:nf], outs[nf:]}
		}
		r.ctxs[i] = c
	}
	if e.stats != nil {
		r.steps = make([][]FragmentStep, nf)
	}

	steps := 0
	if nf == 1 {
		steps = r.fragment(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(nf)
		for i := 0; i < nf; i++ {
			go func(i int) {
				defer wg.Done()
				n := r.fragment(i)
				if i == 0 {
					steps = n
				}
			}(i)
		}
		wg.Wait()
	}
	if s := e.stats; s != nil {
		*s = RunStats{Supersteps: steps, Steps: r.steps}
		for _, c := range r.ctxs {
			s.Folded += c.sent
			s.Delivered += c.delivered
		}
	}
	return steps, nil
}

// fragment is the life of fragment i's goroutine: compute into this
// superstep's parity, vote, meet the others, decide — identically on every
// fragment, from the shared votes — whether another superstep follows, and
// collect the inbox. It returns the superstep count.
func (r *run) fragment(i int) int {
	c := r.ctxs[i]
	// lap charges the time since the previous lap to one field of the
	// current FragmentStep; with nobody collecting, fs stays on a throwaway
	// and no clock is read.
	var unread FragmentStep
	fs, timed := &unread, r.steps != nil
	var t0 time.Time
	lap := func(ns *int64) {
		if timed {
			now := time.Now()
			*ns += int64(now.Sub(t0))
			t0 = now
		}
	}
	for step := 0; ; step++ {
		if timed {
			r.steps[i] = append(r.steps[i], FragmentStep{})
			fs, t0 = &r.steps[i][step], time.Now()
		}
		par := r.begin(i, step)
		if step == 0 {
			r.p.PEval(c.frag, c)
		} else {
			r.p.IncEval(c.frag, c, c.inbox)
		}
		lap(&fs.ComputeNs)
		// Sent anything ⇔ some inbox of this superstep is non-empty.
		c.more[par] = c.sent > c.stepSent || c.rerun
		r.bar.wait()
		lap(&fs.WaitNs)

		more := false
		for _, o := range r.ctxs {
			more = more || o.more[par]
		}
		if !more {
			return step + 1
		}
		r.receive(i, par)
		c.delivered += int64(len(c.inbox))
		lap(&fs.ExchangeNs)
	}
}

// begin points fragment i's outbox at the buffers of step's parity and
// returns it. Whoever gathered from them did so before the previous
// superstep's barrier, which this fragment has passed, so they are its own
// again: it clears the touched bits and empties the message buffers.
func (r *run) begin(i, step int) int {
	c, par := r.ctxs[i], step&1
	c.step, c.rerun, c.stepSent = step, false, c.sent
	if accs := r.acc[par]; accs != nil {
		a := accs[i]
		clear(a.bits)
		a.dense = false
		c.acc = a
		c.denseAt = c.sent + int64(len(a.cell))
	}
	for d := range c.outs[par] {
		c.outs[par][d] = c.outs[par][d][:0]
	}
	c.out = c.outs[par]
	return par
}

// receive builds fragment d's inbox from the sources' parity par once every
// fragment has finished sending. With a combiner it gathers the sources'
// accumulators in place; without one it concatenates their Message buffers
// for d in source order.
func (r *run) receive(d, par int) {
	c := r.ctxs[d]
	if accs := r.acc[par]; accs != nil {
		c.gather(accs, c.frag.lo, c.frag.hi)
		return
	}
	c.inbox = c.inbox[:0]
	for _, src := range r.ctxs {
		c.inbox = append(c.inbox, src.outs[par][d]...)
	}
}

// gather replaces the inbox with one message per vertex of [lo, hi) that any
// source accumulator touched, in ascending vertex order: the cells combined
// in source order (an untouched cell holds the identity, which combines
// exactly), and reset. While every source is sparse the merged bitmap names
// the touched vertices; once one is dense every vertex of the range is
// scanned and taken if a bit is set or the combined value is not the
// identity. The sources' bits are left for their owners to clear, because two
// destinations' ranges can meet inside one bitmap word.
func (c *Context) gather(srcs []*accum, lo, hi graph.VID) {
	c.inbox = c.inbox[:0]
	if lo >= hi {
		return
	}
	dense := false
	for _, a := range srcs {
		dense = dense || a.dense
	}
	w0, w1 := int(lo>>6), int((hi-1)>>6)
	c.words = resized(c.words, w1-w0+1)[:0]
	count := 0
	for w := w0; w <= w1; w++ {
		var m uint64
		for _, a := range srcs {
			m |= a.bits[w]
		}
		m &= rangeMask(w, w0, w1, lo, hi)
		c.words = append(c.words, m)
		count += bits.OnesCount64(m)
	}
	if dense {
		count = int(hi - lo)
	}
	if count > cap(c.inbox) {
		c.inbox = make([]Message, 0, min(max(count, 2*cap(c.inbox)), int(hi-lo)))
	}
	if dense {
		c.gatherDense(srcs, lo, hi)
		return
	}
	comb := srcs[0].comb
	id := comb.identity()
	for i, m := range c.words {
		for ; m != 0; m &= m - 1 {
			t := graph.VID((w0+i)<<6 | bits.TrailingZeros64(m))
			val := id
			for _, a := range srcs {
				val = comb.apply(val, a.cell[t])
				a.cell[t] = id
			}
			if comb == Sum && val == 0 {
				val = 0 // a Sum of zeros arrives as +0, whatever their signs
			}
			c.inbox = append(c.inbox, Message{Target: t, Value: val})
		}
	}
}

// gatherDense is gather's dense scan, in plain array passes that reset the
// cells they read: the sources but the last combine into one inbox slot per
// vertex in source order, and the last one's pass also keeps, in place, the
// slots of the vertices that were touched.
func (c *Context) gatherDense(srcs []*accum, lo, hi graph.VID) {
	comb := srcs[0].comb
	id := comb.identity()
	in := c.inbox[:hi-lo]
	last := len(srcs) - 1
	for i, a := range srcs[:last] {
		cell := a.cell[lo:hi]
		in := in[:len(cell)]
		switch {
		case i == 0:
			for j, x := range cell {
				in[j].Value = x
				cell[j] = id
			}
		case comb == Sum:
			for j, x := range cell {
				in[j].Value += x
				cell[j] = id
			}
		default:
			for j, x := range cell {
				in[j].Value = min(in[j].Value, x)
				cell[j] = id
			}
		}
	}
	idBits, w0 := math.Float64bits(id), int(lo>>6)
	cell := srcs[last].cell[lo:hi]
	in = in[:len(cell)]
	k := 0
	for j, val := range cell {
		cell[j] = id
		if last > 0 {
			val = comb.apply(in[j].Value, val)
		}
		t := lo + graph.VID(j)
		if c.words[int(t>>6)-w0]>>(t&63)&1 == 0 && math.Float64bits(val) == idBits {
			continue
		}
		if comb == Sum && val == 0 {
			val = 0
		}
		in[k] = Message{Target: t, Value: val}
		k++
	}
	c.inbox = in[:k]
}

// barrier is a reusable rendezvous of the run's fragment goroutines. An
// arrival yields for up to barrierSpin before it parks: waking a parked
// goroutine — an idle P, a sleeping thread, on a VM a halted vCPU — costs
// about 250 µs on the 2-vCPU VM the analytics numbers come from, as long as
// a whole superstep of the graphalytics PageRank, so a fragment that parked
// ran behind the other instead of beside it.
type barrier struct {
	n       int32
	waiting atomic.Int32
	gen     atomic.Uint32 // bumped, under mu, by the last arrival
	mu      sync.Mutex
	cond    sync.Cond
}

const barrierSpin = 200 * time.Microsecond

func (b *barrier) init(n int) {
	b.n = int32(n)
	b.cond.L = &b.mu
}

// wait blocks until all n goroutines have called it, then releases them.
func (b *barrier) wait() {
	if b.n == 1 {
		return
	}
	gen := b.gen.Load()
	if b.waiting.Add(1) == b.n {
		b.waiting.Store(0) // before the release, for whoever re-arrives first
		b.mu.Lock()
		b.gen.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for start := time.Now(); time.Since(start) < barrierSpin; runtime.Gosched() {
		if b.gen.Load() != gen {
			return
		}
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
