// Package grape implements the high-performance analytical engine of §6: a
// fragment-centric distributed engine executing PIE-model programs (partial
// evaluation + incremental evaluation) over range-partitioned fragments.
//
// The paper's GRAPE runs fragments on cluster nodes over MPI; here each
// fragment runs on its own goroutine for the whole run, the fragments meet at
// two barriers per superstep, and "the network" is the shared address space.
// Fragments are the engine's only parallelism: PEval and IncEval are the
// sequential code the PIE model promises, and a program uses more cores by
// running more fragments. What §6 asks of the message path — combine at the
// sender, one contiguous hand-off per fragment pair per superstep — is kept,
// at the cost of the loop it replaces:
//
//   - Fragments are contiguous vertex ranges cut so each holds an equal share
//     of Σ(1 + outdeg + indeg) (libgrape-lite's rebalance rule), not an equal
//     vertex count: a generator that puts every out-edge in the first half of
//     the ID range would otherwise leave half the fragments idle.
//   - The combiner is a closed type (NoCombine, Sum, Min), so folding a
//     message is inlined arithmetic, never an indirect call.
//   - With a combiner every source fragment folds its sends into one flat
//     accumulator over all n vertices — a float64 cell per vertex holding the
//     combiner's identity until touched, plus a touched bitmap of n/8 bytes.
//     A fold is `cell[t] = comb(cell[t], val); bits[t>>6] |= 1<<(t&63)`: no
//     owner lookup, no per-destination buffer, no append.
//   - SendToNeighbors is the bulk form of Send: the engine resolves the array
//     trait once, walks AdjSlice itself and folds with the combiner hoisted
//     out of the loop — no closure per vertex, no call per edge. Per-edge
//     Send/SendAux remain for values that depend on the edge.
//   - The exchange copies nothing: after the first barrier destination d
//     reads range [lo_d, hi_d) of every source's bitmap, combines the touched
//     cells across sources in source order, resets them, and appends to an
//     inbox it owns and reuses. Inboxes therefore arrive in ascending target
//     order with at most one message per target — a guarantee of the combiner
//     path that Program.IncEval states.
//
// Without a combiner, sends are buffered per destination fragment as
// Messages (Aux is carried only here) and the destination concatenates them
// in source order. Two ablation arms keep materialised messages on purpose:
// WireCodec varint-encodes every cross-fragment hand-off, the serialization a
// real network pays, and PerMessageChannels ships every message through a
// channel individually, the un-aggregated exchange §6 warns about
// (`flexbench ablation-msg`).
package grape

import (
	"encoding/binary"
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
	// Sum delivers the sum of the values sent to a target (PageRank).
	Sum
	// Min delivers the smallest value sent to a target (BFS, SSSP, WCC).
	Min
)

// identity is the value an untouched accumulator cell holds.
func (c Combiner) identity() float64 {
	if c == Min {
		return math.Inf(1)
	}
	return 0
}

func (c Combiner) apply(a, b float64) float64 {
	if c == Sum {
		return a + b
	}
	return min(a, b)
}

// Options configures an Engine.
type Options struct {
	// Fragments is the fragment count, one goroutine each: the engine's only
	// parallelism. 0 selects GOMAXPROCS; a fixed count gives results that do
	// not depend on the machine (Sum combines in fragment order).
	Fragments int
	// Combine merges message values directed at the same target.
	Combine Combiner
	// PerMessageChannels disables sender-side aggregation and ships each
	// message through a channel individually — the negative ablation arm.
	PerMessageChannels bool
	// WireCodec varint-encodes each cross-fragment hand-off, simulating the
	// serialization a real network deployment pays. Off by default:
	// in-process fragments read each other's accumulators directly.
	WireCodec bool
}

// Engine executes PIE programs over a partitioned graph view.
type Engine struct {
	g    grin.Graph
	adj  grin.AdjArray // nil when the store lacks (or masks) the array trait
	opt  Options
	part *partition.Range
	fr   []*Fragment
	// acc[f] is fragment f's flat accumulator (nil under NoCombine). All
	// cells hold the identity and all bits are clear between runs.
	acc   []*accum
	stats *RunStats
}

// accum is a flat combining accumulator over the whole vertex range: a cell
// per vertex holding the combiner's identity until touched, and a bitmap of
// the touched cells.
type accum struct {
	comb Combiner
	cell []float64
	bits []uint64
}

func newAccum(n int, comb Combiner) *accum {
	a := &accum{comb: comb, cell: make([]float64, n), bits: make([]uint64, (n+63)/64)}
	if id := comb.identity(); id != 0 {
		for i := range a.cell {
			a.cell[i] = id
		}
	}
	return a
}

// fold merges one value into the target's cell.
func (a *accum) fold(t graph.VID, val float64) {
	if a.comb == Sum {
		a.cell[t] += val
	} else if val < a.cell[t] {
		a.cell[t] = val
	}
	a.bits[t>>6] |= 1 << (t & 63)
}

// scatter folds val into every target of an adjacency slice, the combiner
// chosen once outside the loop.
func (a *accum) scatter(adj []grin.Target, val float64) {
	cell, bm := a.cell, a.bits
	if a.comb == Sum {
		for _, t := range adj {
			cell[t.Nbr] += val
			bm[t.Nbr>>6] |= 1 << (t.Nbr & 63)
		}
		return
	}
	for _, t := range adj {
		if val < cell[t.Nbr] {
			cell[t.Nbr] = val
		}
		bm[t.Nbr>>6] |= 1 << (t.Nbr & 63)
	}
}

// drain moves every touched cell of [lo, hi) into sink in ascending target
// order, resetting the cells and clearing the bits it visits.
func (a *accum) drain(lo, hi graph.VID, sink func(t graph.VID, val float64)) {
	if lo >= hi {
		return
	}
	id := a.comb.identity()
	w0, w1 := int(lo>>6), int((hi-1)>>6)
	for w := w0; w <= w1; w++ {
		m := a.bits[w] & rangeMask(w, w0, w1, lo, hi)
		a.bits[w] &^= m
		for ; m != 0; m &= m - 1 {
			t := graph.VID(w<<6 | bits.TrailingZeros64(m))
			sink(t, a.cell[t])
			a.cell[t] = id
		}
	}
}

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

// NewEngine partitions the graph and prepares fragments. The topology trait
// is required; the array trait is exploited when present.
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
	if opt.Combine > Min {
		return nil, fmt.Errorf("grape: unknown combiner %d", opt.Combine)
	}
	// A fragment's work is its vertices plus the edges it scatters along and
	// the messages it receives, so that is what the cuts balance.
	part, err := partition.NewRange(n, opt.Fragments, func(v graph.VID) int {
		return 1 + g.Degree(v, graph.Out) + g.Degree(v, graph.In)
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{g: g, opt: opt, part: part}
	e.adj, _ = grin.AsAdjArray(g)
	for f := 0; f < opt.Fragments; f++ {
		lo, hi := part.Bounds(f)
		e.fr = append(e.fr, &Fragment{id: f, total: opt.Fragments, lo: lo, hi: hi, g: g, part: part})
	}
	if opt.Combine != NoCombine {
		e.acc = make([]*accum, opt.Fragments)
		for f := range e.acc {
			e.acc[f] = newAccum(n, opt.Combine)
		}
	}
	return e, nil
}

// Fragments returns the fragment count.
func (e *Engine) Fragments() int { return len(e.fr) }

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
// flat accumulator when the engine combines at the sender, otherwise
// buffered as Messages per destination fragment.
type outbox struct {
	e    *Engine
	acc  *accum      // sender-side combining; nil on the materialised path
	out  [][]Message // per destination fragment (materialised path)
	sent int64       // sends since the run began (RunStats.Folded)

	// Iterator-trait fallback of SendToNeighbors: one closure per outbox,
	// reading the value in flight from val.
	yield func(graph.VID, graph.EID) bool
	val   float64
}

func newOutbox(e *Engine, acc *accum) *outbox {
	o := &outbox{e: e, acc: acc}
	if acc == nil {
		o.out = make([][]Message, len(e.fr))
	}
	return o
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
	d := o.e.part.Owner(v)
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
	if o.acc != nil {
		o.acc.scatter(adj, val)
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
	// more is this fragment's wish for another superstep: written by it
	// between the two barriers, read by every fragment after the second.
	more      bool
	delivered int64 // messages handed to IncEval so far (RunStats.Delivered)

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
// Supersteps, Folded and Delivered are exact counts that depend only on the
// program and the graph — they repeat bit-for-bit at any fragment count;
// Steps holds wall-clock measurements.
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
	// ExchangeNs is the engine's own message work: encoding, gathering and
	// combining this fragment's inbox.
	ExchangeNs int64
	// WaitNs is the time blocked at the superstep's two barriers — what the
	// fragment lost to slower fragments.
	WaitNs int64
}

// CollectStats makes every later Run overwrite s with that run's statistics;
// nil stops collecting. An engine nobody asked pays one nil check per
// fragment per superstep.
func (e *Engine) CollectStats(s *RunStats) { e.stats = s }

// run is the state the fragment goroutines of one Run share.
type run struct {
	e    *Engine
	p    Program
	ctxs []*Context
	bar  barrier
	// Hand-off buffers of the ablation arms: enc[src][dst] under WireCodec,
	// one channel per destination under PerMessageChannels.
	enc   [][][]byte
	chans []chan Message
	// steps[f] is fragment f's wall-clock record; nil when nobody collects.
	steps [][]FragmentStep
}

// Run executes the program to quiescence and returns the superstep count.
func (e *Engine) Run(p Program) (int, error) {
	nf := len(e.fr)
	r := &run{e: e, p: p, ctxs: make([]*Context, nf)}
	r.bar.init(nf)
	senderSide := e.acc != nil && !e.opt.PerMessageChannels
	for i := range r.ctxs {
		var acc *accum
		if senderSide {
			acc = e.acc[i]
		}
		r.ctxs[i] = &Context{outbox: newOutbox(e, acc), frag: e.fr[i]}
	}
	if e.opt.WireCodec && !e.opt.PerMessageChannels {
		r.enc = make([][][]byte, nf)
		for s := range r.enc {
			r.enc[s] = make([][]byte, nf)
		}
	}
	if e.opt.PerMessageChannels {
		r.chans = make([]chan Message, nf)
		for d := range r.chans {
			// Deep enough that a sender rarely parks on a busy receiver;
			// the cost under test is the per-message channel operation.
			r.chans[d] = make(chan Message, 1024)
		}
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

// fragment is the life of fragment i's goroutine: compute, meet the others,
// collect the inbox, meet again, and decide — identically on every fragment,
// from the shared votes — whether another superstep follows. It returns the
// superstep count.
func (r *run) fragment(i int) int {
	e, c := r.e, r.ctxs[i]
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
		// Whoever gathered from this fragment last superstep is past the
		// second barrier, so its touched bits and buffers are ours again.
		if e.acc != nil {
			clear(e.acc[i].bits)
		}
		for d := range c.out {
			c.out[d] = c.out[d][:0]
		}
		c.step, c.rerun = step, false
		if step == 0 {
			r.p.PEval(c.frag, c)
		} else {
			r.p.IncEval(c.frag, c, c.inbox)
		}
		lap(&fs.ComputeNs)
		if r.enc != nil {
			r.encode(i)
			lap(&fs.ExchangeNs)
		}
		r.bar.wait()
		lap(&fs.WaitNs)
		r.receive(i)
		c.delivered += int64(len(c.inbox))
		c.more = len(c.inbox) > 0 || c.rerun
		lap(&fs.ExchangeNs)
		r.bar.wait()
		lap(&fs.WaitNs)

		more := false
		for _, o := range r.ctxs {
			more = more || o.more
		}
		if !more {
			return step + 1
		}
	}
}

// receive builds fragment d's inbox once every fragment has finished
// sending. The default path with a combiner reads the sources' accumulators
// in place. The other paths take delivery of materialised messages in source
// order; with a combiner those are then folded into d's own accumulator —
// which only d touches on these paths — and gathered from there.
func (r *run) receive(d int) {
	e, c := r.e, r.ctxs[d]
	c.inbox = c.inbox[:0]
	switch {
	case r.chans != nil:
		r.shipPerMessage(d)
	case r.enc != nil || e.acc == nil:
		for s, src := range r.ctxs {
			if s != d && r.enc != nil {
				c.inbox = decodeMessages(r.enc[s][d], c.inbox)
			} else if src.acc == nil {
				c.inbox = append(c.inbox, src.out[d]...)
			}
		}
	default:
		c.gather(e.acc)
		return
	}
	if e.acc != nil {
		own := e.acc[d]
		for _, m := range c.inbox {
			own.fold(m.Target, m.Value)
		}
		c.inbox = c.inbox[:0]
		c.gather(e.acc[d : d+1])
	}
}

// gather appends to the inbox one message per vertex of this fragment's
// range that any source accumulator touched, in ascending vertex order:
// the touched cells combined in source order, and reset. The sources' bits
// are left for their owners to clear, because two destinations' ranges can
// meet inside one bitmap word.
func (c *Context) gather(srcs []*accum) {
	lo, hi := c.frag.lo, c.frag.hi
	if lo >= hi {
		return
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
	if count > cap(c.inbox) {
		c.inbox = make([]Message, 0, min(max(count, 2*cap(c.inbox)), int(hi-lo)))
	}
	comb := srcs[0].comb
	id := comb.identity()
	for i, m := range c.words {
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			t := graph.VID((w0+i)<<6 | b)
			val := id
			for _, a := range srcs {
				if a.bits[w0+i]>>b&1 != 0 {
					val = comb.apply(val, a.cell[t])
					a.cell[t] = id
				}
			}
			c.inbox = append(c.inbox, Message{Target: t, Value: val})
		}
	}
}

// encode is the WireCodec send side, run by source s before the first
// barrier: everything pending for another fragment is serialised into one
// compact buffer per destination. Messages to s itself skip the wire, as
// they would on a real cluster.
func (r *run) encode(s int) {
	c := r.ctxs[s]
	for d, f := range r.e.fr {
		if d == s {
			continue
		}
		buf := r.enc[s][d][:0]
		if c.acc != nil {
			prev := uint64(0)
			c.acc.drain(f.lo, f.hi, func(t graph.VID, val float64) {
				buf, prev = appendMessage(buf, prev, Message{Target: t, Value: val})
			})
		} else {
			buf = encodeMessages(buf, c.out[d])
		}
		r.enc[s][d] = buf
	}
}

// shipPerMessage is the ablation arm: every message is an individual channel
// send, the "fragmented, randomly distributed small messages" §6 warns
// about. Fragment i pushes its messages from a helper goroutine while it
// drains its own channel into its inbox, until every source has signed off
// with a NilVID sentinel; the second barrier then guarantees every helper
// has finished.
func (r *run) shipPerMessage(i int) {
	c := r.ctxs[i]
	out := c.out
	go func() {
		for d, ch := range r.chans {
			for _, m := range out[d] {
				ch <- m
			}
			ch <- Message{Target: graph.NilVID}
		}
	}()
	for open := len(r.chans); open > 0; {
		if m := <-r.chans[i]; m.Target == graph.NilVID {
			open--
		} else {
			c.inbox = append(c.inbox, m)
		}
	}
}

// barrier is a reusable rendezvous of the run's fragment goroutines. An
// arrival yields for up to barrierSpin before it parks: a superstep of the
// analytics library lasts a few hundred microseconds, and waking a parked
// goroutine — an idle P, a sleeping thread, on a VM a halted vCPU — was
// measured to cost about as much, which ran two fragments back to back
// instead of side by side (PageRank on two fragments 20.5 → 13.0 ms when the
// waits stopped parking).
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

// appendMessage packs one message after a message whose target was prev:
// zigzag uvarint target delta (buffers are mostly ascending) + uvarint aux +
// raw float64 payload.
func appendMessage(buf []byte, prev uint64, m Message) ([]byte, uint64) {
	t := uint64(m.Target)
	var d uint64
	if t >= prev {
		d = (t - prev) << 1
	} else {
		d = ((prev - t) << 1) | 1
	}
	buf = binary.AppendUvarint(buf, d)
	buf = binary.AppendUvarint(buf, uint64(m.Aux))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Value)), t
}

// encodeMessages appends the packed messages to buf.
func encodeMessages(buf []byte, ms []Message) []byte {
	prev := uint64(0)
	for _, m := range ms {
		buf, prev = appendMessage(buf, prev, m)
	}
	return buf
}

// decodeMessages unpacks a buffer of appendMessage records, appending to dst.
func decodeMessages(buf []byte, dst []Message) []Message {
	prev := uint64(0)
	for len(buf) > 0 {
		d, sz := binary.Uvarint(buf)
		buf = buf[sz:]
		if d&1 == 1 {
			prev -= d >> 1
		} else {
			prev += d >> 1
		}
		aux, sz := binary.Uvarint(buf)
		buf = buf[sz:]
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
		dst = append(dst, Message{Target: graph.VID(prev), Aux: uint32(aux), Value: v})
	}
	return dst
}
