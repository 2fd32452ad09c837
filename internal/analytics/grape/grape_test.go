package grape

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
)

// TestAccumFoldDrain: folds and bulk sends combine per target, sparse or
// dense; a gather yields ascending targets of the asked range only, and
// leaves every cell it visits at the identity and the bits to their owner.
func TestAccumFoldDrain(t *testing.T) {
	for _, tc := range []struct {
		comb Combiner
		want map[graph.VID]float64
	}{
		{Sum, map[graph.VID]float64{1: 5, 63: 7, 64: 5, 130: 1}},
		{Min, map[graph.VID]float64{1: 2, 63: 7, 64: 5, 130: 1}},
	} {
		for _, dense := range []bool{false, true} {
			a := newAccum(200, tc.comb)
			a.fold(1, 2)
			a.fold(64, 5)
			a.dense = dense // bulk sends from here on set no bits
			a.scatter([]grin.Target{{Nbr: 1}}, 3)
			a.scatter([]grin.Target{{Nbr: 63}}, 7)
			a.scatter([]grin.Target{{Nbr: 130}, {Nbr: 199}}, 1)
			a.fold(199, 8) // outside the gathered range
			c := &Context{}
			c.gather([]*accum{a}, 1, 131)
			var order []graph.VID
			for _, m := range c.inbox {
				order = append(order, m.Target)
				if m.Value != tc.want[m.Target] {
					t.Fatalf("comb %d dense=%v target %d: %v want %v", tc.comb, dense, m.Target, m.Value, tc.want[m.Target])
				}
			}
			if !reflect.DeepEqual(order, []graph.VID{1, 63, 64, 130}) {
				t.Fatalf("comb %d dense=%v: gathered %v", tc.comb, dense, order)
			}
			wantBits := a.bits[0]
			c.gather([]*accum{a}, 131, 200)
			if want := tc.comb.apply(1, 8); len(c.inbox) != 1 || c.inbox[0] != (Message{Target: 199, Value: want}) {
				t.Fatalf("comb %d dense=%v: leftover %v, want 199=%v", tc.comb, dense, c.inbox, want)
			}
			for v, x := range a.cell {
				if math.Float64bits(x) != math.Float64bits(tc.comb.identity()) {
					t.Fatalf("comb %d dense=%v: cell %d not reset: %v", tc.comb, dense, v, x)
				}
			}
			if a.bits[0] != wantBits || a.bits[0] == 0 {
				t.Fatalf("comb %d dense=%v: gather changed the owner's bits", tc.comb, dense)
			}
		}
	}
}

// TestOrderedKey: the dense Min scatter's integer keys order floats as `<`
// does, apart from −0 sorting below +0.
func TestOrderedKey(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -3.5, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2.25, math.MaxFloat64, math.Inf(1)}
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := orderedKey(math.Float64bits(a)), orderedKey(math.Float64bits(b))
			if a == 0 && b == 0 {
				if (ka < kb) != (math.Signbit(a) && !math.Signbit(b)) {
					t.Fatalf("keys of %v and %v misorder the zeros", a, b)
				}
				continue
			}
			if (ka < kb) != (a < b) {
				t.Fatalf("key(%v) < key(%v) is %v, want %v", a, b, ka < kb, a < b)
			}
		}
	}
}

// pie is a PIE program without its exchange: the tests run one program
// under whichever exchange they pick.
type pie interface {
	PEval(*Fragment, *Context)
	IncEval(*Fragment, *Context, []Message)
}

// declared is a program that declares ex.
type declared struct {
	pie
	ex Exchange
}

func (d declared) Exchange() Exchange { return d.ex }

// under runs p under comb with the walk the library's programs declare for
// it: out-edges with a combiner, both directions without.
func under(comb Combiner, p pie) Program {
	walk := graph.Out
	if comb == NoCombine {
		walk = graph.Both
	}
	return declared{p, Exchange{Combine: comb, Walk: walk}}
}

// TestUnknownCombinerRejected: a Run whose program declares a combiner or a
// walk outside the closed sets is an error.
func TestUnknownCombinerRejected(t *testing.T) {
	g, _ := dataset.Datagen("t", 8, 1, 1).ToCSR(false)
	eng, err := NewEngine(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []Exchange{{Combine: Min + 1}, {Walk: graph.Both + 1}} {
		p := &echoProgram{n: 8, received: make([]float64, 8)}
		if _, err := eng.Run(declared{p, ex}); err == nil {
			t.Fatalf("exchange %+v outside the closed sets accepted", ex)
		}
	}
}

// echoProgram sends one message per inner vertex to (v+1) mod n in PEval and
// records received values in IncEval.
type echoProgram struct {
	n        int
	received []float64
}

func (p *echoProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		ctx.Send(graph.VID((int(v)+1)%p.n), float64(v))
	}
}

func (p *echoProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	for _, m := range msgs {
		p.received[m.Target] = m.Value
	}
}

func TestEngineRoutesToOwnerFragments(t *testing.T) {
	for _, frags := range []int{1, 2, 3, 8} {
		g, err := dataset.Datagen("t", 64, 2, 1).ToCSR(false)
		if err != nil {
			t.Fatal(err)
		}
		p := &echoProgram{n: 64, received: make([]float64, 64)}
		eng, err := NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		steps, err := eng.Run(under(NoCombine, p))
		if err != nil {
			t.Fatal(err)
		}
		if steps < 2 {
			t.Fatalf("frags=%d: expected at least 2 supersteps, got %d", frags, steps)
		}
		for v := 0; v < 64; v++ {
			want := float64((v + 63) % 64)
			if p.received[v] != want {
				t.Fatalf("frags=%d: vertex %d received %v want %v", frags, v, p.received[v], want)
			}
		}
	}
}

func TestEngineEmptyGraphRejected(t *testing.T) {
	g, _ := dataset.Datagen("t", 1, 1, 1).ToCSR(false)
	if _, err := NewEngine(g, Options{}); err != nil {
		t.Fatalf("single vertex should work: %v", err)
	}
}

// rerunProgram exercises the Rerun vote: it runs a fixed number of extra
// supersteps without sending messages.
type rerunProgram struct {
	target int
	runs   []int // per fragment superstep counter
}

func (p *rerunProgram) PEval(f *Fragment, ctx *Context) {
	id, _ := f.Fragment()
	p.runs[id]++
	if p.runs[id] < p.target {
		ctx.Rerun()
	}
}

func (p *rerunProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	id, _ := f.Fragment()
	p.runs[id]++
	if p.runs[id] < p.target {
		ctx.Rerun()
	}
}

func TestRerunVote(t *testing.T) {
	g, _ := dataset.Datagen("t", 32, 2, 2).ToCSR(false)
	eng, err := NewEngine(g, Options{Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := &rerunProgram{target: 5, runs: make([]int, 4)}
	steps, err := eng.Run(under(NoCombine, p))
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Fatalf("steps = %d want 5", steps)
	}
	for i, r := range p.runs {
		if r != 5 {
			t.Fatalf("fragment %d ran %d times", i, r)
		}
	}
}

// fanInProgram makes every exchange combine: every vertex sends its ID to
// v/3 and to a far vertex in PEval, targets forward what they got once, and
// IncEval records (per target) how many messages arrived and their sum and,
// when got is set, got[s][v]: the values v received in superstep s.
type fanInProgram struct {
	n          int
	count, sum []float64
	got        [][][]float64
}

func (p *fanInProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		ctx.Send(v/3, float64(v))
		ctx.Send(graph.VID((int(v)*7+p.n/2)%p.n), float64(v))
	}
}

func (p *fanInProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	for _, m := range msgs {
		p.count[m.Target]++
		p.sum[m.Target] += m.Value
		if p.got != nil {
			p.got[ctx.Superstep()][m.Target] = append(p.got[ctx.Superstep()][m.Target], m.Value)
		}
		if ctx.Superstep() == 1 {
			ctx.Send(graph.VID(p.n-1)-m.Target, m.Value)
		}
	}
}

// TestExchangeArmsAgree: the combined exchange delivers, per superstep and
// target, exactly the uncombined exchange's messages folded with the
// combiner, at fragment counts whose ranges meet inside a bitmap word. The
// values are small integers, so every Sum is exact in any order.
func TestExchangeArmsAgree(t *testing.T) {
	const n = 300
	g, err := dataset.Datagen("t", n, 4, 4).ToCSR(false)
	if err != nil {
		t.Fatal(err)
	}
	run := func(frags int, comb Combiner) *fanInProgram {
		p := &fanInProgram{n: n, count: make([]float64, n), sum: make([]float64, n), got: make([][][]float64, 3)}
		for s := range p.got {
			p.got[s] = make([][]float64, n)
		}
		eng, err := NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		if steps, err := eng.Run(under(comb, p)); err != nil || steps != len(p.got) {
			t.Fatalf("frags=%d comb=%d: %d supersteps, err %v", frags, comb, steps, err)
		}
		return p
	}
	var one *fanInProgram
	for _, frags := range []int{1, 2, 5} {
		all := run(frags, NoCombine)
		if frags == 1 {
			// Ground truth once: 2n sends in PEval, each forwarded once.
			total := 0.0
			for _, c := range all.count {
				total += c
			}
			if total != 4*n {
				t.Fatalf("uncombined exchange delivered %v messages, want %d", total, 4*n)
			}
			one = all
		} else if !reflect.DeepEqual(all.count, one.count) || !reflect.DeepEqual(all.sum, one.sum) {
			t.Fatalf("frags=%d: uncombined delivery differs from one fragment's", frags)
		}
		for _, comb := range []Combiner{Sum, Min} {
			got := run(frags, comb)
			for s := range got.got {
				for v, vals := range all.got[s] {
					var want []float64
					if len(vals) > 0 {
						folded := vals[0]
						for _, x := range vals[1:] {
							folded = comb.apply(folded, x)
						}
						want = []float64{folded}
					}
					if !reflect.DeepEqual(got.got[s][v], want) {
						t.Fatalf("comb=%d frags=%d superstep %d target %d: got %v, want %v folded from %v",
							comb, frags, s, v, got.got[s][v], want, vals)
					}
				}
			}
		}
	}

	// Values the combiner's identity absorbs — −0 under Sum, +Inf and NaN
	// under Min — sent beside ordinary ones through Send and SendToNeighbors,
	// enough of them for every source to turn dense: each delivered
	// message's bits and the exact counters are those of a
	// sequential replay, and a target sent nothing but −0 receives +0.
	dg, err := dataset.Datagen("t", n, 8, 4).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, comb := range []Combiner{Sum, Min} {
		want, folded, delivered, zeroOnly := replayAbsorbed(dg, comb)
		if comb == Sum && zeroOnly == 0 {
			t.Fatal("no target of superstep 1 was sent only −0")
		}
		for _, frags := range []int{1, 2, 5} {
			eng, err := NewEngine(dg, Options{Fragments: frags})
			if err != nil {
				t.Fatal(err)
			}
			var st RunStats
			eng.CollectStats(&st)
			p := newAbsorbedProgram(n, comb)
			steps, err := eng.Run(under(comb, p))
			if err != nil {
				t.Fatal(err)
			}
			if steps != absorbedSteps || st.Folded != folded || st.Delivered != delivered {
				t.Fatalf("comb=%d frags=%d: %d/%d/%d, want %d/%d/%d", comb, frags,
					steps, st.Folded, st.Delivered, absorbedSteps, folded, delivered)
			}
			if !reflect.DeepEqual(p.got, want) {
				t.Fatalf("comb=%d frags=%d: delivered bits differ from the replay", comb, frags)
			}
		}
	}
}

// absorbedSteps is absorbedProgram's superstep count: PEval, the forwarding
// round, and the round that receives the forwards.
const absorbedSteps = 3

// absorbedProgram mixes values the combiner's identity absorbs with ordinary
// ones. In PEval every vertex v sends absorbedValue(v) to its out-neighbours
// and to v/3; in superstep 1 every target forwards what it received the same
// way. got[s][v] holds the bits of the value v received in superstep s,
// unsent, or twice.
type absorbedProgram struct {
	comb Combiner
	got  [absorbedSteps][]uint64
}

// unsent and twice are NaN payloads no combiner delivers.
const (
	unsent = 0x7ff0_dead_0000_0001
	twice  = 0x7ff0_dead_0000_0002
)

func newAbsorbedProgram(n int, comb Combiner) *absorbedProgram {
	p := &absorbedProgram{comb: comb}
	for s := range p.got {
		p.got[s] = make([]uint64, n)
		for v := range p.got[s] {
			p.got[s][v] = unsent
		}
	}
	return p
}

// absorbedValue is −0 or 1 under Sum, and +Inf, NaN or v under Min.
func absorbedValue(comb Combiner, v graph.VID) float64 {
	if comb == Sum {
		if v%4 == 3 {
			return 1
		}
		return math.Copysign(0, -1)
	}
	switch v % 4 {
	case 0:
		return math.Inf(1)
	case 2:
		return float64(v)
	}
	return math.NaN()
}

// sender is what absorbedProgram sends through: a Context, or the replay.
type sender interface {
	Send(graph.VID, float64)
	SendToNeighbors(graph.VID, graph.Direction, float64)
}

func emitAbsorbed(s sender, v graph.VID, val float64) {
	s.SendToNeighbors(v, graph.Out, val)
	s.Send(v/3, val)
}

func (p *absorbedProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		emitAbsorbed(ctx, v, absorbedValue(p.comb, v))
	}
}

func (p *absorbedProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	s := ctx.Superstep()
	for _, m := range msgs {
		if p.got[s][m.Target] != unsent {
			p.got[s][m.Target] = twice
			continue
		}
		p.got[s][m.Target] = math.Float64bits(m.Value)
		if s == 1 {
			emitAbsorbed(ctx, m.Target, m.Value)
		}
	}
}

// replay is a sequential sender: one accumulator over all targets, folded in
// send order from +0 under Sum and by `<` from +Inf under Min.
type replay struct {
	g     grin.Graph
	comb  Combiner
	sent  int64
	val   map[graph.VID]float64
	other map[graph.VID]bool // sent some value other than −0
}

func newReplay(g grin.Graph, comb Combiner) *replay {
	return &replay{g: g, comb: comb, val: map[graph.VID]float64{}, other: map[graph.VID]bool{}}
}

func (r *replay) Send(v graph.VID, x float64) {
	r.sent++
	cur, ok := r.val[v]
	if !ok && r.comb == Min {
		cur = math.Inf(1)
	}
	if r.comb == Sum {
		cur += x
	} else if x < cur {
		cur = x
	}
	r.val[v] = cur
	if math.Float64bits(x) != math.Float64bits(math.Copysign(0, -1)) {
		r.other[v] = true
	}
}

func (r *replay) SendToNeighbors(v graph.VID, dir graph.Direction, x float64) {
	r.g.Neighbors(v, dir, func(u graph.VID, _ graph.EID) bool {
		r.Send(u, x)
		return true
	})
}

// replayAbsorbed runs absorbedProgram sequentially. It returns what each
// superstep delivers, the exact counters, and how many targets of superstep
// 1 were sent nothing but −0.
func replayAbsorbed(g grin.Graph, comb Combiner) (got [absorbedSteps][]uint64, folded, delivered int64, zeroOnly int) {
	n := g.NumVertices()
	p := newAbsorbedProgram(n, comb)
	r := newReplay(g, comb)
	for v := 0; v < n; v++ {
		emitAbsorbed(r, graph.VID(v), absorbedValue(comb, graph.VID(v)))
	}
	for s := 1; s < absorbedSteps; s++ {
		folded += r.sent
		delivered += int64(len(r.val))
		next := newReplay(g, comb)
		for v := 0; v < n; v++ {
			val, ok := r.val[graph.VID(v)]
			if !ok {
				continue
			}
			p.got[s][v] = math.Float64bits(val)
			if s == 1 {
				if !r.other[graph.VID(v)] {
					zeroOnly++
				}
				emitAbsorbed(next, graph.VID(v), val)
			}
		}
		r = next
	}
	return p.got, folded, delivered, zeroOnly
}

// TestEngineReusableAcrossRuns: a second Run on the same engine starts from
// clean accumulators.
func TestEngineReusableAcrossRuns(t *testing.T) {
	const n = 300
	g, err := dataset.Datagen("t", n, 4, 4).ToCSR(false)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, Options{Fragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	var first *fanInProgram
	for i := 0; i < 3; i++ {
		p := &fanInProgram{n: n, count: make([]float64, n), sum: make([]float64, n)}
		if steps, err := eng.Run(under(Sum, p)); err != nil || steps != 3 {
			t.Fatalf("run %d: steps=%d err=%v", i, steps, err)
		}
		if first == nil {
			first = p
		} else if !reflect.DeepEqual(p.sum, first.sum) {
			t.Fatalf("run %d delivered differently from run 0", i)
		}
	}
}

// TestCombinedInboxAscending: with a combiner the inbox holds one message
// per target in ascending target order.
func TestCombinedInboxAscending(t *testing.T) {
	g, err := dataset.Datagen("t", 500, 6, 11).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, frags := range []int{1, 3} {
		p := &orderProgram{t: t}
		eng, err := NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(under(Min, p)); err != nil {
			t.Fatal(err)
		}
	}
}

type orderProgram struct{ t *testing.T }

func (p *orderProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := hi; v > lo; v-- { // descending sends
		ctx.SendToNeighbors(v-1, graph.Both, float64(v))
	}
}

func (p *orderProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	if len(msgs) == 0 {
		p.t.Error("no messages delivered")
	}
	for i, m := range msgs {
		if !f.IsInner(m.Target) || (i > 0 && msgs[i-1].Target >= m.Target) {
			p.t.Errorf("inbox not strictly ascending inner targets at %d: %v", i, m)
			return
		}
	}
}

// TestRunStatsExactCountersRepeat: the exact counters depend on the program
// and the graph only — not on the fragment count or the run.
func TestRunStatsExactCountersRepeat(t *testing.T) {
	g, err := dataset.Datagen("t", 400, 5, 31).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	var want RunStats
	for _, frags := range []int{1, 2, 3} {
		for rep := 0; rep < 2; rep++ {
			var got RunStats
			eng, err := NewEngine(g, Options{Fragments: frags})
			if err != nil {
				t.Fatal(err)
			}
			eng.CollectStats(&got)
			steps, err := eng.Run(under(Sum, &scatterProgram{g: g, sum: make([]float64, 400)}))
			if err != nil {
				t.Fatal(err)
			}
			if got.Supersteps != steps || len(got.Steps) != frags || len(got.Steps[frags-1]) != steps {
				t.Fatalf("frags=%d: stats shape %d×%d for %d supersteps", frags, len(got.Steps), len(got.Steps[frags-1]), steps)
			}
			if want.Supersteps == 0 {
				want = got
				// scatterProgram sends once per out-edge and every vertex
				// with an in-edge receives one combined message.
				withIn := int64(0)
				for v := 0; v < 400; v++ {
					if g.Degree(graph.VID(v), graph.In) > 0 {
						withIn++
					}
				}
				if got.Folded != int64(g.NumEdges()) || got.Delivered != withIn {
					t.Fatalf("folded %d delivered %d, want %d and %d", got.Folded, got.Delivered, g.NumEdges(), withIn)
				}
			}
			if got.Supersteps != want.Supersteps || got.Folded != want.Folded || got.Delivered != want.Delivered {
				t.Fatalf("frags=%d rep=%d: exact counters %d/%d/%d, want %d/%d/%d", frags, rep,
					got.Supersteps, got.Folded, got.Delivered, want.Supersteps, want.Folded, want.Delivered)
			}
			for _, perStep := range got.Steps {
				for _, fs := range perStep {
					if fs.ComputeNs < 0 || fs.ExchangeNs < 0 || fs.WaitNs < 0 {
						t.Fatalf("negative lap: %+v", fs)
					}
				}
			}
		}
	}
}

// fragmentsOf returns the fragments eng cuts for ex, asserting the partition
// trait's invariants: contiguous bounds that cover every vertex once,
// agreeing with IsInner and Owner.
func fragmentsOf(t *testing.T, eng *Engine, ex Exchange) []*Fragment {
	t.Helper()
	c, err := eng.cut(ex)
	if err != nil {
		t.Fatal(err)
	}
	prev := graph.VID(0)
	for id, f := range c.fr {
		if gotID, total := f.Fragment(); gotID != id || total != eng.Fragments() {
			t.Fatalf("fragment %d reports (%d, %d)", id, gotID, total)
		}
		lo, hi := f.Bounds()
		if lo != prev || hi < lo {
			t.Fatalf("fragment %d = [%d, %d) does not continue from %d", id, lo, hi, prev)
		}
		for v := lo; v < hi; v++ {
			if !f.IsInner(v) || f.Owner(v) != id || f.GlobalID(v) != v {
				t.Fatalf("fragment %d disowns its vertex %d", id, v)
			}
		}
		prev = hi
	}
	if n := eng.g.NumVertices(); int(prev) != n {
		t.Fatalf("fragments cover [0, %d), want %d vertices", prev, n)
	}
	return c.fr
}

func TestFragmentPartitionTrait(t *testing.T) {
	g, _ := dataset.Datagen("t", 100, 2, 5).ToCSR(false)
	eng, err := NewEngine(g, Options{Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Fragments() != 4 {
		t.Fatal("fragment count")
	}
	for _, walk := range []graph.Direction{graph.Out, graph.In, graph.Both} {
		for _, comb := range []Combiner{NoCombine, Sum} {
			if fr := fragmentsOf(t, eng, Exchange{Combine: comb, Walk: walk}); len(fr) != 4 {
				t.Fatalf("comb=%d walk=%v: %d fragments", comb, walk, len(fr))
			}
		}
	}
}

// TestEngineCutsOncePerWeightClass: one engine serves programs of every
// exchange. Exchanges that weigh vertices alike (Sum and Min along one walk)
// share one cut, a cut is made once, and a combiner's accumulators come back
// to the identity between runs of other exchanges.
func TestEngineCutsOncePerWeightClass(t *testing.T) {
	const n = 300
	g, err := dataset.Datagen("t", n, 6, 17).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, Options{Fragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	sumOut := fragmentsOf(t, eng, Exchange{Combine: Sum, Walk: graph.Out})
	if minOut := fragmentsOf(t, eng, Exchange{Combine: Min, Walk: graph.Out}); &minOut[0] != &sumOut[0] {
		t.Fatal("Sum and Min along out-edges cut twice")
	}
	if again := fragmentsOf(t, eng, Exchange{Combine: Sum, Walk: graph.Out}); &again[0] != &sumOut[0] {
		t.Fatal("a second Sum run cut again")
	}
	if pull := fragmentsOf(t, eng, Exchange{Walk: graph.In}); &pull[0] == &sumOut[0] {
		t.Fatal("a pull shares the combined scatter's cut")
	}
	for _, comb := range []Combiner{Sum, NoCombine, Min, Sum} {
		p := &scatterProgram{g: g, sum: make([]float64, n)}
		if _, err := eng.Run(under(comb, p)); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			want := float64(g.Degree(graph.VID(v), graph.In))
			if comb == Min {
				want = min(want, 1)
			}
			if p.sum[v] != want {
				t.Fatalf("comb=%d: vertex %d received %v, want %v", comb, v, p.sum[v], want)
			}
		}
	}
}

// TestFragmentsAreDegreeBalanced: Datagen hands out all its out-edges in the
// first half of the ID range, so equal vertex counts would give fragment 0
// all of a scatter's work. The engine cuts by what each program declares it
// walks instead, and every fragment holds at most 1.25× the mean of that
// weight, on the generated graph and on its reverse, where every in-edge
// ends in the first half.
func TestFragmentsAreDegreeBalanced(t *testing.T) {
	const n = 20_000
	fwd := dataset.Datagen("t", n, 16, 3)
	g, err := fwd.ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := (&dataset.Simple{N: n, Src: fwd.Dst, Dst: fwd.Src}).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	both := func(cg grin.Graph, v graph.VID) int { return 1 + cg.Degree(v, graph.Out) + cg.Degree(v, graph.In) }
	if lo, hi := sumWeight(g, both, 0, n/2), sumWeight(g, both, n/2, n); lo < 2*hi {
		t.Fatalf("generator no longer skews: halves weigh %d and %d", lo, hi)
	}
	// With a combiner an in-edge costs its receiver nothing (the gather is
	// per target), so a scatter weighs combinedWork + outdeg; a cut that
	// charged in-edges would leave the reversed graph's first half too few
	// vertices. A pull walks in-edges and receives nothing, and it pulls a
	// sink in the last superstep only: 1 + [outdeg > 0]·indeg.
	combinedOut := func(cg grin.Graph, v graph.VID) int { return combinedWork + cg.Degree(v, graph.Out) }
	pull := func(cg grin.Graph, v graph.VID) int {
		if cg.Degree(v, graph.Out) == 0 {
			return 1
		}
		return 1 + cg.Degree(v, graph.In)
	}
	for _, tc := range []struct {
		ex     Exchange
		graphs []grin.Graph
		weight func(grin.Graph, graph.VID) int
	}{
		{Exchange{Combine: NoCombine, Walk: graph.Both}, []grin.Graph{g}, both},
		{Exchange{Combine: Sum, Walk: graph.Out}, []grin.Graph{g, rev}, combinedOut},
		{Exchange{Combine: Min, Walk: graph.Out}, []grin.Graph{g, rev}, combinedOut},
		{Exchange{Combine: NoCombine, Walk: graph.In}, []grin.Graph{g, rev}, pull},
	} {
		for gi, cg := range tc.graphs {
			for _, frags := range []int{2, 4} {
				eng, err := NewEngine(cg, Options{Fragments: frags})
				if err != nil {
					t.Fatal(err)
				}
				mean := float64(sumWeight(cg, tc.weight, 0, n)) / float64(frags)
				for id, f := range fragmentsOf(t, eng, tc.ex) {
					lo, hi := f.Bounds()
					if w := float64(sumWeight(cg, tc.weight, lo, hi)); w > 1.25*mean {
						t.Fatalf("%+v graph %d frags=%d: fragment %d weighs %.0f, mean %.0f", tc.ex, gi, frags, id, w, mean)
					}
				}
			}
		}
	}

	// One hub heavier than a share: the fragments it swallows are empty, and
	// a program still runs on all of them.
	star := &dataset.Simple{N: 40}
	for k := 0; k < 2000; k++ {
		dst := graph.VID(5) // 1960 self-loops after one edge to every vertex
		if k < 40 {
			dst = graph.VID(k)
		}
		star.Src = append(star.Src, 5)
		star.Dst = append(star.Dst, dst)
	}
	sg, err := star.ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sg, Options{Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, f := range fragmentsOf(t, eng, Exchange{Combine: Sum, Walk: graph.Out}) {
		if lo, hi := f.Bounds(); lo == hi {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("a hub outweighing three shares left no fragment empty")
	}
	p := &scatterProgram{g: sg, sum: make([]float64, 40)}
	if _, err := eng.Run(under(Sum, p)); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 40; v++ {
		if p.sum[v] != float64(sg.Degree(graph.VID(v), graph.In)) {
			t.Fatalf("vertex %d: sum %v != in-degree %d", v, p.sum[v], sg.Degree(graph.VID(v), graph.In))
		}
	}
}

// sumWeight is Σ weight(g, v) over [lo, hi).
func sumWeight(g grin.Graph, weight func(grin.Graph, graph.VID) int, lo, hi graph.VID) (w int) {
	for v := lo; v < hi; v++ {
		w += weight(g, v)
	}
	return w
}
