package grape

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
)

// scatterProgram sends deg(v) messages per vertex in PEval and records the
// combined sums in IncEval — a PageRank-shaped probe for the send path.
type scatterProgram struct {
	g   grin.Graph
	sum []float64
}

func (p *scatterProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		ctx.SendToNeighbors(v, graph.Out, 1)
	}
}

func (p *scatterProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	for _, m := range msgs {
		p.sum[m.Target] += m.Value
	}
}

// TestParallelForMatchesSequential: fragments running in parallel must
// deliver the same combined messages as a single fragment.
func TestParallelForMatchesSequential(t *testing.T) {
	g, err := dataset.Datagen("t", 300, 6, 17).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(frags int) []float64 {
		p := &scatterProgram{g: g, sum: make([]float64, 300)}
		eng, err := NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(under(Sum, p)); err != nil {
			t.Fatal(err)
		}
		return p.sum
	}
	want := run(1)
	for _, frags := range []int{2, 3} {
		if got := run(frags); !reflect.DeepEqual(want, got) {
			t.Fatalf("frags=%d: combined sums differ from one fragment", frags)
		}
	}
	// Cross-check against in-degrees (the ground truth for this program).
	for v := 0; v < 300; v++ {
		if want[v] != float64(g.Degree(graph.VID(v), graph.In)) {
			t.Fatalf("vertex %d: sum %v != in-degree %d", v, want[v], g.Degree(graph.VID(v), graph.In))
		}
	}
}

// echoAllProgram exercises the no-combiner path: every message must arrive
// individually, whichever fragment buffered it.
type echoAllProgram struct {
	g        grin.Graph
	received []int
}

func (p *echoAllProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		grin.ForEachNeighbor(p.g, v, graph.Out, func(n graph.VID, _ graph.EID) bool {
			ctx.Send(n, float64(v))
			return true
		})
	}
}

func (p *echoAllProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	// No combiner: targets repeat, count sequentially.
	for _, m := range msgs {
		p.received[m.Target]++
	}
}

func TestParallelForNoCombinerKeepsAllMessages(t *testing.T) {
	g, err := dataset.Datagen("t", 200, 5, 23).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, frags := range []int{1, 2, 3} {
		p := &echoAllProgram{g: g, received: make([]int, 200)}
		eng, err := NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(under(NoCombine, p)); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 200; v++ {
			if p.received[v] != g.Degree(graph.VID(v), graph.In) {
				t.Fatalf("frags=%d: vertex %d received %d messages, want in-degree %d",
					frags, v, p.received[v], g.Degree(graph.VID(v), graph.In))
			}
		}
	}
}

// auxProgram checks SendAux: everyone messages vertex 0 with value v and aux
// v+1.
type auxProgram struct {
	got []Message
}

func (p *auxProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		ctx.SendAux(0, uint32(v)+1, float64(v))
	}
}

func (p *auxProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	if len(msgs) > 0 { // only vertex 0's fragment, so no two fragments write
		p.got = append(p.got, msgs...)
	}
}

// TestParallelForAuxAndMinCombine: without a combiner every message arrives
// with its own aux, in send order; with the min combiner one message arrives,
// the global min, and aux is not carried.
func TestParallelForAuxAndMinCombine(t *testing.T) {
	g, err := dataset.Datagen("t", 64, 2, 29).ToCSR(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, frags := range []int{1, 2, 3} {
		p := &auxProgram{}
		eng, err := NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(under(NoCombine, p)); err != nil {
			t.Fatal(err)
		}
		if len(p.got) != 64 {
			t.Fatalf("frags=%d: %d messages, want 64", frags, len(p.got))
		}
		for v, m := range p.got {
			if m.Target != 0 || m.Value != float64(v) || m.Aux != uint32(v)+1 {
				t.Fatalf("frags=%d: message %d = %+v", frags, v, m)
			}
		}

		p = &auxProgram{}
		eng, err = NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(under(Min, p)); err != nil {
			t.Fatal(err)
		}
		if len(p.got) != 1 || p.got[0] != (Message{Target: 0, Value: 0}) {
			t.Fatalf("frags=%d: combined delivery %+v, want one {0 0 0}", frags, p.got)
		}
	}
}

// shrinkProgram sends Sum-combined counts to both directions' neighbours
// over supersteps whose sender sets shrink: every vertex in PEval, then at
// step s only the receivers divisible by 2^s, until step shrinkSteps.
type shrinkProgram struct {
	sums [][]float64 // sums[s][v]: the combined value v received at step s
}

const shrinkSteps = 4

func (p *shrinkProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		ctx.SendToNeighbors(v, graph.Both, 1)
	}
}

func (p *shrinkProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	s := ctx.Superstep()
	for _, m := range msgs {
		p.sums[s][m.Target] = m.Value
		if s < shrinkSteps && m.Target%(1<<s) == 0 {
			ctx.SendToNeighbors(m.Target, graph.Both, 1)
		}
	}
}

// iteratorOnly hides every trait but the iterator, so the engine takes its
// Neighbors fallback.
type iteratorOnly struct{ grin.Graph }

// TestSumBothShrinkingSends: Sum-combined Both sends, with fewer senders each
// superstep, deliver the sequential counts through the adjacency arrays and
// through the Neighbors fallback at every fragment count.
func TestSumBothShrinkingSends(t *testing.T) {
	const n = 300
	g, err := dataset.Datagen("t", n, 5, 31).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grin.AsAdjArray(iteratorOnly{g}); ok {
		t.Fatal("iteratorOnly still offers the array trait")
	}
	// Reference: replay the sender sets sequentially.
	want := make([][]float64, shrinkSteps+1)
	senders := make([]bool, n)
	for v := range senders {
		senders[v] = true
	}
	last := n + 1
	for s := 1; s <= shrinkSteps; s++ {
		want[s] = make([]float64, n)
		count := 0
		for v, ok := range senders {
			if ok {
				count++
				g.Neighbors(graph.VID(v), graph.Both, func(u graph.VID, _ graph.EID) bool {
					want[s][u]++
					return true
				})
			}
		}
		if count == 0 || count >= last {
			t.Fatalf("step %d: %d senders after %d, want fewer but some", s, count, last)
		}
		last = count
		for v := range senders {
			senders[v] = want[s][v] > 0 && v%(1<<s) == 0
		}
	}
	for name, store := range map[string]grin.Graph{"arrays": g, "neighbors": iteratorOnly{g}} {
		for _, frags := range []int{1, 2, 3} {
			p := &shrinkProgram{sums: make([][]float64, shrinkSteps+1)}
			for s := range p.sums {
				p.sums[s] = make([]float64, n)
			}
			eng, err := NewEngine(store, Options{Fragments: frags})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(under(Sum, p)); err != nil {
				t.Fatal(err)
			}
			for s := 1; s <= shrinkSteps; s++ {
				if !reflect.DeepEqual(p.sums[s], want[s]) {
					t.Fatalf("%s frags=%d: step %d sums differ from the sequential replay", name, frags, s)
				}
			}
		}
	}
}

// lagSteps is lagProgram's superstep count.
const lagSteps = 8

// lagProgram sends integers every superstep but the last: on
// even supersteps every vertex to its out-neighbours and to v/2 (a dense
// superstep), on odd ones only every 32nd vertex to its out-neighbours (a
// sparse one). sums[s][v] is what v received in superstep s. Fragment slow
// spins for lagSpin in every even IncEval, so the others reach that
// barrier long before it, and each exchange runs with the fragments out of
// step: they gather and scatter into the next parity while it still gathers
// this one.
type lagProgram struct {
	slow int
	sums [lagSteps][]float64
}

const lagSpin = 300 * time.Microsecond

func (p *lagProgram) send(f *Fragment, ctx *Context) {
	s := ctx.Superstep()
	if s >= lagSteps-1 {
		return
	}
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		if s%2 == 0 {
			ctx.SendToNeighbors(v, graph.Out, float64(v%5))
			ctx.Send(v/2, 1)
		} else if v%32 == 0 {
			ctx.SendToNeighbors(v, graph.Out, 1)
		}
	}
}

func (p *lagProgram) PEval(f *Fragment, ctx *Context) { p.send(f, ctx) }

func (p *lagProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	s := ctx.Superstep()
	if id, _ := f.Fragment(); id == p.slow && s%2 == 0 {
		for start := time.Now(); time.Since(start) < lagSpin; {
		}
	}
	for _, m := range msgs {
		p.sums[s][m.Target] += m.Value
	}
	p.send(f, ctx)
}

// TestLaggingFragment: a fragment that falls behind every other superstep
// changes nothing a run delivers. At 2 and 3 fragments, on both exchanges
// (Sum reads accumulators in place, NoCombine concatenates Message
// buffers), the sums of every superstep and the exact counters equal the
// one-fragment run's on the same exchange.
func TestLaggingFragment(t *testing.T) {
	const n = 400
	g, err := dataset.Datagen("t", n, 8, 37).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(frags int, comb Combiner) (*lagProgram, RunStats) {
		p := &lagProgram{slow: frags - 1}
		for s := range p.sums {
			p.sums[s] = make([]float64, n)
		}
		eng, err := NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		var st RunStats
		eng.CollectStats(&st)
		if _, err := eng.Run(under(comb, p)); err != nil {
			t.Fatal(err)
		}
		return p, st
	}
	for _, comb := range []Combiner{Sum, NoCombine} {
		want, wantStats := run(1, comb)
		if wantStats.Supersteps != lagSteps {
			t.Fatalf("comb=%d: one fragment ran %d supersteps, want %d", comb, wantStats.Supersteps, lagSteps)
		}
		for _, frags := range []int{2, 3} {
			got, st := run(frags, comb)
			if st.Supersteps != wantStats.Supersteps || st.Folded != wantStats.Folded || st.Delivered != wantStats.Delivered {
				t.Fatalf("frags=%d comb=%d: %d/%d/%d, want %d/%d/%d", frags, comb, st.Supersteps, st.Folded, st.Delivered,
					wantStats.Supersteps, wantStats.Folded, wantStats.Delivered)
			}
			if !reflect.DeepEqual(got.sums, want.sums) {
				t.Fatalf("frags=%d comb=%d: sums differ from one fragment", frags, comb)
			}
		}
	}
}

// TestOutboxFillsItsCacheLines: an outbox stays 128 bytes, so that the
// allocator places each on two cache lines of its own (see its padding).
func TestOutboxFillsItsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(outbox{}); size != 128 {
		t.Fatalf("outbox is %d bytes, want 128: resize its padding", size)
	}
}
