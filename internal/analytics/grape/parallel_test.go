package grape

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
)

// scatterProgram sends deg(v) messages per vertex through ParallelFor in
// PEval and records the combined sums in IncEval — a PageRank-shaped probe
// for the intra-fragment parallel send path.
type scatterProgram struct {
	g   grin.Graph
	sum []float64
}

func (p *scatterProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	ctx.ParallelFor(lo, hi, func(s *Sender, v graph.VID) {
		s.SendToNeighbors(v, graph.Out, 1)
	})
}

func (p *scatterProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	ctx.ParallelForMessages(msgs, func(_ *Sender, m Message) {
		p.sum[m.Target] += m.Value
	})
}

// TestParallelForMatchesSequential: intra-fragment workers must deliver the
// same combined messages as the inline path, across fragment counts and both
// the combiner and no-combiner exchanges.
func TestParallelForMatchesSequential(t *testing.T) {
	g, err := dataset.Datagen("t", 300, 6, 17).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(frags, intra int) []float64 {
		p := &scatterProgram{g: g, sum: make([]float64, 300)}
		eng, err := NewEngine(g, Options{
			Fragments:        frags,
			IntraParallelism: intra,
			Combine:          Sum,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(p); err != nil {
			t.Fatal(err)
		}
		return p.sum
	}
	want := run(2, 1)
	for _, intra := range []int{2, 4, 7} {
		if got := run(2, intra); !reflect.DeepEqual(want, got) {
			t.Fatalf("intra=%d: combined sums differ from sequential", intra)
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
// individually regardless of intra-fragment buffering.
type echoAllProgram struct {
	g        grin.Graph
	received []int
}

func (p *echoAllProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	ctx.ParallelFor(lo, hi, func(s *Sender, v graph.VID) {
		grin.ForEachNeighbor(p.g, v, graph.Out, func(n graph.VID, _ graph.EID) bool {
			s.Send(n, float64(v))
			return true
		})
	})
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
	for _, intra := range []int{1, 4} {
		p := &echoAllProgram{g: g, received: make([]int, 200)}
		eng, err := NewEngine(g, Options{Fragments: 2, IntraParallelism: intra})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(p); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 200; v++ {
			if p.received[v] != g.Degree(graph.VID(v), graph.In) {
				t.Fatalf("intra=%d: vertex %d received %d messages, want in-degree %d",
					intra, v, p.received[v], g.Degree(graph.VID(v), graph.In))
			}
		}
	}
}

// auxProgram checks SendAux through Senders: everyone messages vertex 0 with
// value v and aux v+1.
type auxProgram struct {
	got []Message
}

func (p *auxProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	ctx.ParallelFor(lo, hi, func(s *Sender, v graph.VID) {
		s.SendAux(0, uint32(v)+1, float64(v))
	})
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
	for _, intra := range []int{1, 4} {
		p := &auxProgram{}
		eng, err := NewEngine(g, Options{Fragments: 2, IntraParallelism: intra})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(p); err != nil {
			t.Fatal(err)
		}
		if len(p.got) != 64 {
			t.Fatalf("intra=%d: %d messages, want 64", intra, len(p.got))
		}
		for v, m := range p.got {
			if m.Target != 0 || m.Value != float64(v) || m.Aux != uint32(v)+1 {
				t.Fatalf("intra=%d: message %d = %+v", intra, v, m)
			}
		}

		p = &auxProgram{}
		eng, err = NewEngine(g, Options{Fragments: 2, IntraParallelism: intra, Combine: Min})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(p); err != nil {
			t.Fatal(err)
		}
		if len(p.got) != 1 || p.got[0] != (Message{Target: 0, Value: 0}) {
			t.Fatalf("intra=%d: combined delivery %+v, want one {0 0 0}", intra, p.got)
		}
	}
}
