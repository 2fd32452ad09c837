package pregel

import (
	"testing"

	"repro/internal/analytics/grape"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
)

// maxValueProgram computes, per vertex, the maximum initial value reachable
// backwards along edges — the classic Pregel example from the original paper.
type maxValueProgram struct{}

func (maxValueProgram) Init(v graph.VID, _ grin.Graph) float64 {
	return float64(v % 17)
}

func (maxValueProgram) Compute(vc *VertexContext, msgs []float64) {
	if vc.Superstep() == 0 {
		vc.SendToNeighbors(graph.Out, vc.Value())
		vc.VoteToHalt()
		return
	}
	changed := false
	for _, m := range msgs {
		if m > vc.Value() {
			vc.SetValue(m)
			changed = true
		}
	}
	if changed {
		vc.SendToNeighbors(graph.Out, vc.Value())
	}
	vc.VoteToHalt()
}

func TestMaxValuePropagation(t *testing.T) {
	g, err := dataset.Datagen("t", 200, 4, 3).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	vals, steps, err := Run(g, maxValueProgram{}, Options{Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if steps < 2 {
		t.Fatalf("steps %d", steps)
	}
	// Fixed point: no vertex has an in-neighbor with a larger value.
	for v := 0; v < g.NumVertices(); v++ {
		g.Neighbors(graph.VID(v), graph.In, func(u graph.VID, _ graph.EID) bool {
			if vals[u] > vals[v] {
				t.Fatalf("not a fixed point: val[%d]=%v > val[%d]=%v (edge %d->%d)", u, vals[u], v, vals[v], u, v)
			}
			return true
		})
	}
	// Values only grow from their initialization.
	for v := 0; v < g.NumVertices(); v++ {
		if vals[v] < float64(v%17) {
			t.Fatalf("value shrank at %d", v)
		}
	}
}

// haltImmediately checks that a program that halts everywhere terminates in
// one superstep.
type haltImmediately struct{}

func (haltImmediately) Init(graph.VID, grin.Graph) float64 { return 1 }
func (haltImmediately) Compute(vc *VertexContext, _ []float64) {
	vc.VoteToHalt()
}

func TestImmediateHalt(t *testing.T) {
	g, err := dataset.Datagen("t", 50, 2, 5).ToCSR(false)
	if err != nil {
		t.Fatal(err)
	}
	vals, steps, err := Run(g, haltImmediately{}, Options{Fragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Fatalf("steps %d, want 1", steps)
	}
	for _, v := range vals {
		if v != 1 {
			t.Fatal("init values lost")
		}
	}
}

// weightedSpread sends per neighbour, scaled by the edge weight, and to an
// arbitrary vertex.
type weightedSpread struct{ sink graph.VID }

func (weightedSpread) Init(graph.VID, grin.Graph) float64 { return 0 }
func (p weightedSpread) Compute(vc *VertexContext, msgs []float64) {
	switch vc.Superstep() {
	case 0:
		if vc.Vertex() == 0 {
			vc.SetValue(10)
			g := vc.g
			grin.ForEachNeighbor(g, vc.Vertex(), graph.Out, func(n graph.VID, e graph.EID) bool {
				vc.Send(n, vc.Value()*grin.Weight(g, e))
				return true
			})
			vc.Send(p.sink, 1)
		}
		vc.VoteToHalt()
	default:
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		vc.SetValue(vc.Value() + sum)
		vc.VoteToHalt()
	}
}

func TestWeightedAndDirectSends(t *testing.T) {
	s := &dataset.Simple{N: 4,
		Src: []graph.VID{0, 0},
		Dst: []graph.VID{1, 2},
		W:   []float64{0.5, 0.25},
	}
	g, err := s.ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := Run(g, weightedSpread{sink: 3}, Options{Fragments: 2, Combine: grape.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if vals[1] != 5 || vals[2] != 2.5 {
		t.Fatalf("weighted sends wrong: %v", vals)
	}
	if vals[3] != 1 {
		t.Fatalf("direct send lost: %v", vals[3])
	}
}
