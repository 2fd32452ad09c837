package baselines

import (
	"math"
	"testing"

	"repro/internal/analytics/algorithms"
	"repro/internal/dataset"
	"repro/internal/graph"
)

func TestPowerGraphPageRankMatchesGRAPE(t *testing.T) {
	g, err := dataset.Datagen("t", 300, 5, 11).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algorithms.PageRank(g, algorithms.PageRankOptions{Iterations: 8, Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := NewPowerGraph(g, 4).PageRank(0.85, 8)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: powergraph %v vs grape %v", v, got[v], want[v])
		}
	}
}

func TestGeminiPageRankMatchesGRAPE(t *testing.T) {
	g, err := dataset.Datagen("t", 300, 5, 12).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algorithms.PageRank(g, algorithms.PageRankOptions{Iterations: 8, Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := NewGemini(g, 4).PageRank(0.85, 8)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: gemini %v vs grape %v", v, got[v], want[v])
		}
	}
}

func TestBaselineBFSMatchesGRAPE(t *testing.T) {
	g, err := dataset.Datagen("t", 400, 4, 13).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algorithms.BFS(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	pg := NewPowerGraph(g, 4).BFS(0)
	gm := NewGemini(g, 4).BFS(0)
	for v := range want {
		if pg[v] != want[v] {
			t.Fatalf("vertex %d: powergraph %v vs grape %v", v, pg[v], want[v])
		}
		if gm[v] != want[v] {
			t.Fatalf("vertex %d: gemini %v vs grape %v", v, gm[v], want[v])
		}
	}
}

func TestRouterBatching(t *testing.T) {
	r := newRouter(2, 3)
	var got []msg
	r.exchange(func(w int, s *sender) {
		if w != 0 {
			return
		}
		for i := 0; i < 7; i++ {
			s.send(1, msg{target: 1, value: float64(i)})
		}
	}, func(w int, batch []msg) {
		if w == 1 {
			// Batches are at most 3 long.
			if len(batch) > 3 {
				t.Errorf("batch size %d", len(batch))
			}
			got = append(got, batch...)
		}
	})
	if len(got) != 7 {
		t.Fatalf("received %d messages", len(got))
	}
	// Router re-arms: a second exchange works.
	n := 0
	r.exchange(func(w int, s *sender) {
		s.send(0, msg{})
	}, func(w int, batch []msg) {
		if w == 0 {
			n += len(batch)
		}
	})
	if n != 2 {
		t.Fatalf("second round received %d", n)
	}
}

// TestEdgeCutOwner pins Gemini's layout: contiguous ranges of stride
// ⌈n/workers⌉, each vertex owned by the range holding it.
func TestEdgeCutOwner(t *testing.T) {
	g, err := dataset.Datagen("t", 10, 2, 1).ToCSR(false)
	if err != nil {
		t.Fatal(err)
	}
	r := NewGemini(g, 3).parts
	if r.Owner(0) != 0 || r.Owner(9) != 2 {
		t.Fatal("owner ranges wrong")
	}
	for f, want := range [][2]graph.VID{{0, 4}, {4, 8}, {8, 10}} {
		if lo, hi := r.Bounds(f); lo != want[0] || hi != want[1] {
			t.Fatalf("range %d = [%d, %d), want %v", f, lo, hi, want)
		}
	}
	for v := 0; v < 10; v++ {
		lo, hi := r.Bounds(r.Owner(graph.VID(v)))
		if graph.VID(v) < lo || graph.VID(v) >= hi {
			t.Fatalf("vertex %d assigned outside its range", v)
		}
	}
}
