package csr

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// randomEdges builds a skewed random edge list (quadratic src bias, so some
// vertices are hubs like in the power-law datasets).
func randomEdges(n, m int, seed int64) []Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		s := r.Intn(n)
		if r.Intn(4) == 0 {
			s = int(float64(n) * r.Float64() * r.Float64()) // hubbier
		}
		edges[i] = Edge{Src: graph.VID(s), Dst: graph.VID(r.Intn(n)), Weight: r.Float64()}
	}
	return edges
}

// TestParallelBuildMatchesSequential: every worker count must produce a graph
// bit-identical to the sequential build, for every option combination.
func TestParallelBuildMatchesSequential(t *testing.T) {
	const n, m = 500, 4000
	edges := randomEdges(n, m, 7)
	for _, opt := range []Options{
		{},
		{BuildCSC: true},
		{Weighted: true},
		{BuildCSC: true, Weighted: true},
	} {
		seqOpt := opt
		seqOpt.Workers = 1
		want, err := Build(n, edges, seqOpt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 8} {
			parOpt := opt
			parOpt.Workers = workers
			got, err := Build(n, edges, parOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.outOff, got.outOff) || !reflect.DeepEqual(want.out, got.out) {
				t.Fatalf("opt=%+v workers=%d: out-CSR differs from sequential", opt, workers)
			}
			if !reflect.DeepEqual(want.inOff, got.inOff) || !reflect.DeepEqual(want.in, got.in) {
				t.Fatalf("opt=%+v workers=%d: CSC differs from sequential", opt, workers)
			}
			if !reflect.DeepEqual(want.weights, got.weights) {
				t.Fatalf("opt=%+v workers=%d: weights differ from sequential", opt, workers)
			}
		}
	}
}

// TestParallelBuildEdgeCases: empty graphs, empty edge lists, and more
// workers than edges must all work.
func TestParallelBuildEdgeCases(t *testing.T) {
	if g, err := Build(3, nil, Options{BuildCSC: true, Workers: 8}); err != nil || g.NumEdges() != 0 {
		t.Fatalf("empty edge list: %v %v", g, err)
	}
	if g, err := Build(0, nil, Options{Workers: 4}); err != nil || g.NumVertices() != 0 {
		t.Fatalf("empty graph: %v %v", g, err)
	}
	if g, err := Build(10, []Edge{{Src: 1, Dst: 2}}, Options{Workers: 16, BuildCSC: true}); err != nil || g.NumEdges() != 1 {
		t.Fatalf("one edge, many workers: %v %v", g, err)
	}
}

// TestParallelBuildReportsFirstBadEdge: the error must name the lowest bad
// edge index, as a sequential scan would.
func TestParallelBuildReportsFirstBadEdge(t *testing.T) {
	edges := randomEdges(50, 1000, 9)
	edges[700].Dst = 99 // bad, later
	edges[123].Src = 77 // bad, first
	_, err := Build(50, edges, Options{Workers: 8})
	if err == nil {
		t.Fatal("bad edge accepted")
	}
	want := "csr: edge 123 (77->"
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("error %q does not report first bad edge", got)
	}
}

// BenchmarkBuild measures the full Build (CSC + weights)
// at workers=1 vs workers=NumCPU; the acceptance gate for the parallel
// runtime on the storage path.
func BenchmarkBuild(b *testing.B) {
	const n, m = 100_000, 800_000
	edges := randomEdges(n, m, 11)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := Options{BuildCSC: true, Weighted: true, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(n, edges, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
