package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestRangePartitionCoversAllVertices(t *testing.T) {
	f := func(nRaw, partsRaw uint8) bool {
		n := int(nRaw) + 1
		parts := int(partsRaw)%8 + 1
		r, err := NewRange(n, parts, nil)
		if err != nil {
			return false
		}
		// Every vertex is owned by exactly one fragment, and Bounds agree
		// with Owner.
		counts := make([]int, parts)
		for v := 0; v < n; v++ {
			o := r.Owner(graph.VID(v))
			if o < 0 || o >= parts {
				return false
			}
			counts[o]++
			lo, hi := r.Bounds(o)
			if graph.VID(v) < lo || graph.VID(v) >= hi {
				return false
			}
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeBoundsContiguous(t *testing.T) {
	r, err := NewRange(100, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parts := len(r.cuts) - 1; parts != 7 {
		t.Fatalf("%d fragments, want 7", parts)
	}
	prev := graph.VID(0)
	for f := 0; f < 7; f++ {
		lo, hi := r.Bounds(f)
		if lo != prev {
			t.Fatalf("fragment %d not contiguous: lo=%d prev=%d", f, lo, prev)
		}
		if hi < lo {
			t.Fatalf("fragment %d inverted", f)
		}
		prev = hi
	}
	if prev != 100 {
		t.Fatalf("coverage ends at %d", prev)
	}
}

// TestRangeUnitWeightsSplitByCount: with every vertex weighing 1 the cuts are
// the count-based stride ⌈n/parts⌉.
func TestRangeUnitWeightsSplitByCount(t *testing.T) {
	r, err := NewRange(100, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 7; f++ {
		lo, hi := r.Bounds(f)
		if wantLo, wantHi := graph.VID(f*15), graph.VID(min(f*15+15, 100)); lo != wantLo || hi != wantHi {
			t.Fatalf("fragment %d = [%d, %d), want [%d, %d)", f, lo, hi, wantLo, wantHi)
		}
	}
}

// checkCover asserts every vertex is owned exactly once and Bounds agrees
// with Owner.
func checkCover(t *testing.T, r *Range, n int) {
	t.Helper()
	prev := graph.VID(0)
	for f := 0; f+1 < len(r.cuts); f++ {
		lo, hi := r.Bounds(f)
		if lo != prev || hi < lo {
			t.Fatalf("fragment %d = [%d, %d) does not continue from %d", f, lo, hi, prev)
		}
		for v := lo; v < hi; v++ {
			if o := r.Owner(v); o != f {
				t.Fatalf("vertex %d: Owner %d, Bounds says %d", v, o, f)
			}
		}
		prev = hi
	}
	if int(prev) != n {
		t.Fatalf("coverage ends at %d, want %d", prev, n)
	}
}

// TestRangeBalancesWeight: skewed weights move the cuts so every fragment
// carries about one share, within one vertex's weight.
func TestRangeBalancesWeight(t *testing.T) {
	// All the weight in the first quarter of the ID range.
	weight := func(v graph.VID) int {
		if v < 250 {
			return 1 + int(v%7)
		}
		return 1
	}
	const n, parts = 1000, 4
	r, err := NewRange(n, parts, weight)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, r, n)
	total := 0
	for v := 0; v < n; v++ {
		total += weight(graph.VID(v))
	}
	for f := 0; f < parts; f++ {
		lo, hi := r.Bounds(f)
		sum := 0
		for v := lo; v < hi; v++ {
			sum += weight(v)
		}
		if share := (total + parts - 1) / parts; sum > share+7 || sum < share-7-parts {
			t.Fatalf("fragment %d weighs %d, share is %d", f, sum, share)
		}
	}
}

// TestRangeHubLeavesEmptyFragments: a vertex heavier than a share swallows
// the fragments it spans; they are empty, and every vertex keeps one owner.
func TestRangeHubLeavesEmptyFragments(t *testing.T) {
	weight := func(v graph.VID) int {
		if v == 3 {
			return 1000
		}
		return 1
	}
	r, err := NewRange(10, 4, weight)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, r, 10)
	empty := 0
	for f := 0; f < 4; f++ {
		if lo, hi := r.Bounds(f); lo == hi {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("a hub outweighing three shares left no fragment empty")
	}
	if lo, hi := r.Bounds(r.Owner(3)); lo > 3 || hi <= 3 {
		t.Fatalf("hub owner's bounds [%d, %d) miss it", lo, hi)
	}
}

func TestRangeErrors(t *testing.T) {
	if _, err := NewRange(10, 0, nil); err == nil {
		t.Fatal("zero parts accepted")
	}
	if _, err := NewRange(-1, 2, nil); err == nil {
		t.Fatal("negative n accepted")
	}
}
