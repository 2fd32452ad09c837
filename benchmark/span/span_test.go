package span

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimesSerialTreeSumsToRoot(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "parse", Start: 5, End: 15, Parent: 0},
		{Name: "run", Start: 20, End: 90, Parent: 0},
		{Name: "store", Start: 30, End: 40, Parent: 2},
		{Name: "store", Start: 50, End: 70, Parent: 2},
	}
	self, shared := SelfTimes(spans)
	want := []int64{20, 10, 40, 10, 20}
	var sum int64
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 100 || shared != 0 {
		t.Errorf("self times sum to %d with %d shared, want the root's 100 and 0", sum, shared)
	}
}

func TestSelfTimesCountsParallelChildrenOnce(t *testing.T) {
	// Two workers inside one engine call: their store calls overlap 40..60.
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "run", Start: 0, End: 100, Parent: 0},
		{Name: "store", Start: 10, End: 60, Parent: 1, Lane: 1},
		{Name: "store", Start: 40, End: 90, Parent: 1, Lane: 2},
	}
	self, shared := SelfTimes(spans)
	if self[1] != 20 {
		t.Errorf("run's self time = %d, want 20 (its children cover 10..90 once)", self[1])
	}
	if shared != 20 {
		t.Errorf("shared = %d, want the 20 ns both workers spent in the store", shared)
	}
	var sum int64
	for _, s := range self {
		sum += s
	}
	if sum-shared != 100 {
		t.Errorf("self times minus shared time = %d, want the root's 100", sum-shared)
	}
}

func TestRecorderAggregatesAndExports(t *testing.T) {
	r := NewRecorder()
	for op := 0; op < 3; op++ {
		r.Begin("op")
		s := r.Enter("layer.Call")
		lane, t0 := r.Lane(), Now()
		r.Add("store/X", t0, Now(), lane, 7)
		r.Exit(s)
		r.End()
	}
	// A span outside any operation (engine construction) is dropped.
	r.Add("store/X", Now(), Now(), 0, 1)
	if a := r.Agg("store/X"); a.Count != 3 || a.Rows != 21 {
		t.Errorf("store/X: %d calls, %d rows; want 3 and 21", a.Count, a.Rows)
	}
	if a := r.Agg("layer.Call"); a.Count != 3 || a.Self > a.Nanos {
		t.Errorf("layer.Call: %+v", a)
	}
	roots, selfs := r.Totals()
	if roots != selfs || roots != r.Agg("op").Nanos {
		t.Errorf("roots %d, self times %d, op spans %d: want all equal", roots, selfs, r.Agg("op").Nanos)
	}
	if r.Ops() != 3 {
		t.Errorf("ops = %d, want 3", r.Ops())
	}
	if l1, l2 := r.Lane(), r.Lane(); l1 == l2 {
		t.Errorf("two open spans share lane %d", l1)
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("exported trace does not load: %v", err)
	}
	if len(events) != 9 {
		t.Errorf("exported %d events, want 9", len(events))
	}
	for _, e := range events {
		if e["ph"] != "X" || e["name"] == "" {
			t.Errorf("malformed event %v", e)
		}
	}
}
