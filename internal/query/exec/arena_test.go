package exec

import (
	"testing"

	"repro/internal/graph"
)

// TestArenaResetBoundsExpansionScratch: Reset keeps expansion scratch up to
// retainSlots for the next query and drops it — all of it — beyond.
func TestArenaResetBoundsExpansionScratch(t *testing.T) {
	a := new(Arena)
	a.expand.adj.Nbrs = make([]graph.VID, 0, retainSlots)
	a.expand.ts = make([]int32, 0, 8)
	a.Reset()
	if cap(a.expand.adj.Nbrs) != retainSlots || cap(a.expand.ts) != 8 {
		t.Fatal("Reset dropped expansion scratch within the bound")
	}
	a.expand.adj.Nbrs = make([]graph.VID, 0, retainSlots+1)
	a.Reset()
	if a.expand.adj.Nbrs != nil || a.expand.ts != nil {
		t.Fatal("Reset kept expansion scratch beyond the bound")
	}
}
