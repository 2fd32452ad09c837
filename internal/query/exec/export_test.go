package exec

// Test-only views of the expansion skeleton's unexported bounds.

// SlotBudget and FirstChunk mirror the chunking constants.
const (
	SlotBudget = slotBudget
	FirstChunk = firstChunk
)

// ExpandSlotCap returns the capacity, in adjacency slots, of the arena's
// expansion scratch.
func (a *Arena) ExpandSlotCap() int { return cap(a.expand.adj.Nbrs) }
