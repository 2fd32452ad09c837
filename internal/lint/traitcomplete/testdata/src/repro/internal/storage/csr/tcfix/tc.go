// Package tcfix exercises the scalar/batched trait pairing rules on a
// backend import path (/storage/csr). The analyzer is syntactic — method
// names on receivers — so the stub signatures below need not match grin's.
package tcfix

// TopoGap implements the scalar topology trait but not ExpandBatch, and
// carries no fallback marker.
type TopoGap struct{} // want "backend type TopoGap implements scalar trait Graph \\(topology\\) \\(Neighbors\\) but not batched BatchAdjacency.ExpandBatch"

func (TopoGap) Neighbors() {}

// TopoFull pairs the scalar trait with its batched counterpart.
type TopoFull struct{}

func (TopoFull) Neighbors()   {}
func (TopoFull) ExpandBatch() {}

// TopoDeclared opts out of the batched path explicitly:
// grin:fallback chunk-faulting store; the generic helper is already optimal.
type TopoDeclared struct{}

func (TopoDeclared) Neighbors() {}

// PropGap implements the scalar property trait without GatherVertexProp.
type PropGap struct{} // want "backend type PropGap implements scalar trait PropertyReader \\(VertexProp\\) but not batched BatchProps.GatherVertexProp"

func (PropGap) VertexProp() {}

// ScanGap implements a scalar scan trait (LabelRange) without ScanBatch.
type ScanGap struct{} // want "backend type ScanGap implements scalar trait PredicatePush/Index \\(scan\\) \\(LabelRange\\) but not batched BatchScan.ScanBatch"

func (ScanGap) LabelRange() {}

// ScanFull pairs both scan entry points with the batched scan.
type ScanFull struct{}

func (ScanFull) ScanVertices() {}
func (ScanFull) LabelRange()   {}
func (ScanFull) ScanBatch()    {}

// LabelGap expands in batches over labelled edges without label segments.
type LabelGap struct{} // want "backend type LabelGap implements scalar trait BatchAdjacency over labelled edges \\(ExpandBatch\\) but not batched LabelAdjacency.ExpandLabelBatch"

func (LabelGap) ExpandBatch() {}
func (LabelGap) EdgeLabel()   {}

// LabelFull serves the labelled expansion itself.
type LabelFull struct{}

func (LabelFull) ExpandBatch()      {}
func (LabelFull) EdgeLabel()        {}
func (LabelFull) ExpandLabelBatch() {}

// LabelDeclared declares that gap and no other: its missing ScanBatch still
// fires.
//
// grin:fallback ExpandLabelBatch adjacency is a per-vertex version chain.
type LabelDeclared struct{} // want "backend type LabelDeclared implements scalar trait PredicatePush/Index \\(scan\\) \\(LabelRange\\) but not batched BatchScan.ScanBatch"

func (LabelDeclared) ExpandBatch() {}
func (LabelDeclared) EdgeLabel()   {}
func (LabelDeclared) LabelRange()  {}

// Unlabelled expands in batches but has no edge labels to segment by.
type Unlabelled struct{}

func (Unlabelled) ExpandBatch() {}

// Bystander implements no GRIN trait at all.
type Bystander struct{}

func (Bystander) Close() {}
