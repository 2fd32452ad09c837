// Package gart implements the dynamic in-memory graph store of §4.2: an
// MVCC, mutable CSR-like structure that serves consistent snapshot reads
// while accepting continuous topology and property updates.
//
// Design, following the paper's GART:
//
//   - Adjacency is stored per vertex as a chain of segments (the "mutable
//     CSR-like data structure"): entries within a segment are contiguous, so
//     scans enjoy near-CSR locality, while appends never move existing
//     entries. Segments grow geometrically — 4, 8, 16, … entries up to the
//     configured segment size, every later segment at that size — so the
//     many low-degree vertices of a social graph pay for the edges they
//     have, not for a full segment per direction. A segment size of 4 or
//     less keeps every segment at that fixed size (ablation bench).
//   - Every edge entry carries a create version and an atomic delete version.
//     Readers pin a committed version and filter entries without locking:
//     writers publish an entry by atomically bumping the segment count after
//     the entry is fully written, and new entries carry an uncommitted
//     version that pinned snapshots skip.
//   - The per-vertex table (label, external ID, create version, property
//     row, both adjacency chains — one vertexSlot each) lives in fixed-size
//     append-only chunks behind an atomically published chunk directory:
//     a slot never moves once written, the writer fills it before bumping
//     the published vertex count, and a reader that loads the count and then
//     the directory indexes any published slot with no lock. Topology scans
//     (Neighbors, ExpandBatch — the throughput-critical path of Exp-1c),
//     ExternalID, VertexLabel, label gathers and vertex scans are all
//     lock-free.
//   - Property cells, MVCC version chains, the external-ID index and the
//     per-edge label/row arrays are growable maps and slices: reading them
//     takes the store's read lock (once per call — once per batch on the
//     batch traits), writing them the write lock, which also serializes
//     writers.
//   - Vertex property updates keep per-cell version chains so snapshots read
//     the value as of their version.
package gart

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/column"
)

// DefaultSegmentSize is the per-vertex adjacency segment capacity the
// geometric growth tops out at.
const DefaultSegmentSize = 64

// firstSegmentSize is the capacity of a chain's first segment; each further
// segment doubles until the store's segment size is reached.
const firstSegmentSize = 4

const liveVersion = ^uint64(0)

type edgeEntry struct {
	nbr       graph.VID
	eid       graph.EID
	createVer uint64
	deleteVer atomic.Uint64 // liveVersion while live
}

type segment struct {
	entries []edgeEntry
	count   atomic.Uint32 // published entries
	next    atomic.Pointer[segment]
}

// adjacency is a segment chain for one vertex and direction. Readers enter
// through head; tail is the writer's append cursor, touched only under the
// store's write lock.
type adjacency struct {
	head atomic.Pointer[segment]
	tail *segment
}

type vertexMeta struct {
	extID     int64
	createVer uint64
	label     graph.LabelID
	row       uint32 // row in the label's property columns
}

// vertexSlot is everything the store keeps per vertex outside the property
// columns. meta is immutable once the slot is published; the adjacency chains
// grow through their own atomics.
type vertexSlot struct {
	meta vertexMeta
	out  adjacency
	in   adjacency
}

const (
	vchunkBits = 10
	vchunkSize = 1 << vchunkBits
	vchunkMask = vchunkSize - 1
)

// vchunk is one fixed-size block of the vertex table. Chunks are append-only
// and never move, so a *vertexSlot stays valid for the life of the store.
type vchunk [vchunkSize]vertexSlot

// vertexTable is a reader's view of the published vertex table: the chunk
// directory plus the vertex count it was loaded under. A view is immutable —
// later vertices publish a new count (and, per new chunk, a new directory) —
// so batch readers load it once and index it freely.
type vertexTable struct {
	chunks []*vchunk
	n      graph.VID
}

// slot returns the published slot of v, or nil when v is not published in
// this view.
func (t vertexTable) slot(v graph.VID) *vertexSlot {
	if v >= t.n {
		return nil
	}
	return &t.chunks[v>>vchunkBits][v&vchunkMask]
}

type propCell struct {
	v graph.VID
	p graph.PropID
}

type propVersion struct {
	ver uint64
	val graph.Value
}

// Store is the GART dynamic graph store.
type Store struct {
	schema  *graph.Schema
	segSize int

	// The vertex table is published lock-free: the writer (under mu) fills
	// slot vCount, publishes a grown directory if the slot opened a new chunk,
	// then bumps vCount. Readers load vCount before vdir (see table), so the
	// directory they hold always covers the count they hold.
	vdir   atomic.Pointer[[]*vchunk]
	vCount atomic.Uint64 // published vertex count (monotone)

	mu sync.RWMutex // guards all growable state below; serializes writers

	extLookup []map[int64]graph.VID
	vcols     [][]*column.Column
	// vcurVer[cell] is the commit version of the cell's current (column)
	// value; absent means the vertex create version. vhist holds superseded
	// values, ascending by version.
	vcurVer map[propCell]uint64
	vhist   map[propCell][]propVersion

	eLabel []graph.LabelID
	eRow   []uint32
	ecols  [][]*column.Column

	readVer atomic.Uint64 // newest committed version
}

var (
	_ grin.Versioned = (*Store)(nil)
	_ grin.Named     = (*Store)(nil)
)

// NewStore creates an empty GART store. segSize <= 0 selects the default.
func NewStore(schema *graph.Schema, segSize int) *Store {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	s := &Store{
		schema:    schema,
		segSize:   segSize,
		extLookup: make([]map[int64]graph.VID, schema.NumVertexLabels()),
		vcols:     make([][]*column.Column, schema.NumVertexLabels()),
		ecols:     make([][]*column.Column, schema.NumEdgeLabels()),
		vcurVer:   make(map[propCell]uint64),
		vhist:     make(map[propCell][]propVersion),
	}
	for l := range s.vcols {
		s.extLookup[l] = make(map[int64]graph.VID)
		s.vcols[l] = column.Set(schema.Vertices[l].Props)
	}
	for l := range s.ecols {
		s.ecols[l] = column.Set(schema.Edges[l].Props)
	}
	s.vdir.Store(new([]*vchunk))
	return s
}

// table loads the published vertex table. The count is loaded first: the
// writer stores the directory before the count that needs it, so the
// directory loaded afterwards covers every slot below the count.
func (s *Store) table() vertexTable {
	n := s.vCount.Load()
	return vertexTable{chunks: *s.vdir.Load(), n: graph.VID(n)}
}

// appendVertex fills and publishes the next vertex slot. Called with mu held
// (single writer). A full directory grows by publishing a new slice header:
// append writes the new chunk pointer past the length any earlier header
// exposes, so readers holding one never observe the write.
func (s *Store) appendVertex(meta vertexMeta) graph.VID {
	n := s.vCount.Load()
	dir := *s.vdir.Load()
	if int(n>>vchunkBits) == len(dir) {
		dir = append(dir, new(vchunk))
		s.vdir.Store(&dir)
	}
	dir[n>>vchunkBits][n&vchunkMask].meta = meta
	s.vCount.Store(n + 1) // publish
	return graph.VID(n)
}

// BackendName implements grin.Named.
func (s *Store) BackendName() string { return "gart" }

// Schema returns the store's schema.
func (s *Store) Schema() *graph.Schema { return s.schema }

// writeVersion is the version new writes belong to: the next commit.
func (s *Store) writeVersion() uint64 { return s.readVer.Load() + 1 }

// ReadVersion implements grin.Versioned.
func (s *Store) ReadVersion() uint64 { return s.readVer.Load() }

// Commit publishes all writes since the previous commit and returns the new
// read version.
func (s *Store) Commit() uint64 { return s.readVer.Add(1) }

// AddVertex inserts a vertex, visible after the next Commit.
func (s *Store) AddVertex(label graph.LabelID, extID int64, props ...graph.Value) error {
	if int(label) < 0 || int(label) >= s.schema.NumVertexLabels() {
		return fmt.Errorf("gart: vertex label %d out of range", label)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.extLookup[label][extID]; dup {
		return fmt.Errorf("gart: duplicate vertex %s/%d", s.schema.VertexLabelName(label), extID)
	}
	row := uint32(0)
	if cols := s.vcols[label]; len(cols) > 0 {
		row = uint32(cols[0].Len())
	}
	if err := column.AppendRow(s.vcols[label], props); err != nil {
		return fmt.Errorf("gart: vertex %s/%d: %w", s.schema.VertexLabelName(label), extID, err)
	}
	s.extLookup[label][extID] = s.appendVertex(vertexMeta{
		label: label, extID: extID, createVer: s.writeVersion(), row: row,
	})
	return nil
}

// AddEdge inserts an edge between existing vertices, visible after Commit.
func (s *Store) AddEdge(label graph.LabelID, srcExt, dstExt int64, props ...graph.Value) error {
	if int(label) < 0 || int(label) >= s.schema.NumEdgeLabels() {
		return fmt.Errorf("gart: edge label %d out of range", label)
	}
	el := s.schema.Edges[label]
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.lookupLocked(el.Src, srcExt)
	if !ok {
		return fmt.Errorf("gart: edge %s: unknown source %d", el.Name, srcExt)
	}
	dst, ok := s.lookupLocked(el.Dst, dstExt)
	if !ok {
		return fmt.Errorf("gart: edge %s: unknown destination %d", el.Name, dstExt)
	}
	eid := graph.EID(len(s.eLabel))
	row := uint32(0)
	if cols := s.ecols[label]; len(cols) > 0 {
		row = uint32(cols[0].Len())
	}
	if err := column.AppendRow(s.ecols[label], props); err != nil {
		return fmt.Errorf("gart: edge %s: %w", el.Name, err)
	}
	s.eLabel = append(s.eLabel, label)
	s.eRow = append(s.eRow, row)
	ver := s.writeVersion()
	t := s.table()
	s.appendEntry(&t.slot(src).out, dst, eid, ver)
	s.appendEntry(&t.slot(dst).in, src, eid, ver)
	return nil
}

// nextSegmentSize is the capacity of the segment that follows tail (nil: the
// chain's first): geometric from firstSegmentSize, capped at the store's
// segment size.
func (s *Store) nextSegmentSize(tail *segment) int {
	size := firstSegmentSize
	if tail != nil {
		size = 2 * len(tail.entries)
	}
	if size > s.segSize {
		size = s.segSize
	}
	return size
}

// appendEntry publishes an edge entry at the chain tail. Called with mu held
// (single writer); readers observe the entry only after the count bump.
func (s *Store) appendEntry(a *adjacency, nbr graph.VID, eid graph.EID, ver uint64) {
	tail := a.tail
	if tail == nil || int(tail.count.Load()) == len(tail.entries) {
		seg := &segment{entries: make([]edgeEntry, s.nextSegmentSize(tail))}
		if tail == nil {
			a.head.Store(seg)
		} else {
			tail.next.Store(seg)
		}
		a.tail = seg
		tail = seg
	}
	idx := tail.count.Load()
	e := &tail.entries[idx]
	e.nbr = nbr
	e.eid = eid
	e.createVer = ver
	e.deleteVer.Store(liveVersion)
	tail.count.Store(idx + 1) // publish
}

// DeleteEdge tombstones all live (src,dst) edges of the label; the deletion
// becomes visible after Commit. It returns the number of edges removed.
func (s *Store) DeleteEdge(label graph.LabelID, srcExt, dstExt int64) (int, error) {
	el := s.schema.Edges[label]
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.lookupLocked(el.Src, srcExt)
	if !ok {
		return 0, fmt.Errorf("gart: delete %s: unknown source %d", el.Name, srcExt)
	}
	dst, ok := s.lookupLocked(el.Dst, dstExt)
	if !ok {
		return 0, fmt.Errorf("gart: delete %s: unknown destination %d", el.Name, dstExt)
	}
	ver := s.writeVersion()
	removed := 0
	t := s.table()
	for seg := t.slot(src).out.head.Load(); seg != nil; seg = seg.next.Load() {
		n := int(seg.count.Load())
		for i := 0; i < n; i++ {
			e := &seg.entries[i]
			if e.nbr == dst && s.eLabel[e.eid] == label && e.deleteVer.Load() == liveVersion {
				e.deleteVer.Store(ver)
				removed++
				tombstone(&t.slot(dst).in, e.eid, ver)
			}
		}
	}
	return removed, nil
}

// tombstone marks edge eid deleted in one chain.
func tombstone(a *adjacency, eid graph.EID, ver uint64) {
	for seg := a.head.Load(); seg != nil; seg = seg.next.Load() {
		n := int(seg.count.Load())
		for i := 0; i < n; i++ {
			e := &seg.entries[i]
			if e.eid == eid {
				e.deleteVer.Store(ver)
				return
			}
		}
	}
}

// SetVertexProp updates one vertex property; superseded values remain
// readable by older snapshots.
func (s *Store) SetVertexProp(label graph.LabelID, extID int64, p graph.PropID, val graph.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vid, ok := s.lookupLocked(label, extID)
	if !ok {
		return fmt.Errorf("gart: set prop: unknown vertex %s/%d", s.schema.VertexLabelName(label), extID)
	}
	meta := s.table().slot(vid).meta
	cols := s.vcols[meta.label]
	if int(p) < 0 || int(p) >= len(cols) {
		return fmt.Errorf("gart: set prop: prop %d out of range for %s", p, s.schema.VertexLabelName(label))
	}
	cell := propCell{v: vid, p: p}
	old, _ := cols[p].Get(int(meta.row))
	oldVer, has := s.vcurVer[cell]
	if !has {
		oldVer = meta.createVer
	}
	s.vhist[cell] = append(s.vhist[cell], propVersion{ver: oldVer, val: old})
	if err := cols[p].Set(int(meta.row), val); err != nil {
		return err
	}
	s.vcurVer[cell] = s.writeVersion()
	return nil
}

func (s *Store) lookupLocked(label graph.LabelID, ext int64) (graph.VID, bool) {
	if label != graph.AnyLabel {
		if int(label) < 0 || int(label) >= len(s.extLookup) {
			return graph.NilVID, false
		}
		v, ok := s.extLookup[label][ext]
		return v, ok
	}
	for _, m := range s.extLookup {
		if v, ok := m[ext]; ok {
			return v, true
		}
	}
	return graph.NilVID, false
}

// LoadBatch bulk-loads a batch and commits once.
func (s *Store) LoadBatch(b *graph.Batch) error {
	for _, v := range b.Vertices {
		if err := s.AddVertex(v.Label, v.ExtID, v.Props...); err != nil {
			return err
		}
	}
	for _, e := range b.Edges {
		if err := s.AddEdge(e.Label, e.Src, e.Dst, e.Props...); err != nil {
			return err
		}
	}
	s.Commit()
	return nil
}

// Snapshot implements grin.Versioned, clamping to the committed version.
func (s *Store) Snapshot(version uint64) grin.Graph {
	if rv := s.readVer.Load(); version > rv {
		version = rv
	}
	return &Snapshot{s: s, ver: version}
}

// Latest returns a snapshot at the newest committed version.
func (s *Store) Latest() *Snapshot {
	return &Snapshot{s: s, ver: s.readVer.Load()}
}

// NumVertices returns the committed vertex count at the newest version.
func (s *Store) NumVertices() int { return s.Latest().NumVertices() }

// NumEdges returns the live edge count at the newest version (O(V+E)).
func (s *Store) NumEdges() int { return s.Latest().NumEdges() }
