package graphar

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/grin"
)

// Store serves GRIN reads directly from an archive directory: chunks are
// fetched from disk on demand and held in a bounded cache. Vertices of each
// label occupy a contiguous internal ID range (the files are sorted by
// external ID), edge IDs are per-label row numbers offset by a label base.
// This is the "GraphAr as a direct GRIN data source" configuration of
// Fig 7(a): correct on every workload, slowest backend by design.
//
// The batched traits deliberately stay on the generic helpers: every access
// may fault a chunk in from disk, so a native batch path would still pay
// per-element cache lookups. The three gaps are declared, with this reason,
// in internal/core's declaredGaps, which README's capability matrix points
// its "fallback" cells at.
type Store struct {
	dir    string
	meta   *Meta
	schema *graph.Schema

	labelStart []graph.VID // per vertex label, plus total
	edgeBase   []graph.EID // per edge label, plus total

	mu    sync.Mutex
	files map[string]*diskCol
	// Bounded decoded-chunk caches; wiped when full.
	intCache   map[chunkKey][]int64
	valCache   map[chunkKey][]graph.Value
	cacheLimit int
}

type chunkKey struct {
	file  string
	chunk int
}

var (
	_ grin.Graph          = (*Store)(nil)
	_ grin.PropertyReader = (*Store)(nil)
	_ grin.WeightReader   = (*Store)(nil)
	_ grin.Index          = (*Store)(nil)
	_ grin.PredicatePush  = (*Store)(nil)
	_ grin.Named          = (*Store)(nil)
)

// Open prepares an archive directory for direct GRIN access.
func Open(dir string) (*Store, error) {
	m, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	schema, err := m.SchemaOf()
	if err != nil {
		return nil, err
	}
	st := &Store{
		dir:        dir,
		meta:       m,
		schema:     schema,
		files:      make(map[string]*diskCol),
		intCache:   make(map[chunkKey][]int64),
		valCache:   make(map[chunkKey][]graph.Value),
		cacheLimit: 256,
	}
	st.labelStart = make([]graph.VID, len(m.VertexLabels)+1)
	for l, vl := range m.VertexLabels {
		st.labelStart[l+1] = st.labelStart[l] + graph.VID(vl.Count)
	}
	st.edgeBase = make([]graph.EID, len(m.EdgeLabels)+1)
	for l, el := range m.EdgeLabels {
		st.edgeBase[l+1] = st.edgeBase[l] + graph.EID(el.Count)
	}
	return st, nil
}

// Close releases open file handles.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for _, dc := range st.files {
		if err := dc.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.files = make(map[string]*diskCol)
	return first
}

// BackendName implements grin.Named.
func (st *Store) BackendName() string { return "graphar" }

// NumVertices implements grin.Graph.
func (st *Store) NumVertices() int { return int(st.labelStart[len(st.labelStart)-1]) }

// NumEdges implements grin.Graph.
func (st *Store) NumEdges() int { return int(st.edgeBase[len(st.edgeBase)-1]) }

// Schema implements grin.PropertyReader.
func (st *Store) Schema() *graph.Schema { return st.schema }

// VertexLabel implements grin.PropertyReader.
func (st *Store) VertexLabel(v graph.VID) graph.LabelID {
	for l := 1; l < len(st.labelStart); l++ {
		if v < st.labelStart[l] {
			return graph.LabelID(l - 1)
		}
	}
	return graph.LabelID(len(st.labelStart) - 2)
}

// LabelRange implements grin.Index.
func (st *Store) LabelRange(label graph.LabelID) (graph.VID, graph.VID, bool) {
	if label == graph.AnyLabel {
		return 0, graph.VID(st.NumVertices()), true
	}
	if int(label) < 0 || int(label) >= len(st.meta.VertexLabels) {
		return 0, 0, false
	}
	return st.labelStart[label], st.labelStart[label+1], true
}

// ExternalID implements grin.Index (one chunk fetch).
func (st *Store) ExternalID(v graph.VID) int64 {
	l := st.VertexLabel(v)
	row := int(v - st.labelStart[l])
	vals, err := st.intRows(vertexExtFile(int(l)), row, row+1)
	if err != nil || len(vals) == 0 {
		return -1
	}
	return vals[0]
}

// LookupVertex implements grin.Index via chunk-skip statistics plus an
// in-chunk binary search (the ext column is sorted).
func (st *Store) LookupVertex(label graph.LabelID, ext int64) (graph.VID, bool) {
	if label == graph.AnyLabel {
		for l := 0; l < len(st.meta.VertexLabels); l++ {
			if v, ok := st.LookupVertex(graph.LabelID(l), ext); ok {
				return v, true
			}
		}
		return graph.NilVID, false
	}
	if int(label) < 0 || int(label) >= len(st.meta.VertexLabels) {
		return graph.NilVID, false
	}
	dc, err := st.col(vertexExtFile(int(label)))
	if err != nil || dc.hdr.totalRows == 0 {
		return graph.NilVID, false
	}
	c := chunkForKey(dc.hdr.firstKeys, ext)
	if c < 0 {
		return graph.NilVID, false
	}
	vals, err := st.intChunk(dc, c)
	if err != nil {
		return graph.NilVID, false
	}
	i := sort.Search(len(vals), func(i int) bool { return vals[i] >= ext })
	if i < len(vals) && vals[i] == ext {
		return st.labelStart[label] + graph.VID(c*dc.hdr.chunkSize+i), true
	}
	return graph.NilVID, false
}

// chunkForKey picks the last chunk whose firstKey <= key on a sorted column
// (for point lookups of unique keys).
func chunkForKey(firstKeys []int64, key int64) int {
	i := sort.Search(len(firstKeys), func(i int) bool { return firstKeys[i] > key })
	return i - 1
}

// chunkForRunStart picks the earliest chunk that can contain key when keys
// repeat: a run of equal keys may begin in the chunk before the first chunk
// whose firstKey equals the key.
func chunkForRunStart(firstKeys []int64, key int64) int {
	i := sort.Search(len(firstKeys), func(i int) bool { return firstKeys[i] >= key })
	if i > 0 {
		i--
	}
	return i
}

// VertexProp implements grin.PropertyReader (one chunk fetch).
func (st *Store) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	l := st.VertexLabel(v)
	if int(p) < 0 || int(p) >= len(st.meta.VertexLabels[l].Props) {
		return graph.NullValue, false
	}
	kind, err := kindFromName(st.meta.VertexLabels[l].Props[p].Kind)
	if err != nil {
		return graph.NullValue, false
	}
	row := int(v - st.labelStart[l])
	val, err := st.valueRow(vertexPropFile(int(l), int(p)), kind, row)
	if err != nil || val.IsNull() {
		return graph.NullValue, false
	}
	return val, true
}

// edgeLabelOf locates the label owning an EID and its in-label row.
func (st *Store) edgeLabelOf(e graph.EID) (graph.LabelID, int) {
	for l := 1; l < len(st.edgeBase); l++ {
		if e < st.edgeBase[l] {
			return graph.LabelID(l - 1), int(e - st.edgeBase[l-1])
		}
	}
	return graph.AnyLabel, 0
}

// EdgeLabel implements grin.PropertyReader.
func (st *Store) EdgeLabel(e graph.EID) graph.LabelID {
	l, _ := st.edgeLabelOf(e)
	return l
}

// EdgeProp implements grin.PropertyReader.
func (st *Store) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	l, row := st.edgeLabelOf(e)
	if l == graph.AnyLabel || int(p) < 0 || int(p) >= len(st.meta.EdgeLabels[l].Props) {
		return graph.NullValue, false
	}
	kind, err := kindFromName(st.meta.EdgeLabels[l].Props[p].Kind)
	if err != nil {
		return graph.NullValue, false
	}
	val, err := st.valueRow(edgePropFile(int(l), int(p)), kind, row)
	if err != nil || val.IsNull() {
		return graph.NullValue, false
	}
	return val, true
}

// EdgeWeight implements grin.WeightReader via the "weight" float property.
func (st *Store) EdgeWeight(e graph.EID) float64 {
	l, _ := st.edgeLabelOf(e)
	if l == graph.AnyLabel {
		return 1.0
	}
	p := st.schema.EdgePropID(l, "weight")
	if p == graph.NoProp {
		return 1.0
	}
	v, ok := st.EdgeProp(e, p)
	if !ok {
		return 1.0
	}
	return v.Float()
}

// Degree implements grin.Graph.
func (st *Store) Degree(v graph.VID, dir graph.Direction) int {
	d := 0
	st.Neighbors(v, dir, func(graph.VID, graph.EID) bool { d++; return true })
	return d
}

// Neighbors implements grin.Graph by scanning only the chunks whose key
// range covers the vertex's external ID — the storage-level neighbor
// retrieval the paper credits GraphAr with.
func (st *Store) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	if dir == graph.Both {
		stop := false
		st.Neighbors(v, graph.Out, func(n graph.VID, e graph.EID) bool {
			if !yield(n, e) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
		st.Neighbors(v, graph.In, yield)
		return
	}
	vl := st.VertexLabel(v)
	ext := st.ExternalID(v)
	for l, el := range st.meta.EdgeLabels {
		elDef := st.schema.Edges[l]
		if el.Count == 0 {
			continue
		}
		if dir == graph.Out {
			if elDef.Src != vl {
				continue
			}
			if !st.scanEdgeRuns(l, ext, elDef.Dst, edgeSrcFile(l), edgeDstFile(l), "", yield) {
				return
			}
		} else {
			if elDef.Dst != vl {
				continue
			}
			if !st.scanEdgeRuns(l, ext, elDef.Src, edgeRevDstFile(l), edgeRevSrcFile(l), edgeRevRowFile(l), yield) {
				return
			}
		}
	}
}

// scanEdgeRuns walks the run of rows whose sorted key column equals ext,
// resolving the other endpoint to a VID and the row to an EID. rowFile, when
// set, maps reverse rows to forward rows (in-direction).
func (st *Store) scanEdgeRuns(l int, ext int64, otherLabel graph.LabelID, keyFile, otherFile, rowFile string, yield func(graph.VID, graph.EID) bool) bool {
	dc, err := st.col(keyFile)
	if err != nil || dc.hdr.totalRows == 0 {
		return true
	}
	for c := chunkForRunStart(dc.hdr.firstKeys, ext); c < dc.hdr.numChunks(); c++ {
		keys, err := st.intChunk(dc, c)
		if err != nil {
			return true
		}
		if len(keys) == 0 || keys[0] > ext {
			return true
		}
		lo := sort.Search(len(keys), func(i int) bool { return keys[i] >= ext })
		if lo == len(keys) {
			continue // run may start in a later chunk only if firstKey <= ext there; loop guards
		}
		if keys[lo] != ext {
			return true
		}
		hi := lo
		for hi < len(keys) && keys[hi] == ext {
			hi++
		}
		base := c * dc.hdr.chunkSize
		others, err := st.intRows(otherFile, base+lo, base+hi)
		if err != nil {
			return true
		}
		var rows []int64
		if rowFile != "" {
			rows, err = st.intRows(rowFile, base+lo, base+hi)
			if err != nil {
				return true
			}
		}
		for i, other := range others {
			nbr, ok := st.LookupVertex(otherLabel, other)
			if !ok {
				continue
			}
			fwdRow := base + lo + i
			if rows != nil {
				fwdRow = int(rows[i])
			}
			if !yield(nbr, st.edgeBase[l]+graph.EID(fwdRow)) {
				return false
			}
		}
		if hi < len(keys) {
			return true // run ended within this chunk
		}
	}
	return true
}

// ScanVertices implements grin.PredicatePush.
func (st *Store) ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	lo, hi, ok := st.LabelRange(label)
	if !ok {
		return
	}
	for v := lo; v < hi; v++ {
		if pred != nil && !pred(v) {
			continue
		}
		if !yield(v) {
			return
		}
	}
}

// ---- chunk fetch machinery ----

type diskCol struct {
	f         *os.File
	hdr       *colFile
	dataStart int64
}

func (st *Store) col(name string) (*diskCol, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if dc, ok := st.files[name]; ok {
		return dc, nil
	}
	path := filepath.Join(st.dir, name)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Parse the header from an incrementally grown prefix.
	bufSize := 4096
	var hdr *colFile
	var hdrLen int
	for {
		buf := make([]byte, bufSize)
		n, _ := f.ReadAt(buf, 0)
		hdr, hdrLen, err = parseColHeader(buf[:n], path)
		if err == errShortHeader && n == bufSize {
			bufSize *= 4
			continue
		}
		if err != nil {
			f.Close()
			if err == errShortHeader {
				return nil, fmt.Errorf("graphar: %s: truncated header", path)
			}
			return nil, err
		}
		break
	}
	dc := &diskCol{f: f, hdr: hdr, dataStart: int64(hdrLen)}
	st.files[name] = dc
	return dc, nil
}

func (st *Store) readChunkBytes(dc *diskCol, c int) ([]byte, error) {
	buf := make([]byte, dc.hdr.lengths[c])
	_, err := dc.f.ReadAt(buf, dc.dataStart+dc.hdr.offsets[c])
	return buf, err
}

func (st *Store) intChunk(dc *diskCol, c int) ([]int64, error) {
	key := chunkKey{file: dc.f.Name(), chunk: c}
	st.mu.Lock()
	if vals, ok := st.intCache[key]; ok {
		st.mu.Unlock()
		return vals, nil
	}
	st.mu.Unlock()
	payload, err := st.readChunkBytes(dc, c)
	if err != nil {
		return nil, err
	}
	vals, err := decodeInts(payload, dc.hdr.chunkRows(c))
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if len(st.intCache) >= st.cacheLimit {
		st.intCache = make(map[chunkKey][]int64)
	}
	st.intCache[key] = vals
	st.mu.Unlock()
	return vals, nil
}

// intRows fetches rows [lo, hi) of a structural int column.
func (st *Store) intRows(name string, lo, hi int) ([]int64, error) {
	dc, err := st.col(name)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, hi-lo)
	for row := lo; row < hi; {
		c := row / dc.hdr.chunkSize
		vals, err := st.intChunk(dc, c)
		if err != nil {
			return nil, err
		}
		start := row - c*dc.hdr.chunkSize
		end := len(vals)
		if c*dc.hdr.chunkSize+end > hi {
			end = hi - c*dc.hdr.chunkSize
		}
		out = append(out, vals[start:end]...)
		row = c*dc.hdr.chunkSize + end
	}
	return out, nil
}

func (st *Store) valueRow(name string, kind graph.Kind, row int) (graph.Value, error) {
	dc, err := st.col(name)
	if err != nil {
		return graph.NullValue, err
	}
	if row < 0 || row >= dc.hdr.totalRows {
		return graph.NullValue, fmt.Errorf("graphar: row %d out of range", row)
	}
	c := row / dc.hdr.chunkSize
	key := chunkKey{file: dc.f.Name(), chunk: c}
	st.mu.Lock()
	vals, ok := st.valCache[key]
	st.mu.Unlock()
	if !ok {
		payload, err := st.readChunkBytes(dc, c)
		if err != nil {
			return graph.NullValue, err
		}
		vals, err = decodeValueChunk(kind, payload, dc.hdr.chunkRows(c))
		if err != nil {
			return graph.NullValue, err
		}
		st.mu.Lock()
		if len(st.valCache) >= st.cacheLimit {
			st.valCache = make(map[chunkKey][]graph.Value)
		}
		st.valCache[key] = vals
		st.mu.Unlock()
	}
	return vals[row-c*dc.hdr.chunkSize], nil
}
