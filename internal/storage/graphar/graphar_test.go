package graphar

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
)

func arSchema() *graph.Schema {
	return graph.NewSchema(
		[]graph.VertexLabel{
			{Name: "Person", Props: []graph.PropDef{
				{Name: "name", Kind: graph.KindString},
				{Name: "age", Kind: graph.KindInt},
				{Name: "active", Kind: graph.KindBool},
			}},
			{Name: "Post", Props: []graph.PropDef{{Name: "score", Kind: graph.KindFloat}}},
		},
		[]graph.EdgeLabel{
			{Name: "Knows", Src: 0, Dst: 0, Props: []graph.PropDef{{Name: "weight", Kind: graph.KindFloat}}},
			{Name: "Likes", Src: 0, Dst: 1},
		},
	)
}

// arBatch builds a deterministic random batch over the test schema.
func arBatch(nPersons, nPosts, nKnows, nLikes int, seed int64) *graph.Batch {
	r := rand.New(rand.NewSource(seed))
	s := arSchema()
	b := graph.NewBatch(s)
	for i := 0; i < nPersons; i++ {
		name := graph.StringValue("p" + string(rune('a'+i%26)))
		age := graph.IntValue(int64(20 + r.Intn(50)))
		if i%7 == 0 {
			age = graph.NullValue // exercise null bitmaps
		}
		b.AddVertex(0, int64(i*2), name, age, graph.BoolValue(i%2 == 0))
	}
	for i := 0; i < nPosts; i++ {
		b.AddVertex(1, int64(i), graph.FloatValue(r.Float64()*10))
	}
	for i := 0; i < nKnows; i++ {
		b.AddEdge(0, int64(r.Intn(nPersons)*2), int64(r.Intn(nPersons)*2), graph.FloatValue(r.Float64()))
	}
	for i := 0; i < nLikes; i++ {
		b.AddEdge(1, int64(r.Intn(nPersons)*2), int64(r.Intn(nPosts)))
	}
	return b
}

// canon produces an order-independent canonical form of a batch.
func canon(b *graph.Batch) ([]graph.VertexRecord, []graph.EdgeRecord) {
	vs := append([]graph.VertexRecord(nil), b.Vertices...)
	es := append([]graph.EdgeRecord(nil), b.Edges...)
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Label != vs[j].Label {
			return vs[i].Label < vs[j].Label
		}
		return vs[i].ExtID < vs[j].ExtID
	})
	sort.Slice(es, func(i, j int) bool {
		if es[i].Label != es[j].Label {
			return es[i].Label < es[j].Label
		}
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		if es[i].Dst != es[j].Dst {
			return es[i].Dst < es[j].Dst
		}
		// Parallel edges: order by first prop for determinism.
		if len(es[i].Props) > 0 {
			return es[i].Props[0].Compare(es[j].Props[0]) < 0
		}
		return false
	})
	return vs, es
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := arBatch(40, 15, 120, 60, 7)
	if err := Write(dir, b, Options{ChunkSize: 16}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBatch(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantV, wantE := canon(b)
	gotV, gotE := canon(got)
	if !reflect.DeepEqual(wantV, gotV) {
		t.Fatalf("vertices differ:\nwant %v\ngot  %v", wantV[:3], gotV[:3])
	}
	if !reflect.DeepEqual(wantE, gotE) {
		t.Fatal("edges differ after round trip")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded batch invalid: %v", err)
	}
}

func TestMetaErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadMeta(dir); err == nil {
		t.Fatal("missing meta accepted")
	}
	os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{bad"), 0o644)
	if _, err := ReadMeta(dir); err == nil {
		t.Fatal("corrupt meta accepted")
	}
	os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"format_version":9,"chunk_size":8}`), 0o644)
	if _, err := ReadMeta(dir); err == nil {
		t.Fatal("wrong version accepted")
	}
	os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"format_version":1,"chunk_size":0}`), 0o644)
	if _, err := ReadMeta(dir); err == nil {
		t.Fatal("zero chunk size accepted")
	}
}

func TestCorruptColumnFile(t *testing.T) {
	dir := t.TempDir()
	b := arBatch(10, 5, 20, 10, 1)
	if err := Write(dir, b, Options{ChunkSize: 4}); err != nil {
		t.Fatal(err)
	}
	// Truncate one column file: load must fail, not crash.
	path := filepath.Join(dir, vertexExtFile(0))
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	if _, err := LoadBatch(dir); err == nil {
		t.Fatal("truncated column accepted")
	}
	// Bad magic.
	os.WriteFile(path, []byte("XXXX???"), 0o644)
	if _, err := LoadBatch(dir); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestLoadBatchReportsFirstFailingColumn corrupts two column files: the
// first in task order fails only at its last chunk, after a long decode,
// and a later one fails at once. LoadBatch must report the first one's
// error on every run, not whichever failure finished first.
func TestLoadBatchReportsFirstFailingColumn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	s := graph.NewSchema(
		[]graph.VertexLabel{{Name: "Big"}, {Name: "Small", Props: []graph.PropDef{{Name: "x", Kind: graph.KindInt}}}},
		[]graph.EdgeLabel{{Name: "Link", Src: 1, Dst: 1}},
	)
	b := graph.NewBatch(s)
	for i := 0; i < 200_000; i++ {
		b.AddVertex(0, int64(i))
	}
	for i := 0; i < 10; i++ {
		b.AddVertex(1, int64(i), graph.IntValue(int64(i)))
		b.AddEdge(0, int64(i), int64((i+1)%10))
	}
	dir := t.TempDir()
	if err := Write(dir, b, Options{ChunkSize: 4096}); err != nil {
		t.Fatal(err)
	}
	late, early := filepath.Join(dir, vertexExtFile(0)), filepath.Join(dir, vertexPropFile(1, 0))
	if err := os.WriteFile(early, []byte("XXXX???"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBatch(dir); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic in %s: got %v", early, err)
	}
	data, err := os.ReadFile(late)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] |= 0x80 // the last varint now runs off the payload
	if err := os.WriteFile(late, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 50; run++ {
		_, err := LoadBatch(dir)
		if err == nil || !strings.Contains(err.Error(), vertexExtFile(0)+": graphar: truncated int chunk") {
			t.Fatalf("run %d: got %v, want %s's truncated chunk", run, err, vertexExtFile(0))
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := arBatch(25, 10, 60, 30, 3)
	if err := WriteCSV(dir, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(dir, arSchema())
	if err != nil {
		t.Fatal(err)
	}
	wantV, wantE := canon(b)
	gotV, gotE := canon(got)
	if !reflect.DeepEqual(wantV, gotV) {
		t.Fatal("CSV vertices differ")
	}
	if !reflect.DeepEqual(wantE, gotE) {
		t.Fatal("CSV edges differ")
	}
}

func openStore(t *testing.T, b *graph.Batch, chunk int) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := Write(dir, b, Options{ChunkSize: chunk}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStoreBasics(t *testing.T) {
	b := arBatch(30, 10, 80, 40, 11)
	st := openStore(t, b, 8)
	if st.BackendName() != "graphar" {
		t.Fatal("name")
	}
	if st.NumVertices() != 40 || st.NumEdges() != 120 {
		t.Fatalf("sizes %d %d", st.NumVertices(), st.NumEdges())
	}
	lo, hi, ok := st.LabelRange(0)
	if !ok || lo != 0 || hi != 30 {
		t.Fatalf("person range [%d,%d)", lo, hi)
	}
	lo, hi, _ = st.LabelRange(1)
	if lo != 30 || hi != 40 {
		t.Fatalf("post range [%d,%d)", lo, hi)
	}
	// Lookup + ExternalID round trip for every person.
	for i := 0; i < 30; i++ {
		ext := int64(i * 2)
		v, ok := st.LookupVertex(0, ext)
		if !ok {
			t.Fatalf("person %d missing", ext)
		}
		if st.ExternalID(v) != ext {
			t.Fatalf("ext mismatch for %d", ext)
		}
		if st.VertexLabel(v) != 0 {
			t.Fatal("label mismatch")
		}
	}
	if _, ok := st.LookupVertex(0, 999); ok {
		t.Fatal("phantom lookup")
	}
	if _, ok := st.LookupVertex(0, 1); ok { // odd ids don't exist
		t.Fatal("phantom odd lookup")
	}
}

// TestStoreMatchesVineyardSemantics cross-checks lazy disk reads against the
// in-memory reference: same batch, same adjacency and properties.
func TestStoreMatchesBatch(t *testing.T) {
	b := arBatch(20, 8, 60, 30, 13)
	st := openStore(t, b, 4)

	// Reference adjacency from the raw batch (external IDs).
	outRef := map[int64][]int64{} // person ext -> sorted knows-dst ext
	inRef := map[int64][]int64{}
	for _, e := range b.Edges {
		if e.Label != 0 {
			continue
		}
		outRef[e.Src] = append(outRef[e.Src], e.Dst)
		inRef[e.Dst] = append(inRef[e.Dst], e.Src)
	}
	for i := 0; i < 20; i++ {
		ext := int64(i * 2)
		v, _ := st.LookupVertex(0, ext)
		var gotOut, gotIn []int64
		st.Neighbors(v, graph.Out, func(n graph.VID, e graph.EID) bool {
			if st.EdgeLabel(e) == 0 {
				gotOut = append(gotOut, st.ExternalID(n))
			}
			return true
		})
		st.Neighbors(v, graph.In, func(n graph.VID, e graph.EID) bool {
			if st.EdgeLabel(e) == 0 {
				gotIn = append(gotIn, st.ExternalID(n))
			}
			return true
		})
		sort.Slice(gotOut, func(a, b int) bool { return gotOut[a] < gotOut[b] })
		sort.Slice(gotIn, func(a, b int) bool { return gotIn[a] < gotIn[b] })
		wantOut := append([]int64(nil), outRef[ext]...)
		wantIn := append([]int64(nil), inRef[ext]...)
		sort.Slice(wantOut, func(a, b int) bool { return wantOut[a] < wantOut[b] })
		sort.Slice(wantIn, func(a, b int) bool { return wantIn[a] < wantIn[b] })
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("out(%d): got %v want %v", ext, gotOut, wantOut)
		}
		if !reflect.DeepEqual(gotIn, wantIn) {
			t.Fatalf("in(%d): got %v want %v", ext, gotIn, wantIn)
		}
	}
}

func TestStorePropsAndWeights(t *testing.T) {
	b := arBatch(20, 8, 60, 30, 17)
	st := openStore(t, b, 4)

	// Vertex props, including nulls (every 7th person's age is null).
	for i := 0; i < 20; i++ {
		v, _ := st.LookupVertex(0, int64(i*2))
		age, ok := st.VertexProp(v, 1)
		if i%7 == 0 {
			if ok {
				t.Fatalf("person %d: null age resolved to %v", i, age)
			}
		} else if !ok || age.K != graph.KindInt {
			t.Fatalf("person %d: age missing", i)
		}
		if active, ok := st.VertexProp(v, 2); !ok || active.Bool() != (i%2 == 0) {
			t.Fatalf("person %d: active wrong", i)
		}
	}

	// Edge weights round-trip through the weight trait: in-edge EIDs must
	// reference the same forward rows, so weights agree across directions.
	seen := map[graph.EID]float64{}
	for i := 0; i < 20; i++ {
		v, _ := st.LookupVertex(0, int64(i*2))
		st.Neighbors(v, graph.Out, func(_ graph.VID, e graph.EID) bool {
			if st.EdgeLabel(e) == 0 {
				seen[e] = st.EdgeWeight(e)
			}
			return true
		})
	}
	checked := 0
	for i := 0; i < 20; i++ {
		v, _ := st.LookupVertex(0, int64(i*2))
		st.Neighbors(v, graph.In, func(_ graph.VID, e graph.EID) bool {
			if w, ok := seen[e]; ok {
				if st.EdgeWeight(e) != w {
					t.Fatalf("weight mismatch across directions for eid %d", e)
				}
				checked++
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no cross-direction edges checked")
	}
	// Unweighted label (Likes) defaults to 1.
	for e := graph.EID(60); e < 90; e++ {
		if st.EdgeLabel(e) != 1 {
			continue
		}
		if st.EdgeWeight(e) != 1.0 {
			t.Fatal("Likes weight should be 1")
		}
	}
}

func TestStoreTraits(t *testing.T) {
	b := arBatch(5, 2, 6, 3, 19)
	st := openStore(t, b, 4)
	for _, tr := range []grin.Trait{grin.TraitTopology, grin.TraitProperty, grin.TraitWeight, grin.TraitIndex, grin.TraitPredicate} {
		if !grin.Has(st, tr) {
			t.Errorf("graphar should provide %v", tr)
		}
	}
	// No zero-copy arrays from disk.
	if grin.Has(st, grin.TraitAdjArray) {
		t.Error("graphar should not claim the array trait")
	}
}

func TestStoreScanVertices(t *testing.T) {
	b := arBatch(10, 4, 12, 6, 23)
	st := openStore(t, b, 4)
	n := 0
	st.ScanVertices(1, nil, func(v graph.VID) bool {
		if st.VertexLabel(v) != 1 {
			t.Fatal("wrong label in scan")
		}
		n++
		return true
	})
	if n != 4 {
		t.Fatalf("post scan %d", n)
	}
}
