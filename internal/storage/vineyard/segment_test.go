package vineyard

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
)

// Social-graph labels for the segment tests. KNOWS and FOLLOWS share both
// endpoint labels, so one Person's in-adjacency interleaves them in source
// order — which SNB, where every in-label comes from its own source label,
// never does. TAGGED leaves both endpoints open; WROTE has a second vertex
// label at one end.
const (
	socPerson graph.LabelID = 0
	socPost   graph.LabelID = 1

	socKnows   graph.LabelID = 0 // Person -> Person
	socFollows graph.LabelID = 1 // Person -> Person
	socWrote   graph.LabelID = 2 // Person -> Post
	socTagged  graph.LabelID = 3 // any -> any
)

func socialBatch(seed int64) *graph.Batch {
	s := graph.NewSchema(
		[]graph.VertexLabel{{Name: "Person"}, {Name: "Post"}},
		[]graph.EdgeLabel{
			{Name: "KNOWS", Src: socPerson, Dst: socPerson, Props: []graph.PropDef{{Name: "since", Kind: graph.KindInt}}},
			{Name: "FOLLOWS", Src: socPerson, Dst: socPerson},
			{Name: "WROTE", Src: socPerson, Dst: socPost},
			{Name: "TAGGED", Src: graph.AnyLabel, Dst: graph.AnyLabel, Props: []graph.PropDef{{Name: "since", Kind: graph.KindInt}}},
		},
	)
	b := graph.NewBatch(s)
	const persons, posts = 40, 25
	for i := 0; i < persons; i++ {
		b.AddVertex(socPerson, int64(i))
	}
	for i := 0; i < posts; i++ {
		b.AddVertex(socPost, int64(1000+i)) // TAGGED resolves endpoints by ID alone
	}
	rng := rand.New(rand.NewSource(seed))
	person := func() int64 { return int64(rng.Intn(persons - 2)) } // the last two persons stay isolated
	anyone := func() int64 {
		if rng.Intn(2) == 0 {
			return person()
		}
		return int64(1000 + rng.Intn(posts))
	}
	for i := 0; i < 600; i++ {
		// Emission order interleaves the labels and repeats (src, label, dst)
		// triples with different properties.
		switch rng.Intn(4) {
		case 0:
			b.AddEdge(socKnows, person(), person(), graph.IntValue(int64(i)))
		case 1:
			b.AddEdge(socFollows, person(), person())
		case 2:
			b.AddEdge(socWrote, person(), int64(1000+rng.Intn(posts)))
		default:
			b.AddEdge(socTagged, anyone(), anyone(), graph.IntValue(int64(i)))
		}
	}
	return b
}

// TestLoadKeepsTheOrderingRule pins what Load promises about IDs against the
// rule stated as two sorts: vertices by (label, external ID); edges by
// (source, label, destination) with emission order breaking ties, edge IDs in
// that order; each in-adjacency by (label, edge ID). Every slot, label and
// property of the loaded store is compared with that reference.
func TestLoadKeepsTheOrderingRule(t *testing.T) {
	for name, b := range map[string]*graph.Batch{
		"shop":   shopBatch(),
		"social": socialBatch(3),
		"snb":    dataset.SNB(dataset.SNBOptions{Persons: 30, Seed: 2}),
	} {
		st, err := Load(b)
		if err != nil {
			t.Fatal(err)
		}
		vs := append([]graph.VertexRecord(nil), b.Vertices...)
		sort.SliceStable(vs, func(i, j int) bool {
			if vs[i].Label != vs[j].Label {
				return vs[i].Label < vs[j].Label
			}
			return vs[i].ExtID < vs[j].ExtID
		})
		for i, v := range vs {
			if st.ExternalID(graph.VID(i)) != v.ExtID || st.VertexLabel(graph.VID(i)) != v.Label {
				t.Fatalf("%s: vertex %d is %d/%d, the rule says %d/%d", name, i,
					st.VertexLabel(graph.VID(i)), st.ExternalID(graph.VID(i)), v.Label, v.ExtID)
			}
		}

		type edge struct {
			src, dst graph.VID
			rec      graph.EdgeRecord
		}
		es := make([]edge, len(b.Edges))
		for i, e := range b.Edges {
			el := b.Schema.Edges[e.Label]
			src, _ := st.LookupVertex(el.Src, e.Src)
			dst, _ := st.LookupVertex(el.Dst, e.Dst)
			es[i] = edge{src, dst, e}
		}
		sort.SliceStable(es, func(i, j int) bool {
			a, c := es[i], es[j]
			if a.src != c.src {
				return a.src < c.src
			}
			if a.rec.Label != c.rec.Label {
				return a.rec.Label < c.rec.Label
			}
			return a.dst < c.dst
		})
		ins := make([][]grin.Target, st.NumVertices())
		at := 0
		for v := 0; v < st.NumVertices(); v++ {
			adj := st.AdjSlice(graph.VID(v), graph.Out)
			for _, tg := range adj {
				e := es[at]
				if e.src != graph.VID(v) || tg.Nbr != e.dst || tg.Edge != graph.EID(at) || st.EdgeLabel(tg.Edge) != e.rec.Label {
					t.Fatalf("%s: out slot %d is %d-[%d]->%d edge %d, the rule says %d-[%d]->%d edge %d", name, at,
						v, st.EdgeLabel(tg.Edge), tg.Nbr, tg.Edge, e.src, e.rec.Label, e.dst, at)
				}
				for p, want := range e.rec.Props {
					if got, _ := st.EdgeProp(tg.Edge, graph.PropID(p)); got.Compare(want) != 0 {
						t.Fatalf("%s: edge %d prop %d is %v, the rule says %v", name, at, p, got, want)
					}
				}
				ins[e.dst] = append(ins[e.dst], grin.Target{Nbr: e.src, Edge: tg.Edge})
				at++
			}
		}
		if at != len(es) {
			t.Fatalf("%s: %d out slots, %d edges", name, at, len(es))
		}
		for v, want := range ins {
			sort.SliceStable(want, func(i, j int) bool { return st.EdgeLabel(want[i].Edge) < st.EdgeLabel(want[j].Edge) })
			if got := st.AdjSlice(graph.VID(v), graph.In); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: in-adjacency of %d is %v, the rule says %v", name, v, got, want)
			}
		}
	}
}

// TestLabelAdjacencyIsTheFilteredExpansion is the trait's contract on a graph
// that can break it: for every vertex × direction × edge label (and AnyLabel,
// and labels the schema forbids at that vertex, does not know, or that are
// negative), ExpandLabelBatch is ExpandBatch filtered by EdgeLabel in the same
// order and LabelDegrees the length of each range — one vertex at a time and
// as one frontier that mixes both vertex labels.
func TestLabelAdjacencyIsTheFilteredExpansion(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		st, err := Load(socialBatch(seed))
		if err != nil {
			t.Fatal(err)
		}
		all := make([]graph.VID, 0, 2*st.NumVertices())
		for v := st.NumVertices() - 1; v >= 0; v-- { // descending: labels alternate at the seam, twice
			all = append(all, graph.VID(v))
		}
		for v := 0; v < st.NumVertices(); v += 3 {
			all = append(all, graph.VID(v), graph.VID(v))
		}
		frontiers := [][]graph.VID{all, {}}
		for v := 0; v < st.NumVertices(); v++ {
			frontiers = append(frontiers, []graph.VID{graph.VID(v)})
		}
		interleaved := false
		var full, got grin.AdjBatch
		for _, dir := range []graph.Direction{graph.Out, graph.In, graph.Both} {
			for _, elabel := range []graph.LabelID{graph.AnyLabel, socKnows, socFollows, socWrote, socTagged, 4, 99, -7} {
				for _, f := range frontiers {
					st.ExpandBatch(f, dir, &full)
					var want grin.AdjBatch
					want.Begin(len(f))
					for i := range f {
						lo, hi := full.Range(i)
						last := graph.AnyLabel
						for s := lo; s < hi; s++ {
							l := st.EdgeLabel(full.Edges[s])
							if dir == graph.In && l < last {
								t.Fatalf("in-adjacency of %d is not grouped by label", f[i])
							}
							last = l
							if elabel == graph.AnyLabel || l == elabel {
								want.Nbrs = append(want.Nbrs, full.Nbrs[s])
								want.Edges = append(want.Edges, full.Edges[s])
							}
						}
						want.EndVertex()
					}
					if !st.ExpandLabelBatch(f, dir, elabel, &got) {
						t.Fatal("vineyard declined ExpandLabelBatch")
					}
					if !reflect.DeepEqual(got.Off, want.Off) || !slices.Equal(got.Nbrs, want.Nbrs) || !slices.Equal(got.Edges, want.Edges) {
						t.Fatalf("seed %d dir %s label %d frontier %v:\n got %v %v %v\nwant %v %v %v", seed, dir, elabel, f,
							got.Off, got.Nbrs, got.Edges, want.Off, want.Nbrs, want.Edges)
					}
					degs := make([]int, len(f))
					if !st.LabelDegrees(f, dir, elabel, degs) {
						t.Fatal("vineyard declined LabelDegrees")
					}
					for i := range f {
						if lo, hi := want.Range(i); degs[i] != hi-lo {
							t.Fatalf("seed %d dir %s label %d vertex %d: LabelDegrees %d, range holds %d", seed, dir, elabel, f[i], degs[i], hi-lo)
						}
					}
				}
			}
		}
		// The graph must be one SNB cannot be: some in-adjacency whose source
		// order interleaves two labels.
		for v := 0; v < st.NumVertices() && !interleaved; v++ {
			adj := st.AdjSlice(graph.VID(v), graph.In)
			for i := 1; i < len(adj); i++ {
				if st.EdgeLabel(adj[i].Edge) != st.EdgeLabel(adj[i-1].Edge) && adj[i].Nbr < adj[i-1].Nbr {
					interleaved = true
				}
			}
		}
		if !interleaved {
			t.Fatalf("seed %d: no in-adjacency interleaves labels in source order; the test graph proves nothing", seed)
		}
	}
}

// TestBoundaryTablesStaySmall: the label boundaries are one column per edge
// label the schema allows at an endpoint beyond the first — a few bytes per
// vertex, not a vertices × labels table.
func TestBoundaryTablesStaySmall(t *testing.T) {
	st, err := Load(dataset.SNB(dataset.SNBOptions{Persons: 300, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	bytes := 0
	for _, dir := range st.segs {
		for _, sg := range dir {
			for _, col := range sg.bound {
				bytes += 4 * len(col)
			}
		}
	}
	dense := 2 * 4 * st.NumVertices() * st.schema.NumEdgeLabels()
	if bytes == 0 || bytes*5 > dense {
		t.Fatalf("boundary tables hold %d bytes; a dense table would hold %d", bytes, dense)
	}
}
