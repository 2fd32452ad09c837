package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/grin"
	"repro/internal/storage/csr"
	"repro/internal/storage/gart"
	"repro/internal/storage/graphar"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/vineyard"
)

func TestBuildPresets(t *testing.T) {
	for name, sel := range Presets {
		plan, err := Build(sel)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if plan.Store == "" {
			t.Fatalf("preset %s: no store", name)
		}
		m := plan.Manifest()
		if !strings.Contains(m, plan.Store) {
			t.Fatalf("preset %s: manifest missing store", name)
		}
	}
}

func TestBuildClosesDependencies(t *testing.T) {
	plan, err := Build([]string{"cypher", "gaia", "vineyard"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range plan.Components {
		if c == "compiler" {
			found = true
		}
	}
	if !found {
		t.Fatal("dependency closure missed the compiler")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]string{"nonsense"}); err == nil {
		t.Fatal("unknown component accepted")
	}
	if _, err := Build([]string{"gaia"}); err == nil {
		t.Fatal("store-less plan accepted")
	}
	if _, err := Build([]string{"gaia", "vineyard", "gart"}); err == nil {
		t.Fatal("two stores accepted")
	}
	// grape-gpu needs the array trait, which GART does not provide.
	if _, err := Build([]string{"grape-gpu", "gart"}); err == nil {
		t.Fatal("trait mismatch accepted")
	}
	if _, err := Build([]string{"grape-gpu", "vineyard"}); err != nil {
		t.Fatalf("valid gpu plan rejected: %v", err)
	}
}

// TestStoreTraitsMatchImplementations pins the capability table against the
// runtime type assertions: every row must equal grin.Traits of a live
// instance exactly, in the configuration the engines use — gart through its
// Snapshot view, plus the Versioned trait of the Store handle that mints it.
func TestStoreTraitsMatchImplementations(t *testing.T) {
	b := dataset.SNB(dataset.SNBOptions{Persons: 40, Seed: 3})
	vy, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := graphar.Write(dir, b, graphar.Options{ChunkSize: 64}); err != nil {
		t.Fatal(err)
	}
	ga, err := graphar.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ga.Close() })
	cg, err := csr.Build(4, []csr.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
		csr.Options{Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	live := map[string][]grin.Trait{
		"vineyard":  grin.Traits(vy),
		"gart":      grin.Traits(gs.Latest()),
		"graphar":   grin.Traits(ga),
		"csr":       grin.Traits(cg),
		"livegraph": grin.Traits(livegraph.NewStore(4)),
	}
	if _, ok := interface{}(gs).(grin.Versioned); ok {
		live["gart"] = append(live["gart"], grin.TraitVersioned)
	}
	if len(live) != len(storeTraits) {
		t.Fatalf("table lists %d backends, test instantiates %d", len(storeTraits), len(live))
	}
	for name, want := range live {
		got := storeTraits[name]
		for _, tr := range want {
			if !slices.Contains(got, tr) {
				t.Errorf("%s: live backend has trait %v missing from the table", name, tr)
			}
		}
		for _, tr := range got {
			if !slices.Contains(want, tr) {
				t.Errorf("%s: table claims trait %v the live backend lacks", name, tr)
			}
		}
	}
}

// declaredGaps lists the batched traits a backend leaves to grin's generic
// fallbacks although it has the scalar traits they batch, each with its
// reason. README's capability matrix points its "fallback" cells here.
var declaredGaps = map[string]map[grin.Trait]string{
	"graphar": {
		grin.TraitBatchAdjacency: chunkFaults,
		grin.TraitBatchProps:     chunkFaults,
		grin.TraitBatchScan:      chunkFaults,
	},
	"gart": {
		grin.TraitLabelAdjacency: "a vertex's adjacency is one append-only chain in commit order " +
			"for every edge label, so there is no label boundary to jump to: engines expand it " +
			"whole and filter by GatherEdgeLabels",
	},
}

const chunkFaults = "every access may fault a chunk in from disk, so a native batch path " +
	"would still pay a cache lookup per element"

// batchedOf returns the batched traits a backend with traits have must serve
// or declare: topology batches as BatchAdjacency, property as BatchProps, a
// scan (index or predicate) as BatchScan, and a batched expansion over
// labelled edges (BatchAdjacency with property) segments by label.
func batchedOf(have []grin.Trait) []grin.Trait {
	var need []grin.Trait
	add := func(when bool, batched grin.Trait) {
		if when {
			need = append(need, batched)
		}
	}
	has := func(t grin.Trait) bool { return slices.Contains(have, t) }
	add(has(grin.TraitTopology), grin.TraitBatchAdjacency)
	add(has(grin.TraitProperty), grin.TraitBatchProps)
	add(has(grin.TraitIndex) || has(grin.TraitPredicate), grin.TraitBatchScan)
	add(has(grin.TraitBatchAdjacency) && has(grin.TraitProperty), grin.TraitLabelAdjacency)
	return need
}

// gapProblems returns one line per broken rule: a batched trait a backend
// neither serves nor declares with a reason, or a declared gap that is not
// one.
func gapProblems(table map[string][]grin.Trait, declared map[string]map[grin.Trait]string) []string {
	var out []string
	for _, backend := range slices.Sorted(maps.Keys(table)) {
		have, need := table[backend], batchedOf(table[backend])
		for _, tr := range need {
			if !slices.Contains(have, tr) && declared[backend][tr] == "" {
				out = append(out, fmt.Sprintf("%s: has no %v and declares no gap for it", backend, tr))
			}
		}
		for _, tr := range slices.Sorted(maps.Keys(declared[backend])) {
			if !slices.Contains(need, tr) || slices.Contains(have, tr) {
				out = append(out, fmt.Sprintf("%s: stale declaration: %v is not a gap", backend, tr))
			}
		}
	}
	for _, backend := range slices.Sorted(maps.Keys(declared)) {
		if _, ok := table[backend]; !ok {
			out = append(out, fmt.Sprintf("%s: stale declaration: no such backend", backend))
		}
	}
	return out
}

// TestScalarTraitsAreBatchedOrDeclared holds the capability table to the
// batch runtime's contract: engines dispatch the batched traits once per
// frontier, so a backend with a scalar trait serves its batched counterpart
// or declares the gap in declaredGaps. The cases pin the rule itself.
func TestScalarTraitsAreBatchedOrDeclared(t *testing.T) {
	for _, p := range gapProblems(storeTraits, declaredGaps) {
		t.Error(p)
	}
	const (
		topo, prop, idx, pred = grin.TraitTopology, grin.TraitProperty, grin.TraitIndex, grin.TraitPredicate
		badj, bprop, bscan    = grin.TraitBatchAdjacency, grin.TraitBatchProps, grin.TraitBatchScan
		ladj                  = grin.TraitLabelAdjacency
	)
	for _, c := range []struct {
		name     string
		have     []grin.Trait
		declared map[grin.Trait]string
		want     []string // one substring per expected problem, in order
	}{
		{"topology gap", []grin.Trait{topo}, nil, []string{"no batch_adjacency"}},
		{"topology batched", []grin.Trait{topo, badj}, nil, nil},
		{"topology declared", []grin.Trait{topo}, map[grin.Trait]string{badj: "why"}, nil},
		{"declaration needs a reason", []grin.Trait{topo}, map[grin.Trait]string{badj: ""}, []string{"no batch_adjacency"}},
		{"property gap", []grin.Trait{prop}, nil, []string{"no batch_props"}},
		{"index gap", []grin.Trait{idx}, nil, []string{"no batch_scan"}},
		{"scan batched", []grin.Trait{idx, pred, bscan}, nil, nil},
		{"labelled gap", []grin.Trait{badj, prop, bprop}, nil, []string{"no label_adjacency"}},
		{"labelled served", []grin.Trait{badj, prop, bprop, ladj}, nil, nil},
		{"one gap declared, another still fires", []grin.Trait{badj, prop, bprop, idx},
			map[grin.Trait]string{ladj: "why"}, []string{"no batch_scan"}},
		{"unlabelled batched expansion", []grin.Trait{badj}, nil, nil},
		{"stale: served", []grin.Trait{topo, badj}, map[grin.Trait]string{badj: "why"}, []string{"stale declaration: batch_adjacency"}},
		{"stale: not needed", nil, map[grin.Trait]string{ladj: "why"}, []string{"stale declaration: label_adjacency"}},
	} {
		got := gapProblems(map[string][]grin.Trait{"x": c.have}, map[string]map[grin.Trait]string{"x": c.declared})
		ok := len(got) == len(c.want)
		for i := 0; ok && i < len(got); i++ {
			ok = strings.Contains(got[i], c.want[i])
		}
		if !ok {
			t.Errorf("%s: problems %q, want %q", c.name, got, c.want)
		}
	}
}

// TestMissing checks the one lookup flexbuild and `flexlint -plans` share:
// a property demand is met by the property stores and missing on the
// topology ones, nothing is missing from an empty demand, and an unknown
// backend is reported as such.
func TestMissing(t *testing.T) {
	want := []grin.Trait{grin.TraitTopology, grin.TraitProperty}
	for _, backend := range []string{"vineyard", "gart", "graphar"} {
		if missing, known := Missing(backend, want); !known || len(missing) != 0 {
			t.Errorf("%s: missing %v (known=%v), want none", backend, missing, known)
		}
	}
	for _, backend := range []string{"csr", "livegraph"} {
		missing, known := Missing(backend, want)
		if !known || len(missing) != 1 || missing[0] != grin.TraitProperty {
			t.Errorf("%s: missing %v (known=%v), want [property]", backend, missing, known)
		}
	}
	if missing, _ := Missing("csr", nil); len(missing) != 0 {
		t.Errorf("empty demand: missing %v", missing)
	}
	if _, known := Missing("ramcloud", want); known {
		t.Error("unknown backend reported as known")
	}
}
