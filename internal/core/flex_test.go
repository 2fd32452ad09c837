package core

import (
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
