package planshape

import (
	"fmt"
	"sort"

	"repro/internal/grin"
)

// capabilities is the static GRIN capability matrix: which traits each
// storage backend provides natively. It mirrors the type assertions
// grin.Has performs at runtime; TestCapabilityMatrixMatchesBackends pins
// the two against each other so the table cannot drift. Batch traits are
// pure fast paths (grin helpers carry generic fallbacks for every one), so
// CheckBackend never treats them as required — graphar in particular is the
// marked // grin:fallback backend, serving all batch access generically.
var capabilities = map[string][]grin.Trait{
	"vineyard": {
		grin.TraitTopology, grin.TraitAdjArray, grin.TraitProperty, grin.TraitWeight,
		grin.TraitIndex, grin.TraitPredicate,
		grin.TraitBatchAdjacency, grin.TraitBatchProps, grin.TraitBatchScan,
		grin.TraitLabelAdjacency,
	},
	"csr": {
		grin.TraitTopology, grin.TraitAdjArray, grin.TraitWeight, grin.TraitPredicate,
		grin.TraitBatchAdjacency, grin.TraitBatchScan,
	},
	// gart describes the Snapshot view engines receive (Store.Latest()),
	// not the mutable Store: the snapshot is where reads happen, and it has
	// no Versioned trait of its own.
	"gart": {
		grin.TraitTopology, grin.TraitProperty, grin.TraitWeight,
		grin.TraitIndex, grin.TraitPredicate,
		grin.TraitBatchAdjacency, grin.TraitBatchProps, grin.TraitBatchScan,
	},
	"livegraph": {
		grin.TraitTopology, grin.TraitWeight,
		grin.TraitBatchAdjacency, grin.TraitBatchScan,
	},
	"graphar": {
		grin.TraitTopology, grin.TraitProperty, grin.TraitWeight,
		grin.TraitIndex, grin.TraitPredicate,
	},
}

// Backends lists the backends of the capability matrix, sorted.
func Backends() []string {
	var names []string
	//lint:allow determinism order-independent: sorted immediately below
	for n := range capabilities {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Capabilities returns a backend's native trait set (nil for unknown).
func Capabilities(backend string) []grin.Trait {
	return capabilities[backend]
}

// CheckBackend reports whether a verified plan can run correctly on a
// backend: every required trait must be native (batch traits excepted —
// they always have generic fallbacks). Optional traits are not checked;
// use Degraded for the would-degrade list.
func CheckBackend(info *Info, backend string) error {
	caps, ok := capabilities[backend]
	if !ok {
		return fmt.Errorf("planshape: unknown backend %q", backend)
	}
	has := map[grin.Trait]bool{}
	for _, t := range caps {
		has[t] = true
	}
	for _, t := range info.Requires {
		if isBatchTrait(t) || has[t] {
			continue
		}
		return &grin.ErrMissingTrait{Backend: backend, Trait: t, Engine: "plan"}
	}
	return nil
}

// Degraded lists the plan's optional traits the backend lacks: the plan
// runs, but label filters are skipped or id() falls back to internal IDs.
func Degraded(info *Info, backend string) []grin.Trait {
	caps := capabilities[backend]
	has := map[grin.Trait]bool{}
	for _, t := range caps {
		has[t] = true
	}
	var out []grin.Trait
	for _, t := range info.Optional {
		if !isBatchTrait(t) && !has[t] {
			out = append(out, t)
		}
	}
	return out
}

func isBatchTrait(t grin.Trait) bool {
	switch t {
	case grin.TraitBatchAdjacency, grin.TraitBatchProps, grin.TraitBatchScan:
		return true
	}
	return false
}
