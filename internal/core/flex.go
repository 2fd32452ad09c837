// Package core is the composition layer of the stack — the paper's primary
// contribution (§3): a registry of LEGO-like components across the three
// layers, a flexbuild planner that validates a selection and emits a
// deployment plan, and a Session facade that wires selected components
// together over one storage backend.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/grin"
)

// Layer classifies components as in Fig 3.
type Layer string

// The three architectural layers.
const (
	LayerApplication Layer = "application"
	LayerEngine      Layer = "engine"
	LayerStorage     Layer = "storage"
)

// Component describes one brick: its layer, what it provides, and what it
// requires from the layers below (GRIN traits for engines, engine kinds for
// applications).
type Component struct {
	Name     string
	Layer    Layer
	Provides []string
	// RequiresTraits lists GRIN traits the component needs from the chosen
	// storage backend.
	RequiresTraits []grin.Trait
	// RequiresComponents lists other components that must be co-deployed.
	RequiresComponents []string
	Doc                string
}

// Registry is the component catalog of this build.
var Registry = []Component{
	// Application layer.
	{Name: "sdk", Layer: LayerApplication, Provides: []string{"api"}, Doc: "Go SDK (this module's public packages)"},
	{Name: "restful", Layer: LayerApplication, Provides: []string{"api"}, RequiresComponents: []string{"hiactor"}, Doc: "RESTful endpoint adapter"},
	{Name: "gremlin", Layer: LayerApplication, Provides: []string{"query-language"}, RequiresComponents: []string{"compiler"}, Doc: "Gremlin traversal front-end"},
	{Name: "cypher", Layer: LayerApplication, Provides: []string{"query-language"}, RequiresComponents: []string{"compiler"}, Doc: "Cypher front-end"},
	{Name: "builtin-apps", Layer: LayerApplication, Provides: []string{"algorithms"}, RequiresComponents: []string{"grape"}, Doc: "Built-in analytics library (PageRank, BFS, SSSP, WCC, CDLP, equity)"},
	{Name: "gnn-models", Layer: LayerApplication, Provides: []string{"models"}, RequiresComponents: []string{"graphlearn"}, Doc: "GraphSAGE and NCN models"},

	// Engine layer.
	{Name: "compiler", Layer: LayerEngine, Provides: []string{"graphir"}, Doc: "GraphIR parser/optimizer/codegen (ir, optimizer, exec)"},
	{Name: "gaia", Layer: LayerEngine, Provides: []string{"olap"}, RequiresComponents: []string{"compiler"}, RequiresTraits: []grin.Trait{grin.TraitTopology, grin.TraitProperty}, Doc: "Dataflow engine for OLAP queries"},
	{Name: "hiactor", Layer: LayerEngine, Provides: []string{"oltp"}, RequiresComponents: []string{"compiler"}, RequiresTraits: []grin.Trait{grin.TraitTopology, grin.TraitProperty, grin.TraitIndex}, Doc: "Actor engine for high-QPS OLTP queries"},
	{Name: "grape", Layer: LayerEngine, Provides: []string{"analytics"}, RequiresTraits: []grin.Trait{grin.TraitTopology}, Doc: "PIE-model analytical engine (+Pregel)"},
	{Name: "grape-gpu", Layer: LayerEngine, Provides: []string{"analytics-gpu"}, RequiresTraits: []grin.Trait{grin.TraitTopology, grin.TraitAdjArray}, Doc: "Simulated GPU analytics backend"},
	{Name: "obsv", Layer: LayerEngine, Provides: []string{"observability"}, RequiresComponents: []string{"compiler"}, Doc: "Query observability: per-stage runtime stats, EXPLAIN ANALYZE, trace export, store call metering"},
	{Name: "graphlearn", Layer: LayerEngine, Provides: []string{"learning"}, RequiresTraits: []grin.Trait{grin.TraitTopology}, Doc: "Decoupled sampling/training stack"},

	// Storage layer.
	{Name: "vineyard", Layer: LayerStorage, Provides: []string{"store"}, Doc: "Immutable in-memory CSR property store"},
	{Name: "gart", Layer: LayerStorage, Provides: []string{"store", "mvcc"}, Doc: "Dynamic MVCC store"},
	{Name: "graphar", Layer: LayerStorage, Provides: []string{"store", "archive"}, Doc: "Chunked columnar archive (direct GRIN source)"},
	{Name: "grin", Layer: LayerStorage, Provides: []string{"interface"}, Doc: "Unified graph retrieval interface"},
}

// storeTraits is the one capability table: the GRIN traits each storage
// backend provides natively, exactly as grin.Traits reports them for a live
// instance (pinned by TestStoreTraitsMatchImplementations). flexbuild checks
// engine requirements against it, `flexlint -plans` a compiled plan's. A
// gart row describes what an engine is handed — the Snapshot view reads go
// through — plus the Versioned trait of the Store handle that mints it. The
// batch and layout traits are fast paths with generic fallbacks in grin, so
// nothing ever requires one; csr and livegraph are topology stores no
// flexbuild component selects.
var storeTraits = map[string][]grin.Trait{
	"vineyard": {
		grin.TraitTopology, grin.TraitAdjArray, grin.TraitProperty, grin.TraitWeight,
		grin.TraitIndex, grin.TraitPredicate,
		grin.TraitBatchAdjacency, grin.TraitBatchProps, grin.TraitBatchScan,
		grin.TraitLabelAdjacency,
	},
	"gart": {
		grin.TraitTopology, grin.TraitProperty, grin.TraitWeight,
		grin.TraitIndex, grin.TraitPredicate, grin.TraitVersioned,
		grin.TraitBatchAdjacency, grin.TraitBatchProps, grin.TraitBatchScan,
	},
	"graphar": {
		grin.TraitTopology, grin.TraitProperty, grin.TraitWeight,
		grin.TraitIndex, grin.TraitPredicate,
	},
	"csr": {
		grin.TraitTopology, grin.TraitAdjArray, grin.TraitWeight, grin.TraitPredicate,
		grin.TraitBatchAdjacency, grin.TraitBatchScan,
	},
	"livegraph": {
		grin.TraitTopology, grin.TraitWeight,
		grin.TraitBatchAdjacency, grin.TraitBatchScan,
	},
}

// Missing returns the traits of want that backend does not provide; known is
// false for a backend the capability table does not list.
func Missing(backend string, want []grin.Trait) (missing []grin.Trait, known bool) {
	have, known := storeTraits[backend]
	for _, t := range want {
		if !slices.Contains(have, t) {
			missing = append(missing, t)
		}
	}
	return missing, known
}

// Find resolves a component by name.
func Find(name string) (Component, bool) {
	for _, c := range Registry {
		if c.Name == name {
			return c, true
		}
	}
	return Component{}, false
}

// Plan is a validated deployment: the closed component set plus the chosen
// storage backend.
type Plan struct {
	Components []string
	Store      string
}

// Build validates a component selection (flexbuild §3): it closes the set
// over RequiresComponents, checks that exactly one store is selected, and
// verifies every engine's required GRIN traits against the store.
func Build(selection []string) (*Plan, error) {
	set := map[string]bool{"grin": true}
	var queue []string
	for _, name := range selection {
		queue = append(queue, name)
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if set[name] {
			continue
		}
		c, ok := Find(name)
		if !ok {
			return nil, fmt.Errorf("flexbuild: unknown component %q", name)
		}
		set[name] = true
		queue = append(queue, c.RequiresComponents...)
	}

	var store string
	for name := range set {
		if _, isStore := storeTraits[name]; isStore {
			if store != "" {
				return nil, fmt.Errorf("flexbuild: multiple stores selected (%s, %s)", store, name)
			}
			store = name
		}
	}
	if store == "" {
		return nil, fmt.Errorf("flexbuild: no storage backend selected (pick one of vineyard, gart, graphar)")
	}

	// Trait compatibility: every engine's requirements against the store.
	for name := range set {
		c, _ := Find(name)
		if missing, _ := Missing(store, c.RequiresTraits); len(missing) > 0 {
			return nil, fmt.Errorf("flexbuild: component %q requires trait %q which store %q does not provide", name, missing[0], store)
		}
	}

	plan := &Plan{Store: store}
	for name := range set {
		plan.Components = append(plan.Components, name)
	}
	sort.Strings(plan.Components)
	return plan, nil
}

// Manifest renders the plan as a deployment manifest.
func (p *Plan) Manifest() string {
	var b strings.Builder
	b.WriteString("# flexbuild deployment plan\n")
	fmt.Fprintf(&b, "store: %s\n", p.Store)
	b.WriteString("components:\n")
	for _, name := range p.Components {
		c, _ := Find(name)
		fmt.Fprintf(&b, "  - %s (%s): %s\n", name, c.Layer, c.Doc)
	}
	return b.String()
}

// Presets are the worked deployments of §3's real-world example.
var Presets = map[string][]string{
	// Workload 2 (anti-fraud analytics): SDK + builtin algorithms on GRAPE
	// over Vineyard.
	"analytics": {"sdk", "builtin-apps", "grape", "vineyard"},
	// Workload 5 (BI analysis): Cypher on Gaia over the GraphAr archive.
	"bi": {"restful", "cypher", "gaia", "graphar", "hiactor"},
	// Fraud detection OLTP: Cypher stored procedures on HiActor over GART.
	"oltp": {"sdk", "cypher", "hiactor", "gart"},
	// GNN training: models + learning stack over Vineyard.
	"learning": {"sdk", "gnn-models", "graphlearn", "vineyard"},
}
