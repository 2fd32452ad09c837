package dataset

import (
	"math/rand"

	"repro/internal/graph"
)

// NodeFeatures is a dense float32 feature matrix plus class labels for GNN
// workloads — the stand-in for ogbn-products (PD) and ogbn-papers100M (PA).
type NodeFeatures struct {
	Dim      int
	Classes  int
	Features [][]float32 // [vertex][dim]
	Labels   []int       // [vertex]
}

// Features generates class-correlated node features: each vertex is assigned
// a class, and its feature vector is the class centroid plus noise. GNN
// models can therefore genuinely learn on these graphs (loss decreases),
// which keeps the training benchmarks honest.
func Features(n, dim, classes int, seed int64) *NodeFeatures {
	r := rand.New(rand.NewSource(seed))
	nf := &NodeFeatures{
		Dim:      dim,
		Classes:  classes,
		Features: make([][]float32, n),
		Labels:   make([]int, n),
	}
	centroids := make([][]float32, classes)
	for c := range centroids {
		centroids[c] = make([]float32, dim)
		for d := range centroids[c] {
			centroids[c][d] = float32(r.NormFloat64())
		}
	}
	for v := 0; v < n; v++ {
		c := r.Intn(classes)
		nf.Labels[v] = c
		f := make([]float32, dim)
		for d := range f {
			f[d] = centroids[c][d] + 0.5*float32(r.NormFloat64())
		}
		nf.Features[v] = f
	}
	return nf
}

// GNNDataset bundles a graph with features for the learning stack.
type GNNDataset struct {
	Name  string
	Graph *Simple
	Feats *NodeFeatures
}

// GNNByName returns a scaled-down analog of a paper GNN dataset: PD
// (ogbn-products: mid-size, denser) or PA (ogbn-papers100M: larger,
// sparser).
func GNNByName(abbr string) (*GNNDataset, error) {
	switch abbr {
	case "PD":
		g := Datagen("PD", 3_000, 12, 4242)
		return &GNNDataset{Name: "PD", Graph: g, Feats: Features(g.N, 32, 8, 4243)}, nil
	case "PA":
		g := Datagen("PA", 9_000, 8, 4343)
		return &GNNDataset{Name: "PA", Graph: g, Feats: Features(g.N, 32, 16, 4344)}, nil
	default:
		return ByNameErrGNN(abbr)
	}
}

// ByNameErrGNN reports an unknown GNN dataset (split out for test coverage).
func ByNameErrGNN(abbr string) (*GNNDataset, error) {
	return nil, errUnknownGNN(abbr)
}

type errUnknownGNN string

func (e errUnknownGNN) Error() string { return "dataset: unknown GNN dataset " + string(e) }

// TrainTestEdges splits a graph's edges for link prediction: frac of edges
// become test positives (removed from the training graph), matched with an
// equal number of random non-edge negatives.
func TrainTestEdges(g *Simple, frac float64, seed int64) (train *Simple, testSrc, testDst []graph.VID, negSrc, negDst []graph.VID) {
	r := rand.New(rand.NewSource(seed))
	train = &Simple{Name: g.Name + "-train", N: g.N}
	exists := make(map[[2]graph.VID]bool, g.NumEdges())
	for i := range g.Src {
		exists[[2]graph.VID{g.Src[i], g.Dst[i]}] = true
	}
	for i := range g.Src {
		if r.Float64() < frac {
			testSrc = append(testSrc, g.Src[i])
			testDst = append(testDst, g.Dst[i])
		} else {
			train.Src = append(train.Src, g.Src[i])
			train.Dst = append(train.Dst, g.Dst[i])
		}
	}
	for len(negSrc) < len(testSrc) {
		u, v := graph.VID(r.Intn(g.N)), graph.VID(r.Intn(g.N))
		if u == v || exists[[2]graph.VID{u, v}] {
			continue
		}
		negSrc = append(negSrc, u)
		negDst = append(negDst, v)
	}
	return train, testSrc, testDst, negSrc, negDst
}
