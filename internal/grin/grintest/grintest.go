// Package grintest holds test doubles for GRIN stores. Engines discover
// traits by method set, so a double that must lack one trait is a struct
// that embeds the others and nothing else.
package grintest

import "repro/internal/grin"

// readStore is every read-side trait vineyard serves except
// grin.LabelAdjacency.
type readStore interface {
	grin.Graph
	grin.AdjArray
	grin.PropertyReader
	grin.WeightReader
	grin.Index
	grin.PredicatePush
	grin.Named
	grin.BatchAdjacency
	grin.BatchProps
	grin.BatchPropsCol
	grin.BatchScan
}

// Unsegmented returns a view of st that answers every call st answers but is
// not a grin.LabelAdjacency: the store as engines saw it before its
// adjacency was segmented by label, for driving their unlabelled path over
// the same data.
func Unsegmented(st readStore) grin.Graph { return struct{ readStore }{st} }
