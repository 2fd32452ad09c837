package grinboundary_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/grinboundary"
)

func TestGrinBoundary(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), grinboundary.Analyzer,
		"repro/internal/query/badimport", // runtime package importing backends
		"repro/internal/query/cleanok",   // runtime package on the trait path
		"repro/internal/loaderfix",       // non-runtime package: backends allowed
		"repro/internal/tools/maskfix",   // a masking wrapper outside internal/grin
	)
}
