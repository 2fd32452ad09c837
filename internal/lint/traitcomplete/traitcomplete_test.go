package traitcomplete_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/traitcomplete"
)

func TestTraitComplete(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), traitcomplete.Analyzer,
		"repro/internal/storage/csr/tcfix", // backend package: gaps fire
		"repro/internal/tools/tcfix",       // non-backend package: no findings
		"repro/internal/tools/maskfix",     // a masking wrapper outside internal/grin
	)
}
