package bench

import (
	"regexp"
	"testing"
)

// TestIDsArePaperExperiments: flexbench reproduces the paper's evaluation
// and nothing else. Every registered experiment is one of its figures,
// tables, experiments or ablations; a timing that only explains a layer is a
// Go benchmark, and benchmark/ judges performance.
func TestIDsArePaperExperiments(t *testing.T) {
	paper := regexp.MustCompile(`^(fig7[a-m]|table2|exp[678]|ablation-.+)$`)
	for _, id := range IDs() {
		if !paper.MatchString(id) {
			t.Errorf("experiment %q reproduces no figure, table, experiment or ablation of the paper", id)
		}
	}
}
