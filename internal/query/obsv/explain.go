package obsv

import (
	"fmt"
	"strings"
	"time"
)

// ExplainNode is one stage of an EXPLAIN ANALYZE tree. The physical plan is
// a linear pipeline, so the tree is a chain: the root is the final (output)
// stage and Input walks toward the source. Stats is nil for plain EXPLAIN
// (no execution) and carries the observed counters for EXPLAIN ANALYZE.
type ExplainNode struct {
	// Op is the stage's plan name ("SCAN(p)", "EXPAND_FUSED(p->f)", ...).
	Op string
	// Kind classifies the stage: SOURCE, MAP, FILTER, or BLOCKING.
	Kind string
	// Width is the stage's output width in columns.
	Width int
	// Stats holds the observed counters when the plan was executed.
	Stats *StageSnapshot `json:",omitempty"`
	// Input is the upstream stage; nil at the source.
	Input *ExplainNode `json:",omitempty"`
}

// Render formats the tree sink-first, one stage per indent level, with the
// observed counters under each stage. withTimes=false suppresses wall times
// so golden tests can pin the output byte-for-byte; flexquery passes true.
func (n *ExplainNode) Render(withTimes bool) string {
	var b strings.Builder
	depth := 0
	for node := n; node != nil; node = node.Input {
		ind := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s [%s width=%d]\n", ind, node.Op, node.Kind, node.Width)
		if st := node.Stats; st != nil {
			fmt.Fprintf(&b, "%s  rows: in=%d out=%d  batches=%d", ind, st.RowsIn, st.RowsOut, st.Batches)
			if st.Expands {
				fmt.Fprintf(&b, "  slots=%d", st.Slots)
			}
			b.WriteByte('\n')
			if st.KernelSteps+st.BoxedSteps > 0 {
				fmt.Fprintf(&b, "%s  filter: kernel=%d boxed=%d  candidates=%d survivors=%d\n",
					ind, st.KernelSteps, st.BoxedSteps, st.SelCandidates, st.SelSurvivors)
			}
			if st.Errors > 0 {
				fmt.Fprintf(&b, "%s  errors=%d\n", ind, st.Errors)
			}
			if withTimes {
				fmt.Fprintf(&b, "%s  time=%v\n", ind, time.Duration(st.WallNanos).Round(time.Microsecond))
			}
		}
		depth++
	}
	return b.String()
}

// RenderStore formats the store-trait call counters as the per-site summary
// flexquery prints under an EXPLAIN ANALYZE tree. Only sites that were
// actually called appear; order is the fixed site enumeration.
func RenderStore(s *StoreSnapshot) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "store calls (%s):\n", s.Backend)
	any := false
	for _, site := range s.Sites {
		if site.Calls == 0 {
			continue
		}
		any = true
		path := ""
		switch {
		case site.Batch && site.Native:
			path = "  [native batch]"
		case site.Batch:
			path = "  [scalar fallback]"
		case !site.Native:
			path = "  [unsupported trait]"
		}
		fmt.Fprintf(&b, "  %-20s %d%s\n", site.Site, site.Calls, path)
	}
	if !any {
		b.WriteString("  (none)\n")
	}
	return b.String()
}
