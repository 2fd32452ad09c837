// flexlint -allocs: the compiler-backed allocation budget gate. The real
// work lives in internal/lint/allocgate; this wrapper picks the baseline
// path, handles -update, and formats the violations.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/lint/allocgate"
)

// runAllocs diffs (or with update, rewrites) the hot-path allocation
// baseline, returning the process exit code.
func runAllocs(baselinePath string, update, asJSON bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint -allocs:", err)
		return 2
	}
	current, err := allocgate.Collect(cwd, allocgate.HotPackages)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint -allocs:", err)
		return 2
	}
	if update {
		if err := allocgate.Save(baselinePath, current); err != nil {
			fmt.Fprintln(os.Stderr, "flexlint -allocs:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "flexlint -allocs: baseline %s rewritten (%d package(s))\n",
			baselinePath, len(current))
		return 0
	}
	baseline, err := allocgate.Load(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint -allocs:", err)
		return 2
	}
	violations := allocgate.Diff(baseline, current)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(violations) //nolint:errcheck // stdout
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
	} else {
		for _, v := range violations {
			fmt.Println(v)
		}
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "flexlint -allocs: %d difference(s) from baseline %s\n",
			len(violations), baselinePath)
		return 1
	}
	return 0
}
