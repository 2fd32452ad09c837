// Command flexbench regenerates the paper's evaluation tables and figures
// (§9). Run with no arguments for the full suite, or name experiment IDs.
//
// Usage:
//
//	flexbench            # all experiments
//	flexbench fig7c exp8
//	flexbench -quick     # scaled-down workloads (seconds, not minutes)
//	flexbench -json tables.json fig7e exp8   # also dump tables as JSON
//	flexbench -timeout 30s exp2  # bound each query execution inside experiments
//	flexbench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

const usageLine = "usage: flexbench [-quick] [-json file] [-timeout d] [-list] [experiment ...]"

// validateArgs rejects unknown experiment IDs and bad flag values before any
// experiment runs: a typo in the last argument must not surface after minutes
// of benchmarking. Kept apart from main so the rules are unit-testable.
func validateArgs(ids, known []string, timeout time.Duration) string {
	if timeout < 0 {
		return fmt.Sprintf("-timeout %v is negative (0 means no deadline)", timeout)
	}
	knownSet := map[string]bool{}
	for _, id := range known {
		knownSet[id] = true
	}
	for _, id := range ids {
		if !knownSet[id] {
			return fmt.Sprintf("unknown experiment %q (run `flexbench -list` for the available IDs)", id)
		}
	}
	return ""
}

func main() {
	list := flag.Bool("list", false, "list experiment IDs")
	quickFlag := flag.Bool("quick", false, "run scaled-down workloads (same code paths, smaller data)")
	jsonPath := flag.String("json", "", "write the selected experiments' tables to this file as JSON")
	timeout := flag.Duration("timeout", 0, "deadline for each query execution inside experiments (0: none)")
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(bench.IDs(), "\n"))
		return
	}
	bench.SetQuick(*quickFlag)
	bench.SetQueryTimeout(*timeout)
	ids := flag.Args()
	if len(ids) == 0 {
		ids = bench.IDs()
	}
	if msg := validateArgs(ids, bench.IDs(), *timeout); msg != "" {
		fmt.Fprintln(os.Stderr, "flexbench: "+msg)
		fmt.Fprintln(os.Stderr, usageLine)
		os.Exit(2)
	}
	fmt.Printf("flexbench: GOMAXPROCS=%d (scaling experiments need >1 CPU to separate)\n\n", runtime.GOMAXPROCS(0))
	var tables []*bench.Table
	for _, id := range ids {
		tab, err := bench.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		tables = append(tables, tab)
		fmt.Println(tab)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *jsonPath, len(tables))
	}
}
