// Command sgbbench regenerates the paper's evaluation artifacts: every
// figure (9a–d, 10a–d, 11a/b, 12a/b) and table (1, 2) is an experiment
// that prints the same rows/series the paper reports.
//
// Usage:
//
//	sgbbench -list
//	sgbbench -exp fig9a
//	sgbbench -exp all -scale 2
//
// Scale 1 is the default single-machine size (seconds per experiment);
// the paper's full workloads correspond to roughly scale 25–50.
//
// These fourteen experiments, and one extension the paper leaves open
// (dims, a sweep over the number of grouping attributes), are the whole
// command: it reproduces the paper and records nothing. Whether a
// change regressed anything is answered by `bash bench/run.sh
// -compare` (bench/, BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/sgb-db/sgb/internal/benchkit"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (fig9a..fig12b, table1, table2, dims), comma-separated, or 'all'")
		scale = flag.Float64("scale", 1.0, "workload scale multiplier (1.0 = default sizes)")
		seed  = flag.Int64("seed", 42, "generator seed")
		list  = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range benchkit.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with: sgbbench -exp <id>")
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, e := range benchkit.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := benchkit.Find(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "sgbbench: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		cfg := benchkit.Config{Out: os.Stdout, Scale: *scale, Seed: *seed}
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "sgbbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
