// Command bench is the repository's benchmark: six SQL-path workloads,
// five end-to-end metrics, and a traced pass that attributes statement
// time to layers. BENCHMARK.json at the root of the repository declares
// the workloads, metrics, units and regression bounds; README.md in
// this directory explains them.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	        one run of one workload; the last line of standard output is
//	        {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//	bash bench/run.sh [-repeat K] [-vary-seed] [-out FILE]
//	        the whole suite, each workload in a child process
//	bash bench/run.sh -compare OLD.json NEW.json
//	        verdict per (workload, end-to-end metric) against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result line (default: run the suite)")
		seed     = flag.Int64("seed", 1, "seed of every generator")
		seconds  = flag.Float64("seconds", 16, "length of the timed section")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced single-client pass with per-layer metrics")
		scale    = flag.String("scale", "full", "full, or tiny for smoke tests")
		scratch  = flag.String("scratch", ".bench_build/data", "directory for the run's databases (removed afterwards)")
		outDir   = flag.String("tracedir", defaultTraceDir, "directory the trace and run files are written to")
		out      = flag.String("out", "", "suite: also write the JSON summary to this file")
		repeat   = flag.Int("repeat", 1, "suite: run the end-to-end pass this many times and report the spread")
		varySeed = flag.Bool("vary-seed", false, "suite: run i of -repeat uses seed+i")
		compare  = flag.Bool("compare", false, "compare two suite summaries: -compare OLD.json NEW.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare OLD.json NEW.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *workload == "":
		os.Exit(runSuite(suiteOptions{seed: *seed, seconds: *seconds, scale: *scale, out: *out, repeat: *repeat, varySeed: *varySeed}))
	}

	sp := findSpec(*workload)
	if sp == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	sp, err := sp.scaled(*scale)
	if err != nil {
		fatal(err)
	}
	dir := filepath.Join(*scratch, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = runTraced(sp, *seed, dur, dir, *outDir)
	} else {
		res, err = runEndToEnd(sp, *seed, dur, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d trace=%d stream=%016x flush=always (fsync and loopback latencies are this sandbox's, not a device's)\n",
		sp.name, *seed, *trace, res.streamHash)
	full, err := json.Marshal(res)
	if err == nil {
		err = os.MkdirAll(*outDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(runFile(*outDir, sp.name, *trace), full, 0o644)
	}
	if err != nil {
		fatal(err)
	}
	for name, m := range res.Metrics {
		m.Samples = 0
		res.Metrics[name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runFile is where a one-workload run leaves its result with sample
// counts, for the suite to read.
func runFile(dir, workload string, trace int) string {
	return filepath.Join(dir, fmt.Sprintf("run-%s-trace%d.json", workload, trace))
}

const defaultTraceDir = "bench/out"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// scaled returns the spec at the named scale. Tiny shrinks the tables
// so that the smoke test runs every workload in seconds.
func (sp *spec) scaled(scale string) (*spec, error) {
	c := *sp
	switch scale {
	case "full":
	case "tiny":
		c.n = max(400, sp.n/20)
		c.pool = max(c.n, sp.pool/20)
		c.traceRounds = 2
	default:
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	return &c, nil
}
