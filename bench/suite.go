package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the repository)", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// series is one metric of one workload over the suite's repeats.
type series struct {
	Unit    string    `json:"unit"`
	Values  []float64 `json:"values"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples int       `json:"samples"` // observations behind each value (last run's count)
	// Spread is the distance between the first and third quartile as a
	// share of the median (Python's statistics.quantiles(values, n=4));
	// with fewer than two values it is 0.
	Spread float64 `json:"spread"`
}

func newSeries(unit string, values []float64, samples int) series {
	s := series{Unit: unit, Values: values, Samples: samples, Median: median(values)}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	if len(sorted) >= 2 && s.Median != 0 {
		q1, q3 := quartile(sorted, 1), quartile(sorted, 3)
		s.Spread = math.Abs((q3 - q1) / s.Median)
	}
	return s
}

// quartile is the i-th of the three cut points Python's
// statistics.quantiles(data, n=4) returns (the default, exclusive
// method).
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	j := i * (n + 1) / 4
	j = max(1, min(j, n-1))
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// workloadSummary is one workload's block of the suite summary.
type workloadSummary struct {
	Why         string            `json:"why"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	EndToEnd    map[string]series `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer"`
}

// summary is the suite's JSON document.
type summary struct {
	Env       map[string]string           `json:"env"`
	Repeat    int                         `json:"repeat"`
	Workloads map[string]*workloadSummary `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim any `json:"claim"`
}

type suiteOptions struct {
	seed     int64
	seconds  float64
	scale    string
	out      string
	repeat   int
	varySeed bool
}

// runChild runs one workload in a child process, so that heap, GC
// state and peak RSS are the workload's own, and parses its last line.
func runChild(o suiteOptions, workload string, seed int64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--scale", o.scale)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	// The run file is the result line plus sample counts.
	b, err := os.ReadFile(runFile(defaultTraceDir, workload, trace))
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: run file: %w", workload, err)
	}
	return &res, nil
}

// runSuite runs every workload repeat times end to end and once
// traced, prints the JSON summary to standard output (and -out), and a
// table to standard error. With -repeat it is the repeatability
// report: median, min, max and spread per metric, with a mark on every
// end-to-end metric whose spread exceeds a tenth or a third of its
// bound.
func runSuite(o suiteOptions) int {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	sum := &summary{Repeat: o.repeat, Workloads: map[string]*workloadSummary{}, Env: map[string]string{
		"commit": gitCommit(), "go": runtime.Version(), "nproc": strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)), "seed": strconv.FormatInt(o.seed, 10),
		"vary_seed": strconv.FormatBool(o.varySeed), "seconds": strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"scale": o.scale, "flush_policy": "always (fsync and loopback latencies are the sandbox's)",
	}}
	code := 0
	for _, sp := range specs {
		ws := &workloadSummary{Why: sp.why, EndToEnd: map[string]series{}, PerLayer: map[string]metric{}}
		sum.Workloads[sp.name] = ws
		values := map[string][]float64{}
		last := map[string]metric{}
		note := func(res *result) {
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
		}
		for i := 0; i < o.repeat; i++ {
			seed := o.seed
			if o.varySeed {
				seed += int64(i)
			}
			res, err := runChild(o, sp.name, seed, 0)
			if err != nil {
				fatal(err)
			}
			note(res)
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				last[name] = m
			}
		}
		for name, v := range values {
			ws.EndToEnd[name] = newSeries(last[name].Unit, v, last[name].Samples)
		}
		res, err := runChild(o, sp.name, o.seed, 1)
		if err != nil {
			fatal(err)
		}
		note(res)
		ws.PerLayer = res.Metrics
		ws.FailedShare = ratio(float64(ws.Failed), float64(ws.Attempted))
		if ws.Failed > 0 {
			code = 1
		}
		printWorkload(mf, sp.name, ws)
	}
	doc, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(doc))
	if o.out != "" {
		if err := os.WriteFile(o.out, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	return code
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printWorkload writes the human table of one workload to stderr.
func printWorkload(mf *manifest, name string, ws *workloadSummary) {
	w := os.Stderr
	fmt.Fprintf(w, "\n== %s  attempted %d  failed %d\n", name, ws.Attempted, ws.Failed)
	fmt.Fprintf(w, "  %-34s %12s %12s %12s %8s  %s\n", "end-to-end", "median", "min", "max", "spread", "unit")
	for _, d := range mf.EndToEnd {
		s, ok := ws.EndToEnd[d.Name]
		if !ok {
			continue
		}
		mark := ""
		if s.Spread > 0.1 || s.Spread > d.Bound/3 {
			mark = "  ! spread above a tenth or a third of the bound"
		}
		fmt.Fprintf(w, "  %-34s %12.4f %12.4f %12.4f %7.1f%%  %s%s\n", d.Name, s.Median, s.Min, s.Max, 100*s.Spread, s.Unit, mark)
	}
	fmt.Fprintf(w, "  %-44s %14s  %s\n", "per-layer (traced pass)", "value", "unit")
	for _, d := range mf.PerLayer {
		if m, ok := ws.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-44s %14.4f  %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// compareFiles prints, per (workload, end-to-end metric), whether NEW
// is better, within the bound, worse, or unresolved (the runs' own
// spread is wider than the bound) against OLD, using the bounds in
// BENCHMARK.json. It returns 1 on any "worse" or on a higher
// failed_share, else 0.
func compareFiles(oldPath, newPath string) int {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	load := func(p string) *summary {
		b, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		var s summary
		if err := json.Unmarshal(b, &s); err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		return &s
	}
	oldS, newS := load(oldPath), load(newPath)
	code := 0
	fmt.Printf("%-16s %-28s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	for _, wl := range mf.Workloads {
		ow, nw := oldS.Workloads[wl.Name], newS.Workloads[wl.Name]
		if ow == nil || nw == nil {
			fmt.Printf("%-16s missing from one summary\n", wl.Name)
			code = 1
			continue
		}
		for _, d := range mf.EndToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			if len(o.Values) == 0 || len(n.Values) == 0 || o.Median == 0 {
				fmt.Printf("%-16s %-28s missing from one summary\n", wl.Name, d.Name)
				code = 1
				continue
			}
			worse := (n.Median - o.Median) / o.Median // relative worsening
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max(o.Spread, n.Spread)
			verdict := "within bound"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "WORSE"
				code = 1
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Printf("%-16s %-28s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, d.Name, o.Median, n.Median, 100*(n.Median-o.Median)/o.Median, 100*spread, 100*d.Bound, verdict)
		}
		if nw.FailedShare > ow.FailedShare {
			fmt.Printf("%-16s %-28s %12.6f %12.6f  WORSE\n", wl.Name, "failed_share", ow.FailedShare, nw.FailedShare)
			code = 1
		}
	}
	return code
}
