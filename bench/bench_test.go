package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimes pins the self-time rule on a synthetic span tree: a
// span's self time is its duration minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "nested", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "grandchild", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "overlapA", Start: 50, End: 70},
		{ID: 5, Parent: 1, Name: "overlapB", Start: 60, End: 80}, // overlaps A: union is 50..80
		{ID: 6, Parent: 1, Name: "parallel", Start: 55, End: 65}, // inside the union already
		{ID: 7, Parent: 1, Name: "spill", Start: 95, End: 120},   // clipped to 95..100
	}
	want := map[int]int64{1: 100 - 30 - 30 - 5, 2: 20, 3: 10, 4: 20, 5: 20, 6: 10, 7: 25}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

// TestQuartile checks the spread statistic against Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := quartile(v, i+1); got != want {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
}

// TestRefScale pins the reference-time rule: the kernel time is the
// mean of the middle four fifths of the timings, a kernel at its quiet
// time leaves wall time as it is, and a slower one scales it down by
// the ratio to the power hostElasticity.
func TestRefScale(t *testing.T) {
	if got := kernelMs([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 5.5 {
		t.Errorf("kernelMs = %v, want 5.5 (the mean of 2..9)", got)
	}
	quiet := []float64{refKernelMs, refKernelMs, refKernelMs}
	if got := refScale(quiet); got != 1 {
		t.Errorf("refScale at the quiet kernel time = %v, want 1", got)
	}
	slow := []float64{4 * refKernelMs}
	if got, want := refScale(slow), 0.125; math.Abs(got-want) > 1e-12 {
		t.Errorf("refScale at four times the quiet kernel time = %v, want %v", got, want)
	}
}

// TestSmoke runs every workload at tiny scale, end to end and traced,
// and checks that each emits exactly the metric names and units
// BENCHMARK.json declares and fails nothing; that one seed gives one
// statement stream and identical counts, and another seed another
// stream.
func TestSmoke(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(mf.Workloads), len(specs))
	}
	scratch, err := os.MkdirTemp(".", ".smoke-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(scratch)
	const dur = 200 * time.Millisecond
	exact := []string{"core.distance_computations_per_stmt", "exec.rows_scanned_per_stmt", "wal.records",
		"wal.bytes_per_user_byte", "snapshot.bytes_per_user_byte", "cache.build_distance_computations"}

	for i, full := range specs {
		if mf.Workloads[i].Name != full.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, mf.Workloads[i].Name, full.name)
		}
		sp, err := full.scaled("tiny")
		if err != nil {
			t.Fatal(err)
		}
		matches := func(res *result, decl []declared, pass string) {
			t.Helper()
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s %s: attempted %d, failed %d", sp.name, pass, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("%s %s: %d metrics, BENCHMARK.json declares %d", sp.name, pass, len(res.Metrics), len(decl))
			}
			for _, d := range decl {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s %s: metric %s: got %+v (present %v), want unit %s", sp.name, pass, d.Name, m, ok, d.Unit)
				}
			}
		}
		e2e, err := runEndToEnd(sp, 1, dur, filepath.Join(scratch, "e2e"))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		matches(e2e, mf.EndToEnd, "end to end")

		a, err := runTraced(sp, 1, dur, filepath.Join(scratch, "a"), filepath.Join(scratch, "out"))
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		matches(a, mf.PerLayer, "traced")
		if _, err := os.Stat(filepath.Join(scratch, "out", "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", sp.name, err)
		}
		b, err := runTraced(sp, 1, dur, filepath.Join(scratch, "b"), filepath.Join(scratch, "out"))
		if err != nil {
			t.Fatalf("%s traced again: %v", sp.name, err)
		}
		if a.streamHash != b.streamHash {
			t.Errorf("%s: one seed gave two statement streams", sp.name)
		}
		for _, name := range exact {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s differs between two runs of one seed: %v, %v", sp.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		// Another seed must give another stream; generating it needs no
		// database.
		w, err := prepare(sp, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		next := sp.streams(w)[0]
		for k := 0; k < 3*sp.round; k++ {
			next()
		}
		w1, _ := prepare(sp, 1, 1)
		next = sp.streams(w1)[0]
		for k := 0; k < 3*sp.round; k++ {
			next()
		}
		if w.hash == w1.hash {
			t.Errorf("%s: seeds 1 and 2 gave the same statement stream", sp.name)
		}
	}
}
