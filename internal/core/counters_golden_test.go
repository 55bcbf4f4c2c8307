package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/geom"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenSample is a fixed Brightkite-profile sample: the first n
// check-ins in two dimensions, and in three with a Gaussian third axis
// (the shape of sql_cold's 3-d ELIMINATE statement, whose L2 refinement
// scans members instead of consulting a hull).
func goldenSample(n, dims int) *geom.PointSet {
	cfg := checkin.Brightkite(n)
	r := rand.New(rand.NewSource(cfg.Seed ^ 0x5a17))
	ps := geom.NewPointSetCap(dims, n)
	for _, p := range checkin.Points(cfg) {
		q := ps.Extend()
		copy(q, p)
		if dims == 3 {
			q[2] = r.NormFloat64() * 0.25
		}
	}
	return ps
}

// resultDigest prints a grouping compactly: the group and eliminated
// counts, and an FNV-64a hash over every group's members in order and
// the eliminated list in order.
func resultDigest(res *Result) string {
	h := fnv.New64a()
	for _, g := range res.Groups {
		fmt.Fprint(h, g.Members, ";")
	}
	fmt.Fprint(h, "|", res.Eliminated)
	return fmt.Sprintf("groups=%d elim=%d hash=%016x", len(res.Groups), len(res.Eliminated), h.Sum64())
}

// TestSGBAllCountersGolden pins every SGB-All strategy's output and
// work: for each strategy × ON-OVERLAP clause × metric × ε over a fixed
// check-in sample, the grouping (member order included), Eliminated and
// every Stats field, one-shot at d = 2 and 3, and an AllEvaluator
// driven through appends and removals at d = 2. Cross-strategy tests
// only hold the counters relative to each other; this one fails if a
// change to the finders moves a single count. Regenerate with
// `go test -run TestSGBAllCountersGolden -update ./internal/core/` only
// when a change is meant to move them.
func TestSGBAllCountersGolden(t *testing.T) {
	samples := map[int]*geom.PointSet{2: goldenSample(3000, 2), 3: goldenSample(3000, 3)}
	var b strings.Builder
	for _, dims := range []int{2, 3} {
		for _, alg := range allAlgorithms {
			for _, ov := range allOverlaps {
				for _, m := range allMetrics {
					for _, eps := range []float64{0.05, 0.2, 0.8} {
						st := &Stats{}
						opt := Options{Metric: m, Eps: eps, Overlap: ov, Algorithm: alg, Seed: 3, Stats: st}
						res, err := SGBAllSet(samples[dims], opt)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&b, "oneshot d=%d %v %v %v eps=%v %s %+v\n", dims, alg, ov, m, eps, resultDigest(res), *st)
					}
				}
			}
		}
	}
	for _, alg := range allAlgorithms {
		for _, ov := range allOverlaps {
			for _, m := range allMetrics {
				st := &Stats{}
				res := maintainedGoldenRun(t, samples[2], Options{Metric: m, Eps: 0.2, Overlap: ov, Algorithm: alg, Seed: 3, Stats: st})
				fmt.Fprintf(&b, "maintained d=2 %v %v %v eps=0.2 %s %+v\n", alg, ov, m, resultDigest(res), *st)
			}
		}
	}
	path := filepath.Join("testdata", "sgball_counters.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
}

// maintainedGoldenRun appends the first 2 000 points of ps in batches of
// 500, with an oldest-first window removal and a scattered removal
// between them, and returns the final Result.
func maintainedGoldenRun(t *testing.T, ps *geom.PointSet, opt Options) *Result {
	t.Helper()
	ev, err := NewAllEvaluator(opt)
	if err != nil {
		t.Fatal(err)
	}
	window := make([]int, 120)
	for i := range window {
		window[i] = i
	}
	scattered := []int{3, 50, 51, 400, 777, 1001, 1290}
	for k := 0; k < 4; k++ {
		if err := ev.Append(ps.Slice(500*k, 500*(k+1))); err != nil {
			t.Fatal(err)
		}
		switch k {
		case 1:
			err = ev.Remove(window)
		case 2:
			err = ev.Remove(scattered)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return ev.Result()
}
