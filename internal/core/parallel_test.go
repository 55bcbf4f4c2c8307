package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/geom"
)

// The randomized parallel↔sequential equivalence suite: SGB-Any's
// level split must produce member-for-member identical groupings at
// every worker count under every algorithm, across {L2, L∞} ×
// d ∈ {1, 2, 3}. SGB-All has no parallel arm; TestParallelCliquesValid
// pins that Options.Parallelism changes nothing about it.

func randTestPoints(r *rand.Rand, n, d int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = r.Float64() * span
		}
		pts[i] = p
	}
	return pts
}

func trialsFor(t *testing.T) int {
	if testing.Short() {
		return 1
	}
	return 3
}

// parallelisms are the Parallelism values the level-split suites run
// at: auto, sequential, and 2, 3 and 8 workers — more workers than
// levels among them.
var parallelisms = []int{0, 1, 2, 3, 8}

// TestParallelAnyEquivalence holds SweepAny at k ∈ {1, 2, 3, 5} levels
// under every finder and every Parallelism to the sequential grid sweep,
// level by level, and a one-level list to SGBAny as well.
func TestParallelAnyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 3} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for trial := 0; trial < trialsFor(t); trial++ {
				n := 200 + r.Intn(300)
				pts := randTestPoints(r, n, d, 7)
				for _, k := range []int{1, 2, 3, 5} {
					levels := make([]float64, k)
					for l := range levels {
						levels[l] = 0.1 + r.Float64()*0.4
					}
					seq, err := SweepAny(pts, levels, Options{Metric: m, Algorithm: GridIndex, Parallelism: 1})
					if err != nil {
						t.Fatal(err)
					}
					for _, alg := range anyStrategies {
						for _, par := range parallelisms {
							what := fmt.Sprintf("d=%d metric=%v alg=%v Parallelism=%d levels=%v", d, m, alg, par, levels)
							st := &Stats{}
							got, err := SweepAny(pts, levels, Options{Metric: m, Algorithm: alg, Parallelism: par, Stats: st})
							if err != nil {
								t.Fatal(err)
							}
							for l := range levels {
								if !reflect.DeepEqual(got[l].Groups, seq[l].Groups) {
									t.Fatalf("%s ε=%v: grouping differs from sequential (%d vs %d groups)",
										what, levels[l], len(got[l].Groups), len(seq[l].Groups))
								}
							}
							checkMerges(t, what, n, got, st)
							if k == 1 {
								one, err := SGBAny(pts, Options{Metric: m, Eps: levels[0], Algorithm: alg, Parallelism: par})
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(one.Groups, seq[0].Groups) {
									t.Fatalf("%s: SGBAny differs from the sequential sweep", what)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPipelineHandsPanicBack: a panic on one level worker comes back to
// the goroutine that runs the evaluation, where a caller can recover
// it, instead of killing the process. An unknown metric, which
// Options.Validate would have refused, panics in every distance call.
// The points lie on a line one apart, so the levels below 0.5 find no
// neighbouring cells and compute no distance: at two and four workers
// only the ranges holding a level of 1 or more panic, and the first of
// them is handed back once the others are done.
func TestPipelineHandsPanicBack(t *testing.T) {
	ps := geom.NewPointSetCap(1, 50)
	for i := 0; i < 50; i++ {
		ps.Extend()[0] = float64(i)
	}
	opt := Options{Metric: geom.Metric(99), Algorithm: GridIndex}
	levels := []float64{0.01, 0.02, 0.03, 1.5}
	calm := func() (p any) {
		defer func() { p = recover() }()
		sgbAnyLevels(ps, opt, levels[:2], 1)
		return nil
	}()
	if calm != nil {
		t.Fatalf("the lowest levels panic on their own: %v", calm)
	}
	for _, workers := range []int{1, 2, 4} {
		got := func() (p any) {
			defer func() { p = recover() }()
			sgbAnyLevels(ps, opt, levels, workers)
			return nil
		}()
		if got != "geom: unknown metric" {
			t.Fatalf("workers=%d: the evaluation handed back %v, want the metric's panic", workers, got)
		}
	}
}

// TestParallelAnyMatchesComponents pins every level of a sweep split
// across four workers to the brute-force connected-components
// reference, not just to the sequential operator.
func TestParallelAnyMatchesComponents(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pts := randTestPoints(r, 400, 2, 6)
	levels := []float64{0.1, 0.2, 0.3, 0.5}
	got, err := SweepAny(pts, levels, Options{Metric: geom.L2, Algorithm: GridIndex, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for l, eps := range levels {
		if want := ConnectedComponents(pts, geom.L2, eps); !SameGrouping(got[l].Groups, want) {
			t.Fatalf("ε=%v: the split sweep does not match connected components: %d vs %d groups", eps, len(got[l].Groups), len(want))
		}
	}
}

// TestParallelCliquesValid pins what Options.Parallelism means for
// SGB-All: nothing. At an input size where auto mode engages SGB-Any's
// pipeline, every ON-OVERLAP clause answers member for member the same
// at Parallelism 0, 1, 2 and 8, starts no goroutine while it does, and
// every group is a clique with every point accounted for.
func TestParallelCliquesValid(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pts := randTestPoints(r, parallelThreshold+300, 2, 20)
	// The collector starts its mark workers at the first cycle, and for a
	// moment the runtime counts one it is starting as a user goroutine:
	// have them exist before anything is counted.
	runtime.GC()
	for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
		var seq *Result
		for _, par := range []int{1, 0, 2, 8} {
			opt := Options{Metric: geom.L2, Eps: 0.4, Overlap: ov, Algorithm: GridIndex, Parallelism: par, Seed: 9}
			var res *Result
			var err error
			if peak, base := peakGoroutines(func() { res, err = SGBAll(pts, opt) }); peak != base {
				t.Fatalf("overlap=%v Parallelism=%d: %d goroutines during the call, %d before it", ov, par, peak, base)
			}
			if err != nil {
				t.Fatal(err)
			}
			if seq == nil {
				seq = res
				if err := CheckCliques(pts, geom.L2, 0.4, res); err != nil {
					t.Fatalf("overlap=%v: %v", ov, err)
				}
				continue
			}
			if !reflect.DeepEqual(res.Groups, seq.Groups) || !reflect.DeepEqual(res.Eliminated, seq.Eliminated) {
				t.Fatalf("overlap=%v Parallelism=%d: result differs from Parallelism=1", ov, par)
			}
		}
	}
}

// peakGoroutines runs f and returns the highest runtime.NumGoroutine a
// sampler saw while f ran, beside the count just before f started (the
// sampler included in both).
func peakGoroutines(f func()) (peak, base int) {
	var stop atomic.Bool
	started, done := make(chan int), make(chan int)
	go func() {
		n := runtime.NumGoroutine()
		started <- n
		for !stop.Load() {
			n = max(n, runtime.NumGoroutine())
			runtime.Gosched()
		}
		done <- n
	}()
	base = <-started
	f()
	stop.Store(true)
	return <-done, base
}

// TestParallelDenseSingleCell: a dense blob occupying one ε-cell at
// every level, where each range's first level joins the whole input
// inside one cell, answers at every Parallelism what the sequential
// sweep answers.
func TestParallelDenseSingleCell(t *testing.T) {
	n := 2000
	pts := make([]geom.Point, n)
	r := rand.New(rand.NewSource(13))
	for i := range pts {
		pts[i] = geom.Point{r.Float64() * 0.1, r.Float64() * 0.1}
	}
	levels := []float64{0.5, 1, 2}
	seq, err := SweepAny(pts, levels, Options{Metric: geom.L2, Algorithm: GridIndex, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms {
		got, err := SweepAny(pts, levels, Options{Metric: geom.L2, Algorithm: GridIndex, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Fatalf("Parallelism=%d: a single-cell sweep differs from sequential", par)
		}
	}
}

func TestValidateParallelism(t *testing.T) {
	base := Options{Metric: geom.L2, Eps: 1}
	for _, p := range []int{0, 1, 8} {
		opt := base
		opt.Parallelism = p
		if err := opt.Validate(); err != nil {
			t.Fatalf("Parallelism=%d should validate: %v", p, err)
		}
	}
	opt := base
	opt.Parallelism = -1
	if err := opt.Validate(); err == nil {
		t.Fatal("Parallelism=-1 must be rejected")
	}
}

// TestParallelismAutoThreshold verifies the auto setting stays
// sequential below the input-size threshold and for explicitly
// selected comparison strategies — and that explicit worker counts
// always engage. (There is no dimensionality cap anymore: the hashed
// cell keys let auto parallelism engage at every d.)
func TestParallelismAutoThreshold(t *testing.T) {
	opt := Options{Metric: geom.L2, Eps: 1, Algorithm: GridIndex}
	if w := opt.workers(parallelThreshold - 1); w != 1 {
		t.Fatalf("auto below threshold: got %d workers, want 1", w)
	}
	for _, alg := range []Algorithm{AllPairs, BoundsCheck, OnTheFlyIndex} {
		o := opt
		o.Algorithm = alg
		if w := o.workers(1 << 20); w != 1 {
			t.Fatalf("auto must not override explicit %v: got %d workers", alg, w)
		}
	}
	opt.Parallelism = 2
	if w := opt.workers(100); w != 2 {
		t.Fatalf("explicit parallelism on small input: got %d workers, want 2", w)
	}
	opt.Algorithm = AllPairs
	if w := opt.workers(100); w != 2 {
		t.Fatalf("explicit parallelism must engage for any algorithm, got %d", w)
	}
	opt.Parallelism = 1
	opt.Algorithm = GridIndex
	if w := opt.workers(1 << 20); w != 1 {
		t.Fatalf("Parallelism=1 must force sequential, got %d", w)
	}
	// Auto mode resolves to GOMAXPROCS above the threshold.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	opt.Parallelism = 0
	if w := opt.workers(parallelThreshold); w != 2 {
		t.Fatalf("auto workers at GOMAXPROCS=2: %d, want 2", w)
	}
}

// BenchmarkAnyLevelFloor reads the level split's floor over
// eps_cube_cold's shape: 8 000 Brightkite-profile check-ins, L2, at its
// lists of k = 2, 3, 5 and 8 levels. Run it on one core, so that every
// timer reads work rather than wall time,
//
//	go test -run '^$' -bench AnyLevelFloor -cpu 1 -benchtime 20x ./internal/core/
//
// It times the sequential evaluation (seq-ms), then each range of the
// split at w = 2 and w = 4 workers (w = min(workers, k)) one after
// another. Nothing of the split is serial but a Stats merge, and a range
// is not divisible, so the floor at w workers is
//
//	floor(w) = the largest range's time
//
// and seq/floor-w is a speed-up no schedule of w workers can beat. A
// parallel path is kept only while it clears 1.3 ×; ARCHITECTURE.md
// records the verdict.
func BenchmarkAnyLevelFloor(b *testing.B) {
	ps := geom.FromPoints(checkin.Points(checkin.Brightkite(8000)))
	for _, levels := range [][]float64{
		{0.1, 0.4},
		{0.1, 0.2, 0.4},
		{0.05, 0.1, 0.2, 0.4, 0.8},
		{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8},
	} {
		k := len(levels)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			opt := Options{Metric: geom.L2, Algorithm: GridIndex}
			out := make([][]Group, k)
			var seq time.Duration
			largest := map[int]time.Duration{}
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				sgbAnyLevels(ps, opt, levels, 1)
				seq += time.Since(t0)
				for _, workers := range []int{2, 4} {
					w := min(workers, k)
					var worst time.Duration
					for r := 0; r < w; r++ {
						lo, hi := r*k/w, (r+1)*k/w
						t0 = time.Now()
						anyRange(ps, opt, levels[lo:hi], out[lo:hi])
						worst = max(worst, time.Since(t0))
					}
					largest[workers] += worst
				}
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(b.N) / 1e6 }
			b.ReportMetric(ms(seq), "seq-ms")
			for _, workers := range []int{2, 4} {
				b.ReportMetric(ms(largest[workers]), fmt.Sprintf("floor-%d-ms", workers))
				b.ReportMetric(ms(seq)/ms(largest[workers]), fmt.Sprintf("seq/floor-%d", workers))
			}
		})
	}
}

// TestParallelAnyRoundingPair pins a pair exactly ε = 0.8 apart,
// (1.5999999999999999, 0) and (2.4, 0), which floor(x/ε) puts in cells
// 1 and 3, beside far clusters: under both metrics every finder joins
// it at every Parallelism, single-ε and as the top level of a sweep
// whose ranges split it from lower levels, as All-Pairs does.
func TestParallelAnyRoundingPair(t *testing.T) {
	pts := []geom.Point{{1.5999999999999999, 0}, {2.4, 0}}
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Point{2.0, 10 + 0.01*float64(i)})
	}
	for i := 0; i < 5; i++ {
		pts = append(pts, geom.Point{40, 10 + 0.01*float64(i)}, geom.Point{-40, 10 + 0.01*float64(i)})
	}
	const eps = 0.8
	levels := []float64{0.005, 0.4, eps}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		if !m.Within(pts[0], pts[1], eps) {
			t.Fatalf("metric=%v: the pair is not within ε", m)
		}
		want, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: AllPairs})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range anyStrategies {
			for _, par := range parallelisms {
				got, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: alg, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				swept, err := SweepAny(pts, levels, Options{Metric: m, Algorithm: alg, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				for how, res := range map[string]*Result{"single-ε": got, "sweep": swept[2]} {
					if !reflect.DeepEqual(res.Groups, want.Groups) {
						t.Fatalf("%s metric=%v alg=%v Parallelism=%d: %v, All-Pairs has %v", how, m, alg, par, res.Groups, want.Groups)
					}
					if len(res.Groups[0].Members) != 2 || res.Groups[0].Members[1] != 1 {
						t.Fatalf("%s metric=%v alg=%v Parallelism=%d: the pair is split: %v", how, m, alg, par, res.Groups)
					}
				}
			}
		}
	}
}

// TestParallelAnyCoarseKey: at d = 4, with every axis spanning 2^17
// ε-cells, a point's cell coordinates need more than 64 bits, so the
// cell graph sorts by two keys. Every level of a sweep equals the
// sequential one at every Parallelism.
func TestParallelAnyCoarseKey(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const eps = 0.5
	pts := make([]geom.Point, 0, 801)
	for c := 0; c < 50; c++ {
		// Clusters across the wide axes, so groups span several points.
		centre := make(geom.Point, 4)
		for k := range centre {
			centre[k] = float64(r.Intn(100)) * eps * (1 << 17) / 100
		}
		for i := 0; i < 16; i++ {
			p := make(geom.Point, 4)
			for k := range p {
				p[k] = centre[k] + r.Float64()*0.6
			}
			pts = append(pts, p)
		}
	}
	pts = append(pts, geom.Point{eps * (1 << 17), eps * (1 << 17), eps * (1 << 17), eps * (1 << 17)})
	levels := []float64{eps / 2, eps}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		seq, err := SweepAny(pts, levels, Options{Metric: m, Algorithm: GridIndex, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq[1].Groups) >= len(pts)-10 {
			t.Fatalf("metric=%v: %d groups over %d points joins too little to test", m, len(seq[1].Groups), len(pts))
		}
		for _, par := range parallelisms {
			got, err := SweepAny(pts, levels, Options{Metric: m, Algorithm: GridIndex, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, seq) {
				t.Fatalf("metric=%v Parallelism=%d: grouping differs from Parallelism 1", m, par)
			}
		}
	}
}
