package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/partition"
)

// The randomized parallel↔sequential equivalence suite: SGB-Any's
// parallel pipeline must produce member-for-member identical groupings
// at every worker count under every algorithm, across {L2, L∞} ×
// d ∈ {1, 2, 3}. SGB-All has no pipeline; TestParallelCliquesValid pins
// that Options.Parallelism changes nothing about it.

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

func TestParallelAnyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 3} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for trial := 0; trial < trialsFor(t); trial++ {
				n := 200 + r.Intn(300)
				pts := randTestPoints(r, n, d, 7)
				eps := 0.1 + r.Float64()*0.4
				seq, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: GridIndex, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range []Algorithm{AllPairs, OnTheFlyIndex, GridIndex} {
					for _, workers := range []int{2, 3, 8} {
						st := &Stats{}
						opt := Options{Metric: m, Eps: eps, Algorithm: alg, Parallelism: workers, Stats: st}
						got, err := SGBAny(pts, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Groups, seq.Groups) {
							t.Fatalf("d=%d metric=%v alg=%v workers=%d eps=%.3f: parallel grouping differs from sequential (%d vs %d groups)",
								d, m, alg, workers, eps, len(got.Groups), len(seq.Groups))
						}
					}
				}
			}
		}
	}
}

// TestPipelineHandsPanicBack: a panic on one of the SGB-Any pipeline's
// own goroutines — a tile worker or a frontier probe worker — comes
// back to the goroutine that runs the pipeline, where a caller can
// recover it, instead of killing the process. An unknown metric, which
// Options.Validate would have refused, panics in every distance call
// of both stages.
func TestPipelineHandsPanicBack(t *testing.T) {
	ps := geom.FromPoints(randTestPoints(rand.New(rand.NewSource(3)), 600, 2, 6))
	const eps = 0.3
	for _, workers := range []int{1, 2, 4} {
		if workers > 1 {
			if plan := partition.Split(ps, eps, workers); plan == nil || len(plan.Frontier) == 0 {
				t.Fatalf("workers=%d: the input does not tile with a frontier", workers)
			}
		}
		opt := Options{Metric: geom.Metric(99), Eps: eps, Algorithm: GridIndex}
		got := func() (p any) {
			defer func() { p = recover() }()
			sgbAnyLevels(ps, opt, []float64{opt.Metric.EpsKey(eps)}, workers)
			return nil
		}()
		if got != "geom: unknown metric" {
			t.Fatalf("workers=%d: the pipeline handed back %v, want the metric's panic", workers, got)
		}
	}
}

// TestAnyFrontierPairsExact holds the tiled pipeline's frontier probe to
// brute force, under both metrics at d ∈ {2, 3, 5}, at one and three
// workers: it keeps every pair within ε whose endpoints lie in different
// runs exactly once, by the endpoint in the later run, with the key
// DistKey gives it bit for bit, and a probe that keeps no pair leaves no
// run.
func TestAnyFrontierPairsExact(t *testing.T) {
	type pair struct {
		lo, hi int32
		key    uint64
	}
	r := rand.New(rand.NewSource(5))
	for _, d := range []int{2, 3, 5} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for trial := 0; trial < 3; trial++ {
				eps := 0.2 + r.Float64()*0.5
				ps := geom.FromPoints(randTestPoints(r, 400, d, 8))
				plan := partition.Split(ps, eps, 4+4*trial)
				if plan == nil {
					t.Fatal("expected a plan")
				}
				eval := ps.Gather(plan.Perm)
				runOf := make([]int, eval.Len())
				for pos := range runOf {
					for plan.Ends[runOf[pos]] <= int32(pos) {
						runOf[pos]++
					}
				}
				want := map[pair]bool{}
				for i := 0; i < eval.Len(); i++ {
					for j := i + 1; j < eval.Len(); j++ {
						if eval.Within(m, i, j, eps) && runOf[i] != runOf[j] {
							want[pair{int32(i), int32(j), math.Float64bits(eval.DistKey(m, i, j))}] = true
						}
					}
				}
				for _, workers := range []int{1, 3} {
					got := map[pair]bool{}
					for _, runs := range anyFrontier(eval, plan, Options{Metric: m, Eps: eps}, m.EpsKey(eps), workers) {
						start := int32(0)
						for k, end := range runs.ends {
							if end == start {
								t.Fatalf("d=%d workers=%d: probe %d left an empty run", d, workers, runs.probes[k])
							}
							for x := start; x < end; x++ {
								p := pair{runs.ids[x], runs.probes[k], math.Float64bits(runs.keys[x])}
								if got[p] {
									t.Fatalf("d=%d workers=%d: pair %+v kept twice", d, workers, p)
								}
								got[p] = true
							}
							start = end
						}
					}
					if len(got) != len(want) {
						t.Fatalf("d=%d workers=%d: %d frontier pairs, brute force has %d", d, workers, len(got), len(want))
					}
					for p := range want {
						if !got[p] {
							t.Fatalf("d=%d workers=%d: the frontier misses %+v", d, workers, p)
						}
					}
				}
			}
		}
	}
}

// TestParallelAnyMatchesComponents pins the parallel pipeline to the
// brute-force connected-components reference, not just to the
// sequential operator.
func TestParallelAnyMatchesComponents(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pts := randTestPoints(r, 400, 2, 6)
	const eps = 0.3
	want := ConnectedComponents(pts, geom.L2, eps)
	got, err := SGBAny(pts, Options{Metric: geom.L2, Eps: eps, Algorithm: GridIndex, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !SameGrouping(got.Groups, want) {
		t.Fatalf("parallel SGB-Any does not match connected components: %d vs %d groups", len(got.Groups), len(want))
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

// TestParallelDenseSingleTile pins the degenerate-input fallback: a
// dense blob occupying one ε-cell cannot be partitioned, so the
// parallel dispatch must decline and the sequential path must still
// answer — identically to a forced-sequential run.
func TestParallelDenseSingleTile(t *testing.T) {
	n := 2000
	pts := make([]geom.Point, n)
	r := rand.New(rand.NewSource(13))
	for i := range pts {
		pts[i] = geom.Point{r.Float64() * 0.1, r.Float64() * 0.1}
	}
	base := Options{Metric: geom.L2, Eps: 1, Algorithm: GridIndex}
	seqOpt := base
	seqOpt.Parallelism = 1
	seq, err := SGBAny(pts, seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	parOpt := base
	parOpt.Parallelism = 4
	got, err := SGBAny(pts, parOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, seq.Groups) {
		t.Fatal("single-tile fallback grouping differs from sequential")
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

// BenchmarkAnyPipelinePhases times SGB-Any's tiled pipeline phase by
// phase at a four-tile split, beside the sequential evaluation, over
// sql_cold's DISTANCE-TO-ANY shape: 12 000 Brightkite-profile check-ins,
// L2, at its three ε, and over eps_cube_cold's eight-level L2 list
// (levels=8: one forest per level, tiles cut at the top). Run it on one
// core, so that every timer reads work rather than wall time,
//
//	go test -run '^$' -bench AnyPipelinePhases -cpu 1 -benchtime 20x ./internal/core/
//
// and read Brent's bound T_p ≥ max(W / p, S) off it by PR 24's rule:
// split (the Z-order sort, the cuts and the frontier test) plus the
// gather and the merge (Union-Find reduction plus group extraction)
// serial, tiles and frontier perfectly divisible,
//
//	floor(p) = split + merge + (tiles + frontier) / p
//
// seq/floor4 is a speed-up no four-core schedule can beat; seq/spanfloor4
// bounds it tighter by the largest tile, which no schedule divides.
// frontier-share is the frontier's share of the input. ARCHITECTURE.md
// records the verdict.
func BenchmarkAnyPipelinePhases(b *testing.B) {
	ps := geom.FromPoints(checkin.Points(checkin.Brightkite(12000)))
	for _, c := range []struct {
		name   string
		levels []float64
	}{
		{"eps=0.05", []float64{0.05}}, {"eps=0.2", []float64{0.2}}, {"eps=0.8", []float64{0.8}},
		{"levels=8", []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8}},
	} {
		eps := c.levels[len(c.levels)-1]
		b.Run(c.name, func(b *testing.B) {
			opt := Options{Metric: geom.L2, Eps: eps, Algorithm: GridIndex, Parallelism: 1}
			keys := make([]float64, len(c.levels))
			for l, e := range c.levels {
				keys[l] = opt.Metric.EpsKey(e)
			}
			var seq, split, tiles, largest, front, merge time.Duration
			var frontier int
			lap := func(d *time.Duration, t0 time.Time) time.Duration {
				e := time.Since(t0)
				*d += e
				return e
			}
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				sgbAnyLevels(ps, opt, keys, 1)
				lap(&seq, t0)

				t0 = time.Now()
				plan := partition.Split(ps, eps, 4)
				if plan == nil {
					b.Fatal("the input does not split into tiles")
				}
				eval := ps.Gather(plan.Perm)
				lap(&split, t0)
				frontier += len(plan.Frontier)
				fs := make([]*anyForests, len(plan.Ends))
				var worst time.Duration
				for t := range plan.Ends {
					t0 = time.Now()
					tile := eval.Slice(runStart(plan, t), int(plan.Ends[t]))
					fs[t] = newAnyForests(keys, tile.Len())
					sgbAnyLocal(tile, opt, fs[t])
					worst = max(worst, lap(&tiles, t0))
				}
				largest += worst
				t0 = time.Now()
				runs := anyFrontier(eval, plan, opt, keys[len(keys)-1], 1)
				lap(&front, t0)
				t0 = time.Now()
				f := newAnyForests(keys, eval.Len())
				anyMerge(f, plan, fs, runs, opt)
				inv := invertPerm(plan.Perm)
				for _, uf := range f.ufs {
					groupsFromUF(uf, inv)
				}
				lap(&merge, t0)
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(b.N) / 1e6 }
			serial, work := ms(split)+ms(merge), ms(tiles)+ms(front)
			floor, span := serial+work/4, serial+max(work/4, ms(largest))
			for _, m := range []struct {
				unit string
				v    float64
			}{
				{"seq-ms", ms(seq)}, {"split-ms", ms(split)},
				{"tiles-ms", ms(tiles)}, {"largest-tile-ms", ms(largest)}, {"frontier-ms", ms(front)},
				{"merge-ms", ms(merge)}, {"floor4-ms", floor}, {"seq/floor4", ms(seq) / floor},
				{"seq/spanfloor4", ms(seq) / span},
				{"frontier-share", float64(frontier) / float64(b.N) / float64(ps.Len())},
			} {
				b.ReportMetric(m.v, m.unit)
			}
		})
	}
}

// TestParallelAnyRoundingPair pins a pair the tiled pipeline once lost:
// (1.5999999999999999, 0) and (2.4, 0) are exactly ε = 0.8 apart, but
// floor(x/ε) puts them in cells 1 and 3, so a frontier of the cell
// layers touching a cut misses the one that is not next to it. The
// first input is the one a per-axis cutter split after cell 2; the
// second puts the pair across a run boundary of the Z-order cutter.
// Under both metrics the pipeline must join them at every worker
// count, as the sequential run and All-Pairs do.
func TestParallelAnyRoundingPair(t *testing.T) {
	pair := []geom.Point{{1.5999999999999999, 0}, {2.4, 0}}
	cutter := append([]geom.Point(nil), pair...)
	for i := 0; i < 10; i++ {
		cutter = append(cutter, geom.Point{2.0, 10 + 0.01*float64(i)})
	}
	for i := 0; i < 5; i++ {
		cutter = append(cutter, geom.Point{40, 10 + 0.01*float64(i)}, geom.Point{-40, 10 + 0.01*float64(i)})
	}
	across := append([]geom.Point(nil), pair...)
	for i := 0; i < 4; i++ {
		across = append(across, geom.Point{-40, 10 + 0.01*float64(i)}, geom.Point{40, 10 + 0.01*float64(i)})
	}
	const eps = 0.8
	plan := partition.Split(geom.FromPoints(across), eps, 2)
	if plan == nil {
		t.Fatal("the across input does not tile")
	}
	inFirstRun := func(id int32) bool { return slices.Index(plan.Perm, id) < int(plan.Ends[0]) }
	if inFirstRun(0) == inFirstRun(1) {
		t.Fatal("the across input no longer puts the pair in two runs")
	}
	for name, pts := range map[string][]geom.Point{"cutter": cutter, "across": across} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			if !m.Within(pts[0], pts[1], eps) {
				t.Fatalf("%s metric=%v: the pair is not within ε", name, m)
			}
			want, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: AllPairs})
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []Algorithm{AllPairs, OnTheFlyIndex, GridIndex} {
				for _, workers := range []int{1, 2, 3, 4} {
					got, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: alg, Parallelism: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Groups, want.Groups) {
						t.Fatalf("%s metric=%v alg=%v workers=%d: %v, All-Pairs has %v", name, m, alg, workers, got.Groups, want.Groups)
					}
					if len(got.Groups[0].Members) != 2 || got.Groups[0].Members[1] != 1 {
						t.Fatalf("%s metric=%v alg=%v workers=%d: the pair is split: %v", name, m, alg, workers, got.Groups)
					}
				}
			}
		}
	}
}

// TestParallelAnyCoarseKey: at d = 4 the Z-order key has 16 bits an
// axis, so an axis spanning 2^17 ε-cells is keyed in coarser cells. The
// input still tiles, and its grouping equals the sequential one at
// every worker count.
func TestParallelAnyCoarseKey(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const eps = 0.5
	pts := make([]geom.Point, 0, 801)
	for i := 0; i < 800; i++ {
		// Clusters along the wide axis, so groups span several points.
		c := float64(r.Intn(100)) * eps * (1 << 17) / 100
		pts = append(pts, geom.Point{c + r.Float64(), r.Float64(), r.Float64(), r.Float64()})
	}
	pts = append(pts, geom.Point{eps * (1 << 17), 0, 0, 0})
	if plan := partition.Split(geom.FromPoints(pts), eps, 4); plan == nil || len(plan.Ends) != 4 {
		t.Fatal("a 2^17-cell axis at d=4 must tile four ways")
	}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		seq, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: GridIndex, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Groups) >= len(pts)-10 {
			t.Fatalf("metric=%v: %d groups over %d points joins too little to test", m, len(seq.Groups), len(pts))
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: GridIndex, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Groups, seq.Groups) {
				t.Fatalf("metric=%v workers=%d: grouping differs from Parallelism 1", m, workers)
			}
		}
	}
}
