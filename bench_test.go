// One benchmark family per evaluation artifact of the paper (Tables 1
// and 2, Figures 9–12). Each family's sub-benchmarks are the series
// the corresponding figure plots (algorithm × parameter), so
//
//	go test -bench 'Fig|Table' -benchmem
//
// reproduces the relative shapes: who wins, by what factor, and how
// runtimes move with ε and data size. cmd/sgbbench prints the same
// experiments as full sweeps in tabular form; docs/reproduction.md maps
// figure to family to experiment.
//
// The other families (Grid, Sweep, Parallel, Incremental, Window,
// AnyLevelsWideRatio, EntryBuild, WarmAnswer, ColdSQL) are the harnesses behind a
// checked-in profile (docs/pr*-profile.md) or an open ROADMAP verdict.
// None of them is the performance record: that is bench/ and
// BENCHMARK.json, `bash bench/run.sh -compare`.
package sgb_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	sgb "github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/benchkit"
	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/cluster"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/tpch"
	"github.com/sgb-db/sgb/internal/types"
)

// benchPoints generates the uniform workload of the ε sweeps.
func benchPoints(n int, seed int64) []sgb.Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]sgb.Point, n)
	for i := range pts {
		pts[i] = sgb.Point{r.Float64() * 10, r.Float64() * 10}
	}
	return pts
}

var benchAlgs = []struct {
	name string
	alg  sgb.Algorithm
}{
	{"AllPairs", sgb.AllPairs},
	{"BoundsChecking", sgb.BoundsCheck},
	{"Index", sgb.OnTheFlyIndex},
	{"Grid", sgb.GridIndex},
}

// benchSGBAll is the common body for the Figure 9a–c families.
func benchSGBAll(b *testing.B, overlap sgb.Overlap) {
	pts := benchPoints(4000, 1)
	for _, a := range benchAlgs {
		for _, eps := range []float64{0.2, 0.5, 0.8} {
			b.Run(fmt.Sprintf("%s/eps=%.1f", a.name, eps), func(b *testing.B) {
				opt := sgb.Options{Metric: sgb.L2, Eps: eps, Overlap: overlap, Algorithm: a.alg, Seed: 1, Parallelism: 1}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sgb.GroupByAll(pts, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9a — ε sweep, SGB-All JOIN-ANY across the three strategies.
func BenchmarkFig9a(b *testing.B) { benchSGBAll(b, sgb.JoinAny) }

// BenchmarkFig9b — ε sweep, SGB-All ELIMINATE.
func BenchmarkFig9b(b *testing.B) { benchSGBAll(b, sgb.Eliminate) }

// BenchmarkFig9c — ε sweep, SGB-All FORM-NEW-GROUP.
func BenchmarkFig9c(b *testing.B) { benchSGBAll(b, sgb.FormNewGroup) }

// BenchmarkFig9d — ε sweep, SGB-Any (All-Pairs vs Index).
func BenchmarkFig9d(b *testing.B) {
	pts := benchPoints(4000, 2)
	for _, a := range benchAlgs {
		if a.alg == sgb.BoundsCheck {
			continue // SGB-Any has no bounds-checking variant
		}
		for _, eps := range []float64{0.2, 0.5, 0.8} {
			b.Run(fmt.Sprintf("%s/eps=%.1f", a.name, eps), func(b *testing.B) {
				opt := sgb.Options{Metric: sgb.L2, Eps: eps, Algorithm: a.alg, Parallelism: 1}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sgb.GroupByAny(pts, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGrid — the ε-grid finder head-to-head against the R-tree
// index on the Fig9a uniform workload (n=4000, ε=0.5, L2), for both
// operators, plus the flat-storage entry point that skips the []Point
// adaptation entirely.
func BenchmarkGrid(b *testing.B) {
	pts := benchPoints(4000, 1)
	flat := sgb.FromPoints(pts)
	duel := []struct {
		name string
		alg  sgb.Algorithm
	}{
		{"Index", sgb.OnTheFlyIndex},
		{"Grid", sgb.GridIndex},
	}
	for _, a := range duel {
		b.Run("All/"+a.name, func(b *testing.B) {
			opt := sgb.Options{Metric: sgb.L2, Eps: 0.5, Overlap: sgb.JoinAny, Algorithm: a.alg, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgb.GroupByAll(pts, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, a := range duel {
		b.Run("Any/"+a.name, func(b *testing.B) {
			opt := sgb.Options{Metric: sgb.L2, Eps: 0.5, Algorithm: a.alg}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgb.GroupByAny(pts, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("All/Grid/PointSet", func(b *testing.B) {
		opt := sgb.Options{Metric: sgb.L2, Eps: 0.5, Overlap: sgb.JoinAny, Algorithm: sgb.GridIndex, Seed: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sgb.GroupByAllSet(flat, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweep — multi-ε query sharing on the Fig9a workload
// (n=4000, L2, levels evenly spaced up to ε=0.5), two ways to answer all
// k levels: Levels is the one-shot SweepAny (one probe pass feeding one
// Union-Find per level), and Oneshot runs k independent groupings.
func BenchmarkSweep(b *testing.B) {
	pts := benchPoints(4000, 1)
	flat := sgb.FromPoints(pts)
	for _, k := range []int{2, 4, 8} {
		levels := make([]float64, k)
		for i := range levels {
			levels[i] = 0.5 * float64(i+1) / float64(k)
		}
		b.Run(fmt.Sprintf("Levels/k=%d", k), func(b *testing.B) {
			opt := sgb.Options{Metric: sgb.L2, Algorithm: sgb.GridIndex}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgb.SweepAnySet(flat, levels, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Oneshot/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, eps := range levels {
					opt := sgb.Options{Metric: sgb.L2, Eps: eps, Algorithm: sgb.GridIndex}
					if _, err := sgb.GroupByAny(pts, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkParallel — SGB-Any's level split: `eps_cube_cold`'s
// eight-level L2 EPS IN list up to 0.8 over 8 000 Brightkite-profile
// check-ins through SweepAnySet at w = 1 (sequential), 2 and 4 workers,
// each evaluating a contiguous range of the levels. Results are
// identical at every worker count. A single ε always evaluates
// sequentially, and SGB-All has no parallel arm
// (docs/pr24-sgball-sequential.md), so neither has a worker sweep.
func BenchmarkParallel(b *testing.B) {
	checkins := sgb.FromPoints(checkin.Points(checkin.Brightkite(8000)))
	levels := []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("Levels/Grid/w=%d", w), func(b *testing.B) {
			opt := sgb.Options{Metric: sgb.L2, Algorithm: sgb.GridIndex, Parallelism: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgb.SweepAnySet(checkins, levels, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncremental — appending a fixed-size batch (256 points) to
// an Incremental handle preloaded with base points, against the
// one-shot cost of regrouping the whole set. Point density is held
// constant across bases (the domain area scales with base), so each
// appended point does the same local probe work at every base — the
// incremental series should stay (near-)flat as base grows, showing
// per-append cost proportional to the batch size rather than the
// accumulated dataset, while the one-shot series grows with base. The
// handle is rebuilt outside the timer whenever appends have grown it
// past 1.5× base, so every measured append runs against a retained
// set of ≈base points. The All-Eliminate arm is the one maintained
// overlap clause measured here (no bench/ workload keeps one): each
// iteration appends a batch and removes the oldest 256 rows, so it
// times a maintained ELIMINATE grouping's append on the hash grid and
// its DELETE's local replay together.
func BenchmarkIncremental(b *testing.B) {
	const batch = 256
	// span keeps density at the Fig9a workload's level (2000 points
	// over a 10×10 square) as base grows.
	span := func(base int) float64 { return 10 * math.Sqrt(float64(base)/2000) }
	points := func(seed int64, n int, span float64) *sgb.PointSet {
		r := rand.New(rand.NewSource(seed))
		ps := sgb.NewPointSet(2)
		for j := 0; j < n; j++ {
			p := ps.Extend()
			p[0], p[1] = r.Float64()*span, r.Float64()*span
		}
		return ps
	}
	// A pool of pre-built random batches, cycled through so appends
	// never re-insert identical coordinates.
	newBatches := func(seed int64, span float64) []*sgb.PointSet {
		pool := make([]*sgb.PointSet, 16)
		for i := range pool {
			pool[i] = points(seed+int64(i), batch, span)
		}
		return pool
	}
	// slide: each iteration also removes the oldest batch's worth of
	// rows (Window), so the handle stays at base points (AppendRemove).
	semantics := []struct {
		name  string
		mk    func(sgb.Options) (*sgb.Incremental, error)
		opt   sgb.Options
		slide bool
	}{
		{"Any", sgb.NewIncrementalAny,
			sgb.Options{Metric: sgb.L2, Eps: 0.5, Algorithm: sgb.GridIndex}, false},
		{"All", sgb.NewIncrementalAll,
			sgb.Options{Metric: sgb.L2, Eps: 0.5, Overlap: sgb.JoinAny, Algorithm: sgb.GridIndex, Seed: 1}, false},
		{"All-Eliminate", sgb.NewIncrementalAll,
			sgb.Options{Metric: sgb.L2, Eps: 0.5, Overlap: sgb.Eliminate, Algorithm: sgb.GridIndex}, true},
	}
	for _, sem := range semantics {
		for _, base := range []int{2000, 8000, 32000} {
			basePts := points(11, base, span(base))
			arm := "Append"
			if sem.slide {
				arm = "AppendRemove"
			}
			b.Run(fmt.Sprintf("%s/%s/base=%d", sem.name, arm, base), func(b *testing.B) {
				pool := newBatches(int64(base), span(base))
				var inc *sgb.Incremental
				reload := func() {
					var err error
					if inc, err = sem.mk(sem.opt); err != nil {
						b.Fatal(err)
					}
					if err := inc.AppendSet(basePts); err != nil {
						b.Fatal(err)
					}
				}
				reload()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if inc.Len() > base+base/2 {
						b.StopTimer()
						reload()
						b.StartTimer()
					}
					if err := inc.AppendSet(pool[i%len(pool)]); err != nil {
						b.Fatal(err)
					}
					if sem.slide {
						if _, err := inc.Window(base); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(fmt.Sprintf("%s/Oneshot/base=%d", sem.name, base), func(b *testing.B) {
				// The cost incremental maintenance replaces: regroup
				// base+batch points from scratch.
				full := sgb.NewPointSet(2)
				full.AppendSet(basePts)
				full.AppendSet(points(int64(base), batch, span(base)))
				opt := sem.opt
				opt.Parallelism = 1
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if sem.name == "Any" {
						_, err = sgb.GroupByAnySet(full, opt)
					} else {
						_, err = sgb.GroupByAllSet(full, opt)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// The shape BenchmarkWindow slides its window over: 256-point batches of
// benchkit.ClusterPoints on a domain whose side keeps cluster-center
// density subcritical (expected cluster-graph degree well under 1), so
// components stay bounded as the window grows — the regime where
// localized deletion pays.
const windowBatch = 256

func windowSpan(window int) float64 { return 1.25 * math.Sqrt(float64(window)) }

func windowBatches(seed int64, span float64) []*sgb.PointSet {
	pool := make([]*sgb.PointSet, 16)
	for i := range pool {
		pool[i] = benchkit.ClusterPoints(windowBatch, span, seed+int64(i)+1)
	}
	return pool
}

var windowAllOpt = sgb.Options{Metric: sgb.L2, Eps: 0.5, Overlap: sgb.JoinAny, Algorithm: sgb.GridIndex, Seed: 1}

// BenchmarkWindow measures steady-state sliding-window maintenance:
// each tick appends a fresh 256-point batch, evicts oldest-first back
// down to the window size, and reads the grouping. The Maintained
// series drives an Incremental handle (append + decremental Window +
// Result); the Oneshot series pays what the window replaces —
// regrouping the whole window from scratch every tick. The workload
// is cluster-structured (benchkit.ClusterPoints) with the domain scaled
// to hold cluster density constant as the window grows.
// Both operators maintain locally. SGB-Any reclusters only the
// victims' components; SGB-All arbitrates again only a closure of them
// (core.AllEvaluator.Remove) and reports how many points that was per
// tick (replayed/op) — a few hundred here, where the evicted batch is
// sixteen whole clusters, against the window's thousands, which
// TestWindowAllOutputSensitive pins in operation counts. The OneLevel
// series run the maintained SGB-Any evaluator at one level and at k
// levels, reading every level per tick, and report the heap it retains
// per window point.
func BenchmarkWindow(b *testing.B) {
	const batch = windowBatch
	span, newBatches := windowSpan, windowBatches
	semantics := []struct {
		name string
		mk   func(sgb.Options) (*sgb.Incremental, error)
		opt  sgb.Options
	}{
		{"Any", sgb.NewIncrementalAny,
			sgb.Options{Metric: sgb.L2, Eps: 0.5, Algorithm: sgb.GridIndex}},
		{"All", sgb.NewIncrementalAll, windowAllOpt},
	}
	for _, sem := range semantics {
		for _, window := range []int{8000, 32000} {
			sp := span(window)
			b.Run(fmt.Sprintf("%s/Maintained/w=%d", sem.name, window), func(b *testing.B) {
				pool := newBatches(int64(window), sp)
				var st sgb.Stats
				opt := sem.opt
				opt.Stats = &st
				inc, err := sem.mk(opt)
				if err != nil {
					b.Fatal(err)
				}
				if err := inc.AppendSet(benchkit.ClusterPoints(window, sp, 13)); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := inc.AppendSet(pool[i%len(pool)]); err != nil {
						b.Fatal(err)
					}
					if _, err := inc.Window(window); err != nil {
						b.Fatal(err)
					}
					if _, err := inc.Result(); err != nil {
						b.Fatal(err)
					}
				}
				if sem.name == "All" {
					b.ReportMetric(float64(st.PointsReplayed)/float64(b.N), "replayed/op")
				}
			})
			b.Run(fmt.Sprintf("%s/Oneshot/w=%d", sem.name, window), func(b *testing.B) {
				pool := newBatches(int64(window), sp)
				win := sgb.NewPointSet(2)
				win.AppendSet(benchkit.ClusterPoints(window, sp, 13))
				opt := sem.opt
				opt.Parallelism = 1
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Slide: admit the batch, expire the oldest points,
					// regroup the surviving window from scratch.
					win.AppendSet(pool[i%len(pool)])
					win = win.Slice(win.Len()-window, win.Len())
					var err error
					if sem.name == "Any" {
						_, err = sgb.GroupByAnySet(win, opt)
					} else {
						_, err = sgb.GroupByAllSet(win, opt)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	oldest := make([]int, batch)
	for i := range oldest {
		oldest[i] = i
	}
	report := func(b *testing.B, st *sgb.Stats) {
		b.ReportMetric(float64(st.IndexProbes)/float64(b.N), "probes/op")
		b.ReportMetric(float64(st.DistanceComputations)/float64(b.N), "dists/op")
	}

	// One level per tick, the shape a single-ε DISTANCE-TO-ANY statement
	// over a sliding window asks for: the maintained SGB-Any evaluator
	// reading one grouping per tick, under both metrics in 2 and 3
	// dimensions. It reports the live heap it retains per window point
	// after the run.
	const eps = 0.5
	for _, metric := range []sgb.Metric{sgb.L2, sgb.LInf} {
		for _, dims := range []int{2, 3} {
			for _, window := range []int{8000, 32000} {
				opt := sgb.Options{Metric: metric, Eps: eps, Algorithm: sgb.GridIndex}
				pool := make([]*sgb.PointSet, 16)
				for i := range pool {
					pool[i] = clusterPoints(batch, dims, window, int64(window+i+1))
				}
				name := fmt.Sprintf("OneLevel/%v/d=%d/%%s/Maintained/w=%d", metric, dims, window)
				b.Run(fmt.Sprintf(name, "Any"), func(b *testing.B) {
					base := liveHeap()
					inc, err := sgb.NewIncrementalAny(opt)
					if err != nil {
						b.Fatal(err)
					}
					if err := inc.AppendSet(clusterPoints(window, dims, window, 13)); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := inc.AppendSet(pool[i%len(pool)]); err != nil {
							b.Fatal(err)
						}
						if _, err := inc.Window(window); err != nil {
							b.Fatal(err)
						}
						if _, err := inc.Result(); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(liveHeap()-base)/float64(window), "B/point")
					runtime.KeepAlive(inc)
				})
			}
		}
	}

	// k levels per tick over check-ins, the shape of a cached EPS IN
	// statement over a sliding window: the maintained SGB-Any evaluator
	// kept at k levels (Forests), reading every level per tick. k = 3 is
	// the end-to-end benchmark's stream_maintain list, k = 6 the union of
	// sql_warm's.
	for _, metric := range []sgb.Metric{sgb.L2, sgb.LInf} {
		for _, levels := range checkinLevels {
			for _, window := range []int{8000, 32000} {
				name := fmt.Sprintf("OneLevel/Levels/%v/k=%d/%%s/w=%d", metric, len(levels), window)
				opt := sgb.Options{Metric: metric, Algorithm: sgb.GridIndex}
				b.Run(fmt.Sprintf(name, "Forests"), func(b *testing.B) {
					s := newCheckinStream()
					base := liveHeap()
					var st sgb.Stats
					opt := opt
					opt.Stats = &st
					inc, err := sgb.NewIncrementalAnyLevels(opt, levels)
					if err != nil {
						b.Fatal(err)
					}
					if err := inc.AppendSet(s.take(window)); err != nil {
						b.Fatal(err)
					}
					st = sgb.Stats{}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := inc.AppendSet(s.take(batch)); err != nil {
							b.Fatal(err)
						}
						if _, err := inc.Window(window); err != nil {
							b.Fatal(err)
						}
						for _, eps := range levels {
							if _, err := inc.GroupsAt(eps); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(liveHeap()-base)/float64(window), "B/point")
					report(b, &st)
					runtime.KeepAlive(inc)
				})
			}
		}
	}

	// A level a warm 32 000-point entry does not hold yet (levels 0.1, 0.2
	// and 0.4): Forests keeps it — one probe pass over the window, then
	// the grouping read off. Each iteration asks for another ε below 0.4;
	// the forests are rebuilt, untimed, before they would pass 16 levels.
	newEps := func(i int) float64 { return 0.4 * float64(i%12+1) / 13 }
	b.Run("OneLevel/AddLevel/Forests/w=32000", func(b *testing.B) {
		var inc *sgb.Incremental
		for i := 0; i < b.N; i++ {
			if i%12 == 0 {
				b.StopTimer()
				var err error
				if inc, err = sgb.NewIncrementalAnyLevels(sgb.Options{Metric: sgb.L2}, checkinLevels[1]); err != nil {
					b.Fatal(err)
				}
				if err := inc.AppendSet(newCheckinStream().take(32000)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := inc.AddLevel(newEps(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := inc.GroupsAt(newEps(i)); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The end-to-end benchmark's stream_maintain tick over 16 000
	// check-ins, evaluator work only: two 128-row appends each followed by
	// a read of the single-ε grouping (ε = 0.2) and of the sweep's three
	// levels, kept as level forests, then a 256-row oldest-first DELETE.
	// It reports the phases' ms per tick.
	b.Run("Checkin/AnyLevels/w=16000", func(b *testing.B) {
		const window = 16000
		sweepLevels := checkinLevels[1]
		s := newCheckinStream()
		single, err := sgb.NewIncrementalAny(sgb.Options{Metric: sgb.L2, Eps: 0.2, Algorithm: sgb.GridIndex})
		if err != nil {
			b.Fatal(err)
		}
		levels, err := sgb.NewIncrementalAnyLevels(sgb.Options{Metric: sgb.L2, Algorithm: sgb.GridIndex}, sweepLevels)
		if err != nil {
			b.Fatal(err)
		}
		appendAll := func(ps *sgb.PointSet) {
			if err := single.AppendSet(ps); err != nil {
				b.Fatal(err)
			}
			if err := levels.AppendSet(ps); err != nil {
				b.Fatal(err)
			}
		}
		read := func() {
			if _, err := single.Result(); err != nil {
				b.Fatal(err)
			}
			for _, eps := range sweepLevels {
				if _, err := levels.GroupsAt(eps); err != nil {
					b.Fatal(err)
				}
			}
		}
		appendAll(s.take(window))
		var appendT, readT, deleteT time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < 2; r++ {
				start := time.Now()
				appendAll(s.take(batch / 2))
				mid := time.Now()
				read()
				appendT, readT = appendT+mid.Sub(start), readT+time.Since(mid)
			}
			start := time.Now()
			if err := single.Remove(oldest); err != nil {
				b.Fatal(err)
			}
			if err := levels.Remove(oldest); err != nil {
				b.Fatal(err)
			}
			deleteT += time.Since(start)
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
		b.ReportMetric(ms(appendT), "append-ms/op")
		b.ReportMetric(ms(readT), "read-ms/op")
		b.ReportMetric(ms(deleteT), "delete-ms/op")
	})

	// Single-row deletes, the shape of wire_mixed's DELETE of one row: one
	// random live point leaves a maintained single-ε window (ε = 0.2 over
	// check-ins) and the next one arrives.
	for _, window := range []int{4000, 8000} {
		b.Run(fmt.Sprintf("Checkin/Single/w=%d", window), func(b *testing.B) {
			s := newCheckinStream()
			inc, err := sgb.NewIncrementalAny(sgb.Options{Metric: sgb.L2, Eps: 0.2, Algorithm: sgb.GridIndex})
			if err != nil {
				b.Fatal(err)
			}
			if err := inc.AppendSet(s.take(window)); err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(window)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := inc.Remove([]int{r.Intn(window)}); err != nil {
					b.Fatal(err)
				}
				if err := inc.AppendSet(s.take(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// checkinLevels are the level lists of BenchmarkWindow's check-in
// series: one level, the end-to-end benchmark's stream_maintain EPS IN
// list, and the union of sql_warm's.
var checkinLevels = [][]float64{{0.2}, {0.1, 0.2, 0.4}, {0.05, 0.1, 0.2, 0.4, 0.6, 0.8}}

// checkinStream hands out Brightkite-profile check-ins in order, cycling
// through a pool of 64 000 as the end-to-end benchmark's
// stream_maintain does.
type checkinStream struct {
	pool []sgb.Point
	next int
}

var checkinPool = sync.OnceValue(func() []sgb.Point { return checkin.Points(checkin.Brightkite(64000)) })

func newCheckinStream() *checkinStream { return &checkinStream{pool: checkinPool()} }

// take returns the next n check-ins.
func (s *checkinStream) take(n int) *sgb.PointSet {
	ps := sgb.NewPointSet(2)
	for i := 0; i < n; i++ {
		copy(ps.Extend(), s.pool[s.next%len(s.pool)])
		s.next++
	}
	return ps
}

// BenchmarkAnyLevelsWideRatio measures what a large top level costs a
// small one in a maintained SGB-Any handle (ROADMAP item 4): the handle
// keeps one grid, with cells of the top's side, so a DELETE repair at a
// small ε walks top-sized cells. Over a 32 000-point window of
// Brightkite-profile check-ins under L2, each iteration appends the next
// 256 check-ins and then deletes the 256 oldest, the two timed apart. A
// pair of levels is a one-level handle at the top plus AddLevel(0.05),
// as a cached entry gains a small ε. It reports ms per append and per
// DELETE, and the distances and index probes of a DELETE. Run it at
// -cpu 1:
//
//	go test -run '^$' -bench AnyLevelsWideRatio -cpu 1 -benchtime 40x .
func BenchmarkAnyLevelsWideRatio(b *testing.B) {
	const window, low = 32000, 0.05
	oldest := make([]int, windowBatch)
	for i := range oldest {
		oldest[i] = i
	}
	for _, c := range []struct {
		top     float64
		withLow bool
	}{{low, false}, {0.8, false}, {0.8, true}, {3.2, false}, {3.2, true}} {
		name := fmt.Sprintf("levels=%v", c.top)
		if c.withLow {
			name = fmt.Sprintf("levels=%v+%v", low, c.top)
		}
		b.Run(name, func(b *testing.B) {
			s := newCheckinStream()
			var st sgb.Stats
			inc, err := sgb.NewIncrementalAny(sgb.Options{Metric: sgb.L2, Eps: c.top, Algorithm: sgb.GridIndex, Stats: &st})
			if err != nil {
				b.Fatal(err)
			}
			if err := inc.AppendSet(s.take(window)); err != nil {
				b.Fatal(err)
			}
			if c.withLow {
				if err := inc.AddLevel(low); err != nil {
					b.Fatal(err)
				}
			}
			var appendT, deleteT time.Duration
			var dists, probes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := s.take(windowBatch)
				start := time.Now()
				if err := inc.AppendSet(batch); err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				before := st
				if err := inc.Remove(oldest); err != nil {
					b.Fatal(err)
				}
				appendT, deleteT = appendT+mid.Sub(start), deleteT+time.Since(mid)
				dists += st.DistanceComputations - before.DistanceComputations
				probes += st.IndexProbes - before.IndexProbes
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
			b.ReportMetric(ms(appendT), "append-ms/op")
			b.ReportMetric(ms(deleteT), "delete-ms/op")
			b.ReportMetric(float64(dists)/float64(b.N), "dists/delete")
			b.ReportMetric(float64(probes)/float64(b.N), "probes/delete")
		})
	}
}

// BenchmarkEntryBuild times the whole-table passes of a maintained
// DISTANCE-TO-ANY entry over sql_warm's table, 32 000 Brightkite-profile
// check-ins under L2: the first statement of a grouping, which builds a
// new entry at its levels from one batch (sql_warm's single ε at three
// sizes, and the union of its lists), and AddLevel(0.05) under a wide
// top, as a cached entry gains a small ε (the entry itself is built
// outside the timer). It reports the distance keys an operation
// computes. Run it at -cpu 1:
//
//	go test -run '^$' -bench EntryBuild -cpu 1 -benchtime 20x .
func BenchmarkEntryBuild(b *testing.B) {
	pts := sgb.FromPoints(checkin.Points(checkin.Brightkite(32000)))
	build := func(b *testing.B, st *sgb.Stats, levels []float64) *sgb.Incremental {
		inc, err := sgb.NewIncrementalAnyLevels(sgb.Options{Metric: sgb.L2, Algorithm: sgb.GridIndex, Stats: st}, levels)
		if err != nil {
			b.Fatal(err)
		}
		if err := inc.AppendSet(pts); err != nil {
			b.Fatal(err)
		}
		return inc
	}
	for _, c := range []struct {
		name   string
		levels []float64
	}{
		{"levels=0.05", []float64{0.05}},
		{"levels=0.2", []float64{0.2}},
		{"levels=0.8", []float64{0.8}},
		{"levels=0.05-0.8", []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var st sgb.Stats
			for i := 0; i < b.N; i++ {
				build(b, &st, c.levels)
			}
			b.ReportMetric(float64(st.DistanceComputations)/float64(b.N), "keys/op")
		})
	}
	for _, top := range []float64{0.8, 3.2} {
		b.Run(fmt.Sprintf("AddLevel=0.05/top=%v", top), func(b *testing.B) {
			var st sgb.Stats
			var keys int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inc := build(b, &st, []float64{top})
				before := st.DistanceComputations
				b.StartTimer()
				if err := inc.AddLevel(0.05); err != nil {
					b.Fatal(err)
				}
				keys += st.DistanceComputations - before
			}
			b.ReportMetric(float64(keys)/float64(b.N), "keys/op")
		})
	}
	// Half the entry's points removed, oldest first: the most tombstones
	// it holds short of compaction, which the level's sort skips.
	b.Run("AddLevel=0.05/top=0.8/tombstones", func(b *testing.B) {
		var st sgb.Stats
		oldest := make([]int, pts.Len()/2)
		for i := range oldest {
			oldest[i] = i
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			inc := build(b, &st, []float64{0.8})
			if err := inc.Remove(oldest); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := inc.AddLevel(0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// clusterPoints is benchkit.ClusterPoints in d dimensions: clusters of
// sixteen points in a box of side 1.2, one per 5^d of a domain sized
// for a window of w points, so cluster density stays subcritical at
// every w and d (at d = 2 the domain is windowSpan's).
func clusterPoints(n, dims, w int, seed int64) *sgb.PointSet {
	r := rand.New(rand.NewSource(seed))
	span := 5 * math.Pow(float64(w)/16, 1/float64(dims))
	ps := sgb.NewPointSet(dims)
	c := make([]float64, dims)
	for j := 0; j < n; j++ {
		if j%16 == 0 {
			for k := range c {
				c[k] = r.Float64() * span
			}
		}
		p := ps.Extend()
		for k := range p {
			p[k] = c[k] + r.Float64()*1.2
		}
	}
	return ps
}

// liveHeap returns the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestWindowAllOutputSensitive pins what BenchmarkWindow/All/Maintained
// shows, in operation counts so that it cannot flake: on the benchmark's
// subcritical cluster shape, evicting one batch from a maintained
// SGB-All window costs less than 40 % of the rectangle tests and index
// probes of arbitrating the survivors from scratch — the closure's own
// probes and admissions included — and it replays fewer points than
// that share of them.
func TestWindowAllOutputSensitive(t *testing.T) {
	const window = 8000
	sp := windowSpan(window)
	var st sgb.Stats
	opt := windowAllOpt
	opt.Stats = &st
	inc, err := sgb.NewIncrementalAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	win := sgb.NewPointSet(2)
	for _, ps := range append([]*sgb.PointSet{benchkit.ClusterPoints(window, sp, 13)}, windowBatches(window, sp)[:3]...) {
		if err := inc.AppendSet(ps); err != nil {
			t.Fatal(err)
		}
		win.AppendSet(ps)
		before := st
		if n, err := inc.Window(window); err != nil {
			t.Fatal(err)
		} else if n == 0 {
			continue // the initial load evicts nothing
		}
		win = win.Slice(win.Len()-window, win.Len())
		removeWork := (st.RectTests - before.RectTests) + (st.IndexProbes - before.IndexProbes)
		replayed := st.PointsReplayed - before.PointsReplayed

		var scratch sgb.Stats
		oneshot := windowAllOpt
		oneshot.Parallelism, oneshot.Stats = 1, &scratch
		want, err := sgb.GroupByAllSet(win, oneshot)
		if err != nil {
			t.Fatal(err)
		}
		scratchWork := scratch.RectTests + scratch.IndexProbes
		if 10*removeWork >= 4*scratchWork {
			t.Errorf("evicting %d of %d points cost %d rectangle tests and probes, from scratch %d: not under 40 %%", windowBatch, window+windowBatch, removeWork, scratchWork)
		}
		if replayed == 0 || 10*replayed >= 4*window {
			t.Errorf("evicting %d points replayed %d of %d survivors", windowBatch, replayed, window)
		}
		t.Logf("evicted %d of %d: %d rectangle tests and probes, %d points replayed; from scratch %d", windowBatch, window+windowBatch, removeWork, replayed, scratchWork)
		got, err := inc.Result()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Groups) != len(want.Groups) {
			t.Fatalf("maintained window has %d groups, from scratch %d", len(got.Groups), len(want.Groups))
		}
	}
}

// TestWindowAnyOutputSensitive pins, in operation counts, what a
// maintained SGB-Any window re-probes on a DELETE: over a 16 000-point
// window of Brightkite-profile check-ins at ε = 0.2 (the shape of the
// end-to-end benchmark's stream_maintain), one 256-row oldest-first
// eviction re-probes fewer than a quarter of the points in the victims'
// components — only pieces split off their spanning trees, smallest
// first — at one level and at the three levels 0.1, 0.2 and 0.4 (whose
// top level's components are larger). Deleting a point with no forest
// edge probes nothing. Every grouping equals a one-shot sweep.
func TestWindowAnyOutputSensitive(t *testing.T) {
	const window = 16000
	pts := checkin.Points(checkin.Brightkite(window + windowBatch))
	for _, levels := range [][]float64{{0.2}, {0.1, 0.2, 0.4}} {
		var st sgb.Stats
		inc, err := sgb.NewIncrementalAnyLevels(sgb.Options{Metric: sgb.L2, Algorithm: sgb.GridIndex, Stats: &st}, levels)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Append(pts); err != nil {
			t.Fatal(err)
		}
		top, err := inc.GroupsAt(levels[len(levels)-1])
		if err != nil {
			t.Fatal(err)
		}
		touched := 0
		for _, g := range top.Groups {
			if g.Members[0] < windowBatch {
				touched += len(g.Members)
			}
		}
		before := st
		if _, err := inc.Window(window); err != nil {
			t.Fatal(err)
		}
		probes := st.IndexProbes - before.IndexProbes
		t.Logf("levels %v: evicting %d of %d re-probed %d points; the victims' components at ε = %v hold %d",
			levels, windowBatch, len(pts), probes, levels[len(levels)-1], touched)
		if 4*probes >= int64(touched) {
			t.Errorf("levels %v: %d re-probes against %d points in the victims' components: not under a quarter", levels, probes, touched)
		}
		want, err := sgb.SweepAny(pts[windowBatch:], levels, sgb.Options{Metric: sgb.L2})
		if err != nil {
			t.Fatal(err)
		}
		lone := -1
		for l, eps := range levels {
			got, err := inc.GroupsAt(eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Groups, want[l].Groups) {
				t.Fatalf("levels %v, ε = %v: the maintained window differs from a one-shot sweep", levels, eps)
			}
			for _, g := range got.Groups {
				if l == len(levels)-1 && lone < 0 && len(g.Members) == 1 {
					lone = int(g.Members[0])
				}
			}
		}
		if lone < 0 {
			t.Fatalf("levels %v: no point is alone at the top level", levels)
		}
		before = st
		if err := inc.Remove([]int{lone}); err != nil {
			t.Fatal(err)
		}
		if probes := st.IndexProbes - before.IndexProbes; probes != 0 {
			t.Errorf("levels %v: deleting a point with no forest edge probed %d points", levels, probes)
		}
	}
}

// benchFig10 is the size-sweep body (ε fixed at 0.2).
func benchFig10(b *testing.B, overlap sgb.Overlap, algs []struct {
	name string
	alg  sgb.Algorithm
}, anySemantics bool) {
	for _, a := range algs {
		for _, n := range []int{2000, 4000, 8000} {
			pts := benchPoints(n, 3)
			b.Run(fmt.Sprintf("%s/n=%d", a.name, n), func(b *testing.B) {
				opt := sgb.Options{Metric: sgb.L2, Eps: 0.2, Overlap: overlap, Algorithm: a.alg, Seed: 1, Parallelism: 1}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if anySemantics {
						_, err = sgb.GroupByAny(pts, opt)
					} else {
						_, err = sgb.GroupByAll(pts, opt)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

var boundsVsIndex = benchAlgs[1:]

// BenchmarkFig10a — size sweep, SGB-All JOIN-ANY (Bounds vs Index).
func BenchmarkFig10a(b *testing.B) { benchFig10(b, sgb.JoinAny, boundsVsIndex, false) }

// BenchmarkFig10b — size sweep, SGB-All ELIMINATE.
func BenchmarkFig10b(b *testing.B) { benchFig10(b, sgb.Eliminate, boundsVsIndex, false) }

// BenchmarkFig10c — size sweep, SGB-All FORM-NEW-GROUP.
func BenchmarkFig10c(b *testing.B) { benchFig10(b, sgb.FormNewGroup, boundsVsIndex, false) }

// BenchmarkFig10d — size sweep, SGB-Any (All-Pairs vs Index vs Grid).
func BenchmarkFig10d(b *testing.B) {
	algs := []struct {
		name string
		alg  sgb.Algorithm
	}{benchAlgs[0], benchAlgs[2], benchAlgs[3]}
	benchFig10(b, sgb.JoinAny, algs, true)
}

// BenchmarkFig11 — SGB vs the clustering comparators on check-in data
// (one sub-benchmark per method; a/b select the skew profile).
func BenchmarkFig11(b *testing.B) {
	for _, profile := range []struct {
		name string
		cfg  checkin.Config
	}{
		{"a_Brightkite", checkin.Brightkite(8000)},
		{"b_Gowalla", checkin.Gowalla(8000)},
	} {
		pts := checkin.Points(profile.cfg)
		gpts := make([]geom.Point, len(pts))
		copy(gpts, pts)
		const eps = 0.2

		b.Run(profile.name+"/DBSCAN", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.DBSCAN(gpts, cluster.DBSCANConfig{Eps: eps, MinPts: 4, Metric: geom.L2}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(profile.name+"/BIRCH", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.BIRCH(gpts, cluster.BIRCHConfig{Threshold: eps, Refine: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, k := range []int{20, 40} {
			b.Run(fmt.Sprintf("%s/KMeans%d", profile.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cluster.KMeans(gpts, cluster.KMeansConfig{K: k, Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		for _, v := range []struct {
			name    string
			overlap sgb.Overlap
		}{
			{"SGB-All-JoinAny", sgb.JoinAny},
			{"SGB-All-Eliminate", sgb.Eliminate},
			{"SGB-All-FormNew", sgb.FormNewGroup},
		} {
			b.Run(profile.name+"/"+v.name, func(b *testing.B) {
				opt := sgb.Options{Metric: sgb.L2, Eps: eps, Overlap: v.overlap, Algorithm: sgb.OnTheFlyIndex}
				for i := 0; i < b.N; i++ {
					if _, err := sgb.GroupByAll(pts, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(profile.name+"/SGB-Any", func(b *testing.B) {
			opt := sgb.Options{Metric: sgb.L2, Eps: eps, Algorithm: sgb.OnTheFlyIndex}
			for i := 0; i < b.N; i++ {
				if _, err := sgb.GroupByAny(pts, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// tpchDB loads the TPC-H-like dataset once per bench family.
func tpchDB(b *testing.B, sf float64) *sgb.DB {
	b.Helper()
	db := sgb.Open()
	ds := tpch.Generate(tpch.ScaleRows(sf))
	if err := ds.Install(db.Catalog()); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchQuery(b *testing.B, db *sgb.DB, sql string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12a — GB2 (Q9) vs SGB3/SGB4 through the SQL engine.
func BenchmarkFig12a(b *testing.B) {
	db := tpchDB(b, 0.3)
	b.Run("GROUP-BY_Q9", func(b *testing.B) { benchQuery(b, db, tpch.GB2) })
	b.Run("SGB3_JoinAny", func(b *testing.B) { benchQuery(b, db, tpch.SGB34(false, 50000, "join-any")) })
	b.Run("SGB3_Eliminate", func(b *testing.B) { benchQuery(b, db, tpch.SGB34(false, 50000, "eliminate")) })
	b.Run("SGB3_FormNew", func(b *testing.B) { benchQuery(b, db, tpch.SGB34(false, 50000, "form-new")) })
	b.Run("SGB4_Any", func(b *testing.B) { benchQuery(b, db, tpch.SGB34(true, 50000, "")) })
}

// BenchmarkFig12b — GB3 (Q15) vs SGB5/SGB6 through the SQL engine.
func BenchmarkFig12b(b *testing.B) {
	db := tpchDB(b, 0.3)
	b.Run("GROUP-BY_Q15", func(b *testing.B) { benchQuery(b, db, tpch.GB3) })
	b.Run("SGB5_JoinAny", func(b *testing.B) { benchQuery(b, db, tpch.SGB56(false, 100000, "join-any")) })
	b.Run("SGB5_Eliminate", func(b *testing.B) { benchQuery(b, db, tpch.SGB56(false, 100000, "eliminate")) })
	b.Run("SGB5_FormNew", func(b *testing.B) { benchQuery(b, db, tpch.SGB56(false, 100000, "form-new")) })
	b.Run("SGB6_Any", func(b *testing.B) { benchQuery(b, db, tpch.SGB56(true, 100000, "")) })
}

// BenchmarkTable1 — the complexity table: time per strategy at two
// sizes; growth between them exposes the O(n²) vs O(n log |G|) split.
func BenchmarkTable1(b *testing.B) {
	for _, a := range benchAlgs {
		for _, n := range []int{1000, 4000} {
			pts := benchPoints(n, 5)
			b.Run(fmt.Sprintf("%s/n=%d", a.name, n), func(b *testing.B) {
				opt := sgb.Options{Metric: sgb.LInf, Eps: 0.3, Overlap: sgb.JoinAny, Algorithm: a.alg, Seed: 1, Parallelism: 1}
				for i := 0; i < b.N; i++ {
					if _, err := sgb.GroupByAll(pts, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable2 — the full query suite (GB1–GB3, SGB1–SGB6).
func BenchmarkTable2(b *testing.B) {
	db := tpchDB(b, 0.3)
	queries := []struct {
		name, sql string
	}{
		{"GB1_Q18", tpch.GB1(200)},
		{"GB2_Q9", tpch.GB2},
		{"GB3_Q15", tpch.GB3},
		{"SGB1_All", tpch.SGB12(false, 2000, "join-any", 200, 30000)},
		{"SGB2_Any", tpch.SGB12(true, 2000, "", 200, 30000)},
		{"SGB3_All", tpch.SGB34(false, 50000, "join-any")},
		{"SGB4_Any", tpch.SGB34(true, 50000, "")},
		{"SGB5_All", tpch.SGB56(false, 100000, "join-any")},
		{"SGB6_Any", tpch.SGB56(true, 100000, "")},
	}
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) { benchQuery(b, db, q.sql) })
	}
}

// BenchmarkWarmAnswer times the warm statement shapes of the evaluator
// cache — single-ε DISTANCE-TO-ANY, single-ε DISTANCE-TO-ALL, an EPS IN
// sweep, and the two ORDER BY … LIMIT 10 statements of the end-to-end
// benchmark's sql_warm workload — over 32 000 unchanged check-ins, each
// after one execution that builds the grouping and folds the
// aggregates: what a cache hit costs, in time and in allocation.
// docs/pr12-warm-profile.md records the first three and the CPU profile
// of
//
//	go test -run xxx -bench WarmAnswer -benchtime 1500x -cpuprofile cpu.out
//
// docs/pr19-topk.md the top-k pair.
//
// Refold/{Any,All,Sweep,TopAny} time the first read after a write
// instead: every iteration inserts one row — the cached evaluator
// absorbs it and a new generation's answer is published with no column
// memoized yet — and runs the statement, which folds every aggregate
// over the whole table again. docs/pr21-typed-fold.md records them.
func BenchmarkWarmAnswer(b *testing.B) {
	db := sgb.Open()
	if err := db.Catalog().Create(checkin.Table("checkins", checkin.Brightkite(32000))); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("SET incremental = on"); err != nil {
		b.Fatal(err)
	}
	const from = " FROM checkins GROUP BY latitude, longitude "
	shapes := []struct{ name, sql string }{
		{"Any", "SELECT count(*), avg(latitude), max(longitude)" + from + "DISTANCE-TO-ANY L2 WITHIN 0.2"},
		{"All", "SELECT count(*), avg(latitude), max(longitude)" + from + "DISTANCE-TO-ALL LINF WITHIN 0.2 ON-OVERLAP JOIN-ANY"},
		{"Sweep", "SELECT eps, count(*), avg(latitude)" + from + "DISTANCE-TO-ANY L2 EPS IN (0.1, 0.4, 0.8)"},
		{"TopAny", "SELECT count(*), max(longitude)" + from + "DISTANCE-TO-ANY L2 WITHIN 0.2 ORDER BY 1 DESC, 2 DESC LIMIT 10"},
		{"TopAll", "SELECT count(*), max(longitude)" + from + "DISTANCE-TO-ALL LINF WITHIN 0.2 ON-OVERLAP JOIN-ANY ORDER BY 1 DESC, 2 DESC LIMIT 10"},
	}
	for _, tc := range shapes {
		b.Run(tc.name, func(b *testing.B) {
			rows, err := db.Query(tc.sql) // builds and publishes the answer
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			benchQuery(b, db, tc.sql)
			b.ReportMetric(float64(len(rows.Data)), "rows")
		})
	}
	for _, tc := range shapes[:4] {
		b.Run("Refold/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec("INSERT INTO checkins VALUES (1, 40.5, -100.5, DATE '2009-01-01')"); err != nil {
					b.Fatal(err)
				}
				if _, err := db.Query(tc.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coldPoints generates the rows of the end-to-end benchmark's sql_cold
// table (bench/workload.go: genRows) as (x, y, z) points:
// Brightkite-profile check-ins with a Gaussian z.
func coldPoints(n int) []sgb.Point {
	cfg := checkin.Brightkite(n)
	r := rand.New(rand.NewSource(cfg.Seed ^ 0x5a17))
	pts := make([]sgb.Point, n)
	for i, p := range checkin.Points(cfg) {
		pts[i] = sgb.Point{p[0], p[1], r.NormFloat64() * 0.25}
	}
	return pts
}

// BenchmarkColdSQL times the statement shapes of the end-to-end
// benchmark's sql_cold workload (bench/workload.go: coldVariants) one
// by one: 12 000 Brightkite-profile check-ins with a Gaussian z and a
// 4-degree cell id, incremental = off so every execution regroups from
// scratch — DISTANCE-TO-ANY L2, DISTANCE-TO-ALL LINF JOIN-ANY and 3-d
// DISTANCE-TO-ALL L2 ELIMINATE at ε ∈ {0.05, 0.2, 0.8}, against the
// GROUP BY cell baseline the paper's headline compares them to. Each
// shape runs at auto parallelism and at parallelism = 1, so the
// break-even of the SGB-All pipeline shows on whatever host runs it.
// docs/pr14-cold-profile.md records its numbers and the profile of
//
//	go test -run xxx -bench 'ColdSQL/par=1/AllL2x3Eliminate/eps=0.05' -benchtime 20x -cpuprofile cpu.out
func BenchmarkColdSQL(b *testing.B) {
	db := coldDB(b, 12000)
	const sel = "SELECT count(*), avg(x), max(y) FROM checkins GROUP BY "
	shapes := []struct{ name, sql string }{
		{"AnyL2", sel + "x, y DISTANCE-TO-ANY L2 WITHIN %g"},
		{"AllLinfJoinAny", sel + "x, y DISTANCE-TO-ALL LINF WITHIN %g ON-OVERLAP JOIN-ANY"},
		{"AllL2x3Eliminate", sel + "x, y, z DISTANCE-TO-ALL L2 WITHIN %g ON-OVERLAP ELIMINATE"},
	}
	for _, par := range []struct{ name, set string }{{"auto", "0"}, {"1", "1"}} {
		if _, err := db.Exec("SET parallelism = " + par.set); err != nil {
			b.Fatal(err)
		}
		run := func(name, sql string) {
			b.Run("par="+par.name+"/"+name, func(b *testing.B) {
				rows, err := db.Query(sql)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				benchQuery(b, db, sql)
				b.ReportMetric(float64(len(rows.Data)), "rows")
			})
		}
		run("GroupByCell", "SELECT cell, count(*), avg(x), max(y) FROM checkins GROUP BY cell")
		for _, sh := range shapes {
			for _, eps := range []float64{0.05, 0.2, 0.8} {
				run(fmt.Sprintf("%s/eps=%g", sh.name, eps), fmt.Sprintf(sh.sql, eps))
			}
		}
	}
}

// coldDB returns a database holding the end-to-end benchmark's
// checkins table over n coldPoints rows (id, x, y, z and a 4-degree
// cell id), with incremental = off, so every execution regroups from
// scratch.
func coldDB(b *testing.B, n int) *sgb.DB {
	t := storage.NewTable("checkins", storage.Schema{
		{Name: "id", Type: types.KindInt},
		{Name: "x", Type: types.KindFloat},
		{Name: "y", Type: types.KindFloat},
		{Name: "z", Type: types.KindFloat},
		{Name: "cell", Type: types.KindInt},
	})
	for i, p := range coldPoints(n) {
		t.MustInsert(types.Row{
			types.Int(int64(i)), types.Float(p[0]), types.Float(p[1]), types.Float(p[2]),
			types.Int(int64(math.Floor(p[0]/4))*1000 + int64(math.Floor(p[1]/4))),
		})
	}
	db := sgb.Open()
	if err := db.Catalog().Create(t); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("SET incremental = off"); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkColdSweep times the statements of the end-to-end benchmark's
// eps_cube_cold workload (bench/workload.go: cubeVariants) one by one
// over 8 000 rows with incremental = off, each a one-shot DISTANCE-TO-ANY
// evaluation at every level: EPS IN lists of 2, 3, 5 and 8 L2 levels
// selecting eps, count(*) and avg(x), the L∞ ε-cube, and the 8-level
// list selecting count(*) and avg(x) without eps. Each runs at auto
// parallelism and at parallelism = 1 (run it with -cpu 1 for the
// sequential kernel alone) and reports rows and keys/op, the distance
// keys one statement computes, beside B/op and allocs/op.
func BenchmarkColdSweep(b *testing.B) {
	db := coldDB(b, 8000)
	const (
		sel  = "SELECT eps, count(*), avg(x) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN "
		cube = "SELECT * FROM checkins GROUP BY x, y DISTANCE-TO-ANY LINF EPS IN (0.05, 0.1, 0.2, 0.4, 0.8) SIMILARITY CUBE BY EPS"
		k8   = "(0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8)"
	)
	shapes := []struct{ name, sql string }{
		{"L2/k=2", sel + "(0.1, 0.4)"},
		{"L2/k=3", sel + "(0.1, 0.2, 0.4)"},
		{"L2/k=5", sel + "(0.05, 0.1, 0.2, 0.4, 0.8)"},
		{"L2/k=8", sel + k8},
		{"Cube/LINF/k=5", cube},
		{"NoEps/L2/k=8", "SELECT count(*), avg(x) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN " + k8},
	}
	for _, par := range []struct {
		name string
		n    int
	}{{"auto", 0}, {"1", 1}} {
		for _, sh := range shapes {
			b.Run("par="+par.name+"/"+sh.name, func(b *testing.B) {
				opt := sgb.QueryOptions{Algorithm: sgb.GridIndex, Parallelism: par.n}
				rows, err := db.QueryOpt(sh.sql, opt)
				if err != nil {
					b.Fatal(err)
				}
				var st sgb.Stats
				opt.Stats = &st
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.QueryOpt(sh.sql, opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(rows.Data)), "rows")
				b.ReportMetric(float64(st.DistanceComputations)/float64(b.N), "keys/op")
			})
		}
	}
}

// BenchmarkHarness runs each benchkit experiment end-to-end at reduced
// scale — the same code path as cmd/sgbbench, kept exercised by CI.
func BenchmarkHarness(b *testing.B) {
	for _, id := range []string{"fig9a", "fig10d", "fig11a", "fig12a", "table1"} {
		e, ok := benchkit.Find(id)
		if !ok {
			b.Fatalf("missing experiment %s", id)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(benchkit.Config{Out: io.Discard, Scale: 0.05, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
