package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/geom"
)

// latticePoints draws n d-dimensional points whose coordinates are
// base + k·step for integers k in [k0, k0+span): with step = ε every
// within-ε neighbour sits at distance exactly 0 or ε per axis, on a
// cell edge of the grid's ε-cells; with step = 2ε an overlap group's
// far member sits 2ε away, two cells over.
func latticePoints(r *rand.Rand, n, d int, base, step float64, k0, span int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = base + float64(k0+r.Intn(span))*step
		}
		pts[i] = p
	}
	return pts
}

// requireGridMatches runs SGB-All over points under every metric and
// ON-OVERLAP clause with All-Pairs, with the reference strategy, and
// with GridIndex twice — one-shot, on the sorted cell index, and
// through an AllEvaluator fed one point per append, on the hash grid —
// and fails unless all four agree member for member.
func requireGridMatches(t *testing.T, ref Algorithm, points []geom.Point, eps float64, label string) {
	t.Helper()
	for _, m := range allMetrics {
		for _, ov := range allOverlaps {
			opt := Options{Metric: m, Eps: eps, Overlap: ov, Seed: 5}
			want := oneShotAllPairs(t, points, opt)
			runs := map[string]*Result{}
			for _, alg := range []Algorithm{ref, GridIndex} {
				opt.Algorithm = alg
				res, err := SGBAll(points, opt)
				if err != nil {
					t.Fatal(err)
				}
				runs[fmt.Sprintf("one-shot %v", alg)] = res
			}
			runs["appended ε-Grid"] = appendOneByOne(t, points, opt)
			for name, got := range runs {
				if err := sameMembers(want, got); err != nil {
					t.Fatalf("%s %v/%v: %s differs from All-Pairs: %v", label, m, ov, name, err)
				}
			}
		}
	}
}

// appendOneByOne feeds points to a fresh AllEvaluator one append each
// and returns its Result.
func appendOneByOne(t *testing.T, points []geom.Point, opt Options) *Result {
	t.Helper()
	ev, err := NewAllEvaluator(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if err := ev.Append(geom.FromPoints([]geom.Point{p})); err != nil {
			t.Fatal(err)
		}
	}
	return ev.Result()
}

// TestGridLatticeAlignedCrossValidation is the boundary check of the
// grid's cells: on lattice-aligned inputs a member lies at exactly ε
// from the probe point on an axis, on a cell edge, where a cell taken
// from a rounded coordinate — or a side not padded for it (cellSide,
// geom.PaddedReach) — can put it two cells away. GridIndex, one-shot
// on the sorted cell index and appended point by point on the hash
// grid, must agree member for member with All-Pairs across metrics,
// ON-OVERLAP semantics and d ∈ {1, 2, 3, 5}, at negative offsets and at
// ±2^20 ε, where the pad for the largest coordinate decides the cell.
// Every ε here keeps base + k·ε exact in binary floating point, so the
// strategies' predicates agree and any difference is the index's; 3 and
// 0.75 are not powers of two, so x·(1/ε) rounds.
func TestGridLatticeAlignedCrossValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1414))
	for _, eps := range []float64{0.5, 0.25, 3, 0.75} {
		for _, baseCells := range []float64{0, -7, 1 << 20, -(1<<20 + 5), 1333333} {
			for _, d := range []int{1, 2, 3, 5} {
				// Keep the lattice about as full at every d.
				span := map[int]int{1: 40, 2: 9, 3: 5, 5: 3}[d]
				for _, stepCells := range []float64{1, 2} {
					points := latticePoints(r, 120, d, baseCells*eps, stepCells*eps, 0, span)
					// A few off-lattice points keep the groupings from
					// being all ties.
					for k := 0; k < 20; k++ {
						p := points[r.Intn(len(points))].Clone()
						p[r.Intn(d)] += (r.Float64() - 0.5) * eps
						points = append(points, p)
					}
					r.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
					requireGridMatches(t, AllPairs, points, eps,
						fmt.Sprintf("eps=%v base=%v·ε step=%v·ε d=%d", eps, baseCells, stepCells, d))
				}
			}
		}
	}
}

// TestGridRoundedLatticeMatchesBounds repeats the lattice check where
// k·ε is NOT exact: coordinates land a few ulps either side of the cell
// edges, and their rounded differences a few ulps either side of ε. The
// references are All-Pairs and Bounds-Checking, which runs classify
// over every group without any index — so both grid indexes must
// surface every member and anchor the predicates admit, rounding
// included, down to the ulps a base of ±2^20 ε leaves. (At ε = 0.6,
// p = -14·ε lies two cells from a = -13·ε, but
// fl(a − p) = 0.6000000000000005 > ε keeps it out of a's group.)
func TestGridRoundedLatticeMatchesBounds(t *testing.T) {
	r := rand.New(rand.NewSource(2828))
	for _, eps := range []float64{0.1, 0.05, 0.3, 0.6, 0.15, 1.1, 0.01} {
		for _, base := range []float64{0, -0.7, 1e6, -1e6 - 0.3, 0x1p20 * eps, -0x1p20 * eps} {
			for _, d := range []int{1, 2, 3, 5} {
				span := map[int]int{1: 40, 2: 9, 3: 5, 5: 3}[d]
				for _, stepCells := range []float64{1, 2} {
					points := latticePoints(r, 140, d, base, stepCells*eps, -20, span)
					requireGridMatches(t, BoundsCheck, points, eps,
						fmt.Sprintf("eps=%v base=%v step=%v·ε d=%d", eps, base, stepCells, d))
				}
			}
		}
	}
}

// TestFindersAgreeOnRoundedChains: three points on a line, in arrival
// order, the first two a group and the third within ε (by the distance
// key) of one of them only — an overlap — placed where a finder's own
// rounding decides whether it sees that group. Every finder, one-shot
// and maintained, under both metrics, d = 1 and 2 and every clause,
// must answer as All-Pairs does, and ELIMINATE must drop one point.
// Each chain checks its premise, so it cannot go stale unnoticed:
//
//   - rtree-window: the R-tree stores the group under its ε-All
//     rectangle [fl(hi − ε), fl(lo + ε)], which an unpadded window
//     [fl(p − ε), fl(p + ε)] misses by an ulp;
//   - grid-cell-pad: the group's two members, -1e-300 and ε, are within
//     ε by the key yet two unpadded ε-cells apart, floor(x/ε) = -1 and
//     1, so the sorted cell index needs cellSide's pad and the hash
//     grid's probe geom.PaddedReach's to see the group; the first
//     member also lies in the 2ε-cell below the one the grid's former
//     unpadded 2ε anchor probe, fl(p − 2ε) = 0, started at.
func TestFindersAgreeOnRoundedChains(t *testing.T) {
	near := func(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
	for _, c := range []struct {
		name    string
		eps     float64
		x       [3]float64
		premise func(eps float64, x [3]float64) bool
	}{
		{"rtree-window", 0.3, [3]float64{-0.237847745069592, 0.06215225493040801, -0.537847745069592},
			func(eps float64, x [3]float64) bool { return x[1]-eps > x[2]+eps }},
		{"grid-cell-pad", 0.1, [3]float64{-1e-300, 0.1, 0.2},
			func(eps float64, x [3]float64) bool {
				inv := 1 / (2 * eps)
				return math.Floor(x[1]/eps)-math.Floor(x[0]/eps) == 2 &&
					math.Floor(x[0]*inv) < math.Floor((x[2]-2*eps)*inv)
			}},
	} {
		x, eps := c.x, c.eps
		if !near(x[0], x[1], eps) || near(x[0], x[2], eps) == near(x[1], x[2], eps) || !c.premise(eps, x) {
			t.Fatalf("%s: the chain no longer has its shape", c.name)
		}
		for _, d := range []int{1, 2} {
			pts := make([]geom.Point, 3)
			for i := range pts {
				pts[i] = make(geom.Point, d)
				pts[i][0] = x[i]
			}
			for _, m := range allMetrics {
				for _, ov := range allOverlaps {
					opt := Options{Metric: m, Eps: eps, Overlap: ov, Seed: 5}
					want := oneShotAllPairs(t, pts, opt)
					if ov == Eliminate && len(want.Eliminated) != 1 {
						t.Fatalf("%s d=%d %v: All-Pairs eliminated %v, want one point", c.name, d, m, want.Eliminated)
					}
					for _, alg := range []Algorithm{BoundsCheck, OnTheFlyIndex, GridIndex} {
						opt.Algorithm = alg
						got, err := SGBAll(pts, opt)
						if err != nil {
							t.Fatal(err)
						}
						for _, res := range []*Result{got, appendOneByOne(t, pts, opt)} {
							if !reflect.DeepEqual(normalizeRes(want), normalizeRes(res)) {
								t.Fatalf("%s d=%d %v %v %v: %v elim %v, All-Pairs %v elim %v",
									c.name, d, m, ov, alg, res.Groups, res.Eliminated, want.Groups, want.Eliminated)
							}
						}
					}
				}
			}
		}
	}
}

// oneShotAllPairs is the from-scratch reference of the re-anchoring
// tests: AllPairs has no index, hence no anchor to go stale.
func oneShotAllPairs(t *testing.T, pts []geom.Point, opt Options) *Result {
	t.Helper()
	opt.Algorithm = AllPairs
	res, err := SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReanchorAfterEliminate walks a group along a line: its first
// member is eliminated, a later member joins further out, and a probe
// then overlaps only that later member, 2.7ε from the first. A group
// found through its first member only would go unnoticed, and an
// eliminated member still counted would make the group look whole.
func TestReanchorAfterEliminate(t *testing.T) {
	opt := Options{Metric: geom.LInf, Eps: 1, Overlap: Eliminate, Algorithm: GridIndex, Parallelism: 1}
	// a,b found g0; c overlaps a only (a leaves: g0 re-anchors on b);
	// e joins g0; f overlaps e only, 2.7 from a's cell.
	xs := []float64{1.9, 2.8, 1.0, 3.7, 4.6, 3.0}
	ev, err := NewAllEvaluator(opt)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	for _, x := range xs {
		pts = append(pts, geom.Point{x})
		if err := ev.Append(geom.FromPoints(pts[len(pts)-1:])); err != nil {
			t.Fatal(err)
		}
		if err := sameMembers(oneShotAllPairs(t, pts, opt), ev.Result()); err != nil {
			t.Fatalf("after %v: %v", pts, err)
		}
	}
	if got := ev.Result(); len(got.Eliminated) != 2 {
		t.Fatalf("eliminated %v, want points 0 (a) and 3 (e)", got.Eliminated)
	}
}

// TestReanchorMaintainedPaths drives the three ways a maintained
// grouping loses members or registrations — ELIMINATE / FORM-NEW-GROUP
// victims that are a group's first member, decremental Remove of first
// members (a JOIN-ANY group's anchor), and the fresh sorted FORM-NEW-GROUP
// stage finder inside Result — each followed by further appends, and
// compares every step with a from-scratch AllPairs run over the
// surviving points.
func TestReanchorMaintainedPaths(t *testing.T) {
	for _, m := range allMetrics {
		for _, ov := range allOverlaps {
			for _, d := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%v/%v/d=%d", m, ov, d), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(31*d) + int64(ov)))
					opt := Options{Metric: m, Eps: 1, Overlap: ov, Algorithm: GridIndex, Seed: 3, Parallelism: 1}
					ev, err := NewAllEvaluator(opt)
					if err != nil {
						t.Fatal(err)
					}
					mirror := &mirrorSet{}
					for step := 0; step < 14; step++ {
						batch := randBatch(r, 25+r.Intn(25), d, 5)
						if err := ev.Append(geom.FromPoints(batch)); err != nil {
							t.Fatal(err)
						}
						mirror.appendBatch(batch)
						got := ev.Result() // FORM-NEW-GROUP: clone + fresh stage finder
						if err := sameMembers(oneShotAllPairs(t, mirror.pts, opt), got); err != nil {
							t.Fatalf("step %d append: %v", step, err)
						}
						if step%3 != 2 {
							continue
						}
						// Delete the first member of every third group.
						var ids []int
						for gi := 0; gi < len(got.Groups); gi += 3 {
							ids = append(ids, int(got.Groups[gi].Members[0]))
						}
						if err := ev.Remove(ids); err != nil {
							t.Fatal(err)
						}
						mirror.remove(ids)
						if err := sameMembers(oneShotAllPairs(t, mirror.pts, opt), ev.Result()); err != nil {
							t.Fatalf("step %d remove: %v", step, err)
						}
					}
				})
			}
		}
	}
}

// TestColdAllAllocationGuard bounds what one cold 3-d L2 ELIMINATE
// grouping of the benchmark's 12k check-ins allocates at ε = 0.05,
// where nearly every point founds its own group. Range registration
// paid a slab, a slot and a coordinate row per covered cell — about
// 190 MB here; one cell per member in the sorted cell index needs under
// a tenth of that.
func TestColdAllAllocationGuard(t *testing.T) {
	cfg := checkin.Brightkite(12000)
	r := rand.New(rand.NewSource(cfg.Seed ^ 0x5a17))
	ps := geom.NewPointSetCap(3, cfg.Checkins)
	for _, p := range checkin.Points(cfg) {
		q := ps.Extend()
		q[0], q[1], q[2] = p[0], p[1], r.NormFloat64()*0.25
	}
	opt := Options{Metric: geom.L2, Eps: 0.05, Overlap: Eliminate, Algorithm: GridIndex, Parallelism: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := SGBAllSet(ps, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) < 10000 {
		t.Fatalf("%d groups: the input is no longer the sparse regime this guard is about", len(res.Groups))
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 40 {
		t.Fatalf("cold 3-d ELIMINATE over 12k points allocated %.1f MB, want < 40 MB", mb)
	}
}
