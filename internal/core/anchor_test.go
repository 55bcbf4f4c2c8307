package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/geom"
)

// latticePoints draws n d-dimensional points whose coordinates are
// base + k·step for integers k in [k0, k0+span): with step = ε every
// within-ε neighbour sits at distance exactly 0 or ε per axis, on a
// cell edge of the JOIN-ANY grid; with step = 2ε the same holds for the
// 2ε cells and reach of the overlap probe.
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
// ON-OVERLAP clause with the reference strategy and with GridIndex, and
// fails unless the two agree member for member.
func requireGridMatches(t *testing.T, ref Algorithm, points []geom.Point, eps float64, label string) {
	t.Helper()
	for _, m := range allMetrics {
		for _, ov := range allOverlaps {
			opt := Options{Metric: m, Eps: eps, Overlap: ov, Seed: 5, Algorithm: ref}
			want, err := SGBAll(points, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Algorithm = GridIndex
			got, err := SGBAll(points, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMembers(want, got); err != nil {
				t.Fatalf("%s %v/%v: GridIndex differs from %v: %v", label, m, ov, ref, err)
			}
		}
	}
}

// TestGridLatticeAlignedCrossValidation is the boundary check of the
// anchor-cell probe: on lattice-aligned inputs an anchor lies at exactly
// ε (a candidate group) or 2ε (an overlap group) from the probe point,
// on a cell edge, where a probe range taken from a rounded box corner —
// or from the point's cell ± 1 — can stop one cell short. GridIndex must
// agree member for member with the AllPairs reference across metrics,
// ON-OVERLAP semantics and d ∈ {1, 2, 3, 5}, at negative and ~1e6-sized
// offsets. Every ε here keeps base + k·ε exact in binary floating
// point, so the two strategies' predicates agree and any difference is
// the probe's; 3 and 0.75 are not powers of two, so x·(1/ε) rounds.
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
// edges, and the rounded rectangle corners the filters compare against
// land a few ulps either side of the points. With ε = 0.6 the filter
// admits p = -14·ε into the group anchored at a = -13·ε (fl(a-ε) = p),
// yet fl(p+ε)/ε floors to cell -14 and p itself to cell -15, two cells
// from a's cell -13: only a padded probe box finds that anchor. The
// reference is Bounds-Checking, which applies the same rectangle
// filters to every group without any index — so the grid probe must
// surface every group those filters admit, rounding included.
func TestGridRoundedLatticeMatchesBounds(t *testing.T) {
	r := rand.New(rand.NewSource(2828))
	for _, eps := range []float64{0.1, 0.05, 0.3, 0.6, 0.15, 1.1, 0.01} {
		for _, base := range []float64{0, -0.7, 1e6, -1e6 - 0.3} {
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
// then overlaps only that later member. A group still registered under
// its original anchor would sit 2.7ε from that probe — outside the 2ε
// reach — and the overlap would go unnoticed.
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
// grouping loses or resets anchors — ELIMINATE / FORM-NEW-GROUP victims
// that are a group's first member, decremental Remove of first members,
// and the FORM-NEW-GROUP stageReset inside Result — each followed by
// further appends, and compares every step with a from-scratch AllPairs
// run over the surviving points.
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
						got := ev.Result() // FORM-NEW-GROUP: clone + stageReset
						if err := sameMembers(oneShotAllPairs(t, mirror.pts, opt), got); err != nil {
							t.Fatalf("step %d append: %v", step, err)
						}
						if step%3 != 2 {
							continue
						}
						// Delete the first member of every third group.
						var ids []int
						for gi := 0; gi < len(got.Groups); gi += 3 {
							ids = append(ids, got.Groups[gi].Members[0])
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
// 190 MB here; one anchor cell per group needs under a tenth of that.
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
