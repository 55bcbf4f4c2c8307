package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

var allAlgorithms = []Algorithm{AllPairs, BoundsCheck, OnTheFlyIndex, GridIndex}
var allOverlaps = []Overlap{JoinAny, Eliminate, FormNewGroup}
var allMetrics = []geom.Metric{geom.L2, geom.LInf}

func sortedSizes(r *Result) []int {
	s := r.Sizes()
	sort.Ints(s)
	return s
}

func equalIntSlices[T int | int32](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// figure2Points reconstructs the running example of Figure 2 /
// Examples 1–2: after processing a1..a4 the groups are g1{a1,a2} and
// g2{a3,a4}; a5 is within ε=3 (L∞) of every member of both groups.
func figure2Points() []geom.Point {
	return []geom.Point{
		{2, 5}, // a1
		{3, 6}, // a2
		{7, 5}, // a3
		{8, 6}, // a4
		{5, 4}, // a5: within 3 of a1..a4 under L∞
	}
}

// TestExample1JoinAny reproduces the paper's Example 1: JOIN-ANY yields
// groups of sizes {3,2} (a5 joins either group).
func TestExample1JoinAny(t *testing.T) {
	for _, alg := range allAlgorithms {
		res, err := SGBAll(figure2Points(), Options{
			Metric: geom.LInf, Eps: 3, Overlap: JoinAny, Algorithm: alg,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := sortedSizes(res)
		if !equalIntSlices(got, []int{2, 3}) {
			t.Errorf("%v: JOIN-ANY sizes = %v, want {2,3}", alg, got)
		}
		if len(res.Eliminated) != 0 {
			t.Errorf("%v: JOIN-ANY eliminated %v", alg, res.Eliminated)
		}
	}
}

// TestExample1Eliminate: ELIMINATE drops a5, leaving {2,2}.
func TestExample1Eliminate(t *testing.T) {
	for _, alg := range allAlgorithms {
		res, err := SGBAll(figure2Points(), Options{
			Metric: geom.LInf, Eps: 3, Overlap: Eliminate, Algorithm: alg,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := sortedSizes(res)
		if !equalIntSlices(got, []int{2, 2}) {
			t.Errorf("%v: ELIMINATE sizes = %v, want {2,2}", alg, got)
		}
		if !equalIntSlices(res.Eliminated, []int{4}) {
			t.Errorf("%v: eliminated = %v, want [4]", alg, res.Eliminated)
		}
	}
}

// TestExample1FormNewGroup: FORM-NEW-GROUP creates g3{a5}: {2,2,1}.
// Critically, a5 does NOT rejoin g1 or g2 during the recursive pass.
func TestExample1FormNewGroup(t *testing.T) {
	for _, alg := range allAlgorithms {
		res, err := SGBAll(figure2Points(), Options{
			Metric: geom.LInf, Eps: 3, Overlap: FormNewGroup, Algorithm: alg,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := sortedSizes(res)
		if !equalIntSlices(got, []int{1, 2, 2}) {
			t.Errorf("%v: FORM-NEW-GROUP sizes = %v, want {1,2,2}", alg, got)
		}
	}
}

// figure4Points reconstructs Figure 4: at x's arrival the groups are
// g1{a1,a2,a3}, g2{b1,b2}, g3{c1,c2,c3}, g4{d1,d2}; with ε=4 (L∞),
// CandidateGroups(x) = {g2,g3} and OverlapGroups(x) = {g1} (only a3 is
// within ε of x).
func figure4Points() []geom.Point {
	return []geom.Point{
		{3, 11},  // a1
		{5, 11},  // a2
		{6, 9},   // a3 (within 4 of x)
		{8, 2},   // b1
		{9, 3},   // b2
		{12, 9},  // c1
		{13, 10}, // c2
		{14, 9},  // c3
		{20, 20}, // d1
		{21, 21}, // d2
		{10, 6},  // x
	}
}

func TestFigure4Eliminate(t *testing.T) {
	for _, alg := range allAlgorithms {
		res, err := SGBAll(figure4Points(), Options{
			Metric: geom.LInf, Eps: 4, Overlap: Eliminate, Algorithm: alg,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		// x dropped (two candidates), a3 deleted from g1 (overlap victim).
		got := sortedSizes(res)
		if !equalIntSlices(got, []int{2, 2, 2, 3}) {
			t.Errorf("%v: sizes = %v, want {2,2,2,3}", alg, got)
		}
		wantElim := []int{10, 2} // x first (ProcessEliminate), then a3 (ProcessOverlap)
		if !equalIntSlices(res.Eliminated, wantElim) {
			t.Errorf("%v: eliminated = %v, want %v", alg, res.Eliminated, wantElim)
		}
	}
}

func TestFigure4FormNewGroup(t *testing.T) {
	for _, alg := range allAlgorithms {
		res, err := SGBAll(figure4Points(), Options{
			Metric: geom.LInf, Eps: 4, Overlap: FormNewGroup, Algorithm: alg,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		// x and a3 move to S′ and form a new group together
		// (L∞(x, a3) = 4 ≤ ε).
		got := sortedSizes(res)
		if !equalIntSlices(got, []int{2, 2, 2, 2, 3}) {
			t.Errorf("%v: sizes = %v, want {2,2,2,2,3}", alg, got)
		}
		// The new group must contain exactly {a3, x}.
		found := false
		for _, g := range res.Groups {
			ms := append([]int32(nil), g.Members...)
			slices.Sort(ms)
			if equalIntSlices(ms, []int32{2, 10}) {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: no group {a3,x} in %v", alg, res.Groups)
		}
	}
}

func TestFigure4JoinAny(t *testing.T) {
	for _, alg := range allAlgorithms {
		res, err := SGBAll(figure4Points(), Options{
			Metric: geom.LInf, Eps: 4, Overlap: JoinAny, Algorithm: alg, Seed: 7,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		// x joins g2 or g3; g1 keeps a3. Total points = 11, 4 groups.
		if res.NumGroups() != 4 {
			t.Errorf("%v: %d groups, want 4", alg, res.NumGroups())
		}
		total := 0
		for _, g := range res.Groups {
			total += len(g.Members)
		}
		if total != 11 {
			t.Errorf("%v: %d members, want 11", alg, total)
		}
	}
}

// TestL2FalsePositiveRejected: the classic Figure 7b case — a point
// inside the ε-All rectangle but outside the ε-circle must not join
// under L2, while it does join under L∞.
func TestL2FalsePositiveRejected(t *testing.T) {
	points := []geom.Point{{0, 0}, {1.9, 1.9}}
	for _, alg := range allAlgorithms {
		res, err := SGBAll(points, Options{Metric: geom.L2, Eps: 2, Overlap: JoinAny, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.NumGroups() != 2 {
			t.Errorf("%v: L2 grouped a false positive: %v", alg, res.Groups)
		}
		res, err = SGBAll(points, Options{Metric: geom.LInf, Eps: 2, Overlap: JoinAny, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.NumGroups() != 1 {
			t.Errorf("%v: LInf should group the pair: %v", alg, res.Groups)
		}
	}
}

// TestHullRefinementDeepGroup exercises the convex-hull test on groups
// large enough to have interior (non-hull) members: every strategy that
// filters by rectangles must refine through the hull, not a member scan.
func TestHullRefinementDeepGroup(t *testing.T) {
	// Dense cluster of 30 points in a 0.5-radius disc, then probes.
	r := rand.New(rand.NewSource(3))
	var points []geom.Point
	for i := 0; i < 30; i++ {
		points = append(points, geom.Point{r.Float64() * 0.5, r.Float64() * 0.5})
	}
	points = append(points, geom.Point{0.25, 0.25}) // interior: must join
	points = append(points, geom.Point{1.4, 1.4})   // outside ε of far corner under L2
	for _, alg := range allAlgorithms {
		var st Stats
		res, err := SGBAll(points, Options{Metric: geom.L2, Eps: 1.0, Overlap: JoinAny, Algorithm: alg, Stats: &st})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := CheckCliques(points, geom.L2, 1.0, res); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
		if alg != AllPairs && st.HullTests == 0 {
			t.Errorf("%v: the hull test never ran", alg)
		}
	}
}

func randomPoints(r *rand.Rand, n, d int, span float64) []geom.Point {
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

// clusteredPoints emulates the spatial skew of check-in data: points
// drawn around k hot-spots.
func clusteredPoints(r *rand.Rand, n, k int, span, sigma float64) []geom.Point {
	centers := randomPoints(r, k, 2, span)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[r.Intn(k)]
		pts[i] = geom.Point{c[0] + r.NormFloat64()*sigma, c[1] + r.NormFloat64()*sigma}
	}
	return pts
}

// TestAlgorithmsAgree is the central cross-validation property: for any
// input, metric, and overlap clause, the three strategies produce the
// identical grouping (the optimizations are exact filters, and JOIN-ANY
// arbitration is normalized to group-creation order).
func TestAlgorithmsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		var points []geom.Point
		if trial%2 == 0 {
			points = randomPoints(r, 30+r.Intn(120), 2, 10)
		} else {
			points = clusteredPoints(r, 30+r.Intn(120), 4, 10, 0.4)
		}
		eps := 0.2 + r.Float64()*1.5
		for _, m := range allMetrics {
			for _, ov := range allOverlaps {
				var ref *Result
				for _, alg := range allAlgorithms {
					res, err := SGBAll(points, Options{
						Metric: m, Eps: eps, Overlap: ov, Algorithm: alg, Seed: int64(trial),
					})
					if err != nil {
						t.Fatalf("trial %d %v/%v/%v: %v", trial, m, ov, alg, err)
					}
					if err := CheckCliques(points, m, eps, res); err != nil {
						t.Fatalf("trial %d %v/%v/%v: invalid grouping: %v",
							trial, m, ov, alg, err)
					}
					if ref == nil {
						ref = res
						continue
					}
					if !SameGrouping(ref.Groups, res.Groups) {
						t.Fatalf("trial %d %v/%v: %v grouping differs from AllPairs\nref=%v\ngot=%v",
							trial, m, ov, alg, ref.Groups, res.Groups)
					}
					if !equalIntSlices(ref.Eliminated, res.Eliminated) {
						t.Fatalf("trial %d %v/%v: %v eliminated %v != ref %v",
							trial, m, ov, alg, res.Eliminated, ref.Eliminated)
					}
				}
			}
		}
	}
}

// TestJoinAnyIsPartition: under JOIN-ANY every input point lands in
// exactly one group.
func TestJoinAnyIsPartition(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	points := clusteredPoints(r, 400, 6, 20, 0.5)
	for _, alg := range allAlgorithms {
		res, err := SGBAll(points, Options{Metric: geom.L2, Eps: 1, Overlap: JoinAny, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, g := range res.Groups {
			total += len(g.Members)
		}
		if total != len(points) {
			t.Errorf("%v: partition covers %d of %d", alg, total, len(points))
		}
		if len(res.Eliminated) != 0 {
			t.Errorf("%v: JOIN-ANY eliminated points", alg)
		}
	}
}

// TestSeedReproducibility: identical seeds give identical groupings;
// different seeds may differ (JOIN-ANY arbitration) but remain valid.
func TestSeedReproducibility(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	points := clusteredPoints(r, 300, 5, 10, 0.6)
	opt := Options{Metric: geom.LInf, Eps: 0.8, Overlap: JoinAny, Algorithm: OnTheFlyIndex, Seed: 42}
	a, err := SGBAll(points, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SGBAll(points, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !SameGrouping(a.Groups, b.Groups) {
		t.Fatal("same seed produced different groupings")
	}
}

// TestSingletonAndEmptyInputs covers the trivial boundaries.
func TestSingletonAndEmptyInputs(t *testing.T) {
	for _, alg := range allAlgorithms {
		res, err := SGBAll(nil, Options{Metric: geom.L2, Eps: 1, Algorithm: alg})
		if err != nil || res.NumGroups() != 0 {
			t.Fatalf("%v: empty input: %v %v", alg, res, err)
		}
		res, err = SGBAll([]geom.Point{{1, 2}}, Options{Metric: geom.L2, Eps: 1, Algorithm: alg})
		if err != nil || res.NumGroups() != 1 || len(res.Groups[0].Members) != 1 {
			t.Fatalf("%v: single input: %v %v", alg, res, err)
		}
	}
}

func TestIdenticalPointsFormOneGroup(t *testing.T) {
	pts := []geom.Point{{3, 3}, {3, 3}, {3, 3}, {3, 3}}
	for _, alg := range allAlgorithms {
		for _, ov := range allOverlaps {
			res, err := SGBAll(pts, Options{Metric: geom.L2, Eps: 0.5, Overlap: ov, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumGroups() != 1 || len(res.Groups[0].Members) != 4 {
				t.Errorf("%v/%v: %v", alg, ov, res.Groups)
			}
		}
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := SGBAll([]geom.Point{{1}}, Options{Metric: geom.L2, Eps: 0}); err == nil {
		t.Error("accepted ε=0")
	}
	if _, err := SGBAll([]geom.Point{{1}}, Options{Metric: geom.L2, Eps: math.NaN(), Algorithm: GridIndex}); err == nil {
		t.Error("accepted ε=NaN")
	}
	if _, err := SGBAll([]geom.Point{{1}}, Options{Metric: geom.L2, Eps: math.Inf(1), Algorithm: GridIndex}); err == nil {
		t.Error("accepted ε=+Inf")
	}
	if _, err := SGBAll([]geom.Point{{1}}, Options{Metric: geom.Metric(9), Eps: 1}); err == nil {
		t.Error("accepted bad metric")
	}
	if _, err := SGBAll([]geom.Point{{1}}, Options{Metric: geom.L2, Eps: 1, Overlap: Overlap(9)}); err == nil {
		t.Error("accepted bad overlap")
	}
	if _, err := SGBAll([]geom.Point{{1}}, Options{Metric: geom.L2, Eps: 1, Algorithm: Algorithm(9)}); err == nil {
		t.Error("accepted bad algorithm")
	}
	if _, err := SGBAll([]geom.Point{{1, 2}, {1}}, Options{Metric: geom.L2, Eps: 1}); err == nil {
		t.Error("accepted mixed dimensionality")
	}
}

// TestThreeDimensional exercises d=3 (the paper's other target
// dimensionality); the hull refinement falls back to exact scans.
func TestThreeDimensional(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	points := randomPoints(r, 150, 3, 5)
	for _, m := range allMetrics {
		var ref *Result
		for _, alg := range allAlgorithms {
			res, err := SGBAll(points, Options{Metric: m, Eps: 0.8, Overlap: JoinAny, Algorithm: alg, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckCliques(points, m, 0.8, res); err != nil {
				t.Fatalf("%v/%v: %v", m, alg, err)
			}
			if ref == nil {
				ref = res
			} else if !SameGrouping(ref.Groups, res.Groups) {
				t.Fatalf("%v/%v: grouping differs", m, alg)
			}
		}
	}
}

// TestStatsCounters verifies that the operation counters reflect the
// complexity ordering of Table 1: All-Pairs does strictly more distance
// computations than Bounds-Checking, which does at least as many
// rectangle tests as the index probes.
func TestStatsCounters(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	points := clusteredPoints(r, 600, 12, 40, 0.3)
	counts := map[Algorithm]*Stats{}
	for _, alg := range allAlgorithms {
		st := &Stats{}
		if _, err := SGBAll(points, Options{
			Metric: geom.LInf, Eps: 0.5, Overlap: JoinAny, Algorithm: alg, Stats: st,
		}); err != nil {
			t.Fatal(err)
		}
		counts[alg] = st
	}
	if counts[AllPairs].DistanceComputations <= counts[BoundsCheck].DistanceComputations {
		t.Errorf("All-Pairs distances %d should exceed Bounds-Checking %d",
			counts[AllPairs].DistanceComputations, counts[BoundsCheck].DistanceComputations)
	}
	if counts[OnTheFlyIndex].RectTests >= counts[BoundsCheck].RectTests {
		t.Errorf("index rect tests %d should be below linear scan %d",
			counts[OnTheFlyIndex].RectTests, counts[BoundsCheck].RectTests)
	}
	if counts[OnTheFlyIndex].IndexProbes != int64(len(points)) {
		t.Errorf("index probes = %d, want one per point (%d)",
			counts[OnTheFlyIndex].IndexProbes, len(points))
	}
	if counts[BoundsCheck].GroupsCreated != counts[OnTheFlyIndex].GroupsCreated {
		t.Errorf("group counts differ: %d vs %d",
			counts[BoundsCheck].GroupsCreated, counts[OnTheFlyIndex].GroupsCreated)
	}
}

// TestEliminateAccounting: every input index ends up either grouped or
// eliminated, never both (CheckCliques verifies, this adds scale).
func TestEliminateAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	points := clusteredPoints(r, 800, 8, 15, 0.8)
	for _, alg := range allAlgorithms {
		res, err := SGBAll(points, Options{Metric: geom.L2, Eps: 0.9, Overlap: Eliminate, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckCliques(points, geom.L2, 0.9, res); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Eliminated) == 0 {
			t.Logf("%v: note: no eliminations in this workload", alg)
		}
	}
}

// TestFormNewGroupRecursionTerminates stresses overlapping clusters
// that force deep S′ recursion.
func TestFormNewGroupRecursionTerminates(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	// A dense line of points with spacing ~ε/2 creates heavy chained
	// overlap, the worst case for FORM-NEW-GROUP.
	var points []geom.Point
	for i := 0; i < 300; i++ {
		points = append(points, geom.Point{float64(i) * 0.45, r.Float64() * 0.1})
	}
	st := &Stats{}
	res, err := SGBAll(points, Options{
		Metric: geom.LInf, Eps: 1, Overlap: FormNewGroup, Algorithm: OnTheFlyIndex, Stats: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCliques(points, geom.LInf, 1, res); err != nil {
		t.Fatal(err)
	}
	if st.RecursionDepth == 0 {
		t.Error("expected nonzero FORM-NEW-GROUP recursion depth")
	}
	t.Logf("recursion depth: %d, groups: %d", st.RecursionDepth, res.NumGroups())
}

// TestHullRefinementAcceptsByKey: the L2 hull refinement decides by the
// squared distance key, as the member scan and All-Pairs do, not by a
// square root that can round onto ε. (1, 2⁻²⁶) is at squared distance
// 1 + 2⁻⁵² from the origin, just past ε = 1, while its distance rounds
// to 1: the hull of the first nine points must not admit the origin.
func TestHullRefinementAcceptsByKey(t *testing.T) {
	points := []geom.Point{
		{1, math.Ldexp(1, -26)}, {0.9, 0}, {0.9, 0.05}, {0.95, -0.05}, {0.92, 0.02},
		{0.93, -0.02}, {0.94, 0.03}, {0.91, -0.03}, {0.96, 0.01}, {0, 0},
	}
	var want [2]any
	for i, alg := range allAlgorithms {
		res, err := SGBAll(points, Options{Metric: geom.L2, Eps: 1, Overlap: JoinAny, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := CheckCliques(points, geom.L2, 1, res); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
		if got := normalizeRes(res); i == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: %v, want %v as %v", alg, got, want, allAlgorithms[0])
		}
	}
}

// TestAllResultOwnsEliminated: a maintained ELIMINATE grouping's Result
// keeps its Eliminated list when the evaluator later filters its own in
// place. Two copies of Figure 2 eliminate a5 and its copy; removing a1
// drops the first event and shifts the second down.
func TestAllResultOwnsEliminated(t *testing.T) {
	pts := geom.FromPoints(figure2Points())
	for _, p := range figure2Points() {
		pts.AppendPoint(geom.Point{p[0] + 50, p[1] + 50})
	}
	ev, err := NewAllEvaluator(Options{Metric: geom.LInf, Eps: 3, Overlap: Eliminate, Algorithm: GridIndex})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Append(pts); err != nil {
		t.Fatal(err)
	}
	before := ev.Result()
	if !reflect.DeepEqual(before.Eliminated, []int{4, 9}) {
		t.Fatalf("eliminated %v, want [4 9]", before.Eliminated)
	}
	if err := ev.Remove([]int{0}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Eliminated, []int{4, 9}) {
		t.Fatalf("a Remove rewrote an earlier Result's eliminated list: %v", before.Eliminated)
	}
}
