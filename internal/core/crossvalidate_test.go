package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// randomPointsDim draws n points uniformly from [0,span]^d.
func randomPointsDim(r *rand.Rand, n, d int, span float64) []geom.Point {
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

// sameMembers reports whether two results are identical member-for-
// member: the same groups in the same creation order with members in
// the same join order, and the same elimination sequence.
func sameMembers(a, b *Result) error {
	if len(a.Groups) != len(b.Groups) {
		return fmt.Errorf("group count %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if !equalIntSlices(a.Groups[i].Members, b.Groups[i].Members) {
			return fmt.Errorf("group %d members %v vs %v", i, a.Groups[i].Members, b.Groups[i].Members)
		}
	}
	if !equalIntSlices(a.Eliminated, b.Eliminated) {
		return fmt.Errorf("eliminated %v vs %v", a.Eliminated, b.Eliminated)
	}
	return nil
}

// TestGridCrossValidationAll checks GridIndex member-for-member
// against the AllPairs reference for SGB-All on randomized inputs
// across {L2, L∞} × {JOIN-ANY, ELIMINATE, FORM-NEW-GROUP} ×
// d ∈ {1, 2, 3, 4, 5, 6, 8}, where the sorted cell index walks up to
// 3^d − 1 neighbouring cells. Equal seeds must yield byte-identical
// groupings: the grid finder normalizes candidate enumeration to
// group-creation order, so even the randomized JOIN-ANY arbitration
// coincides.
func TestGridCrossValidationAll(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 20; trial++ {
		for _, d := range []int{1, 2, 3, 4, 5, 6, 8} {
			n := 40 + r.Intn(160)
			span := 8.0
			if trial%2 == 1 {
				span = 2.5 // dense regime: heavy candidate/overlap traffic
			}
			if d > 3 {
				span /= 2 // keep ε-neighbours as the ε-box's share of the cube shrinks
			}
			points := randomPointsDim(r, n, d, span)
			eps := 0.15 + r.Float64()*1.2
			seed := int64(trial * 31)
			for _, m := range allMetrics {
				for _, ov := range allOverlaps {
					opt := Options{Metric: m, Eps: eps, Overlap: ov, Seed: seed}
					opt.Algorithm = AllPairs
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
						t.Fatalf("trial %d d=%d %v/%v eps=%.3f: GridIndex differs from AllPairs: %v",
							trial, d, m, ov, eps, err)
					}
					if err := CheckCliques(points, m, eps, got); err != nil {
						t.Fatalf("trial %d d=%d %v/%v: invalid grouping: %v", trial, d, m, ov, err)
					}
				}
			}
		}
	}
}

// TestGridCrossValidationAny checks SGB-Any under GridIndex against
// both the AllPairs operator and the brute-force connected components,
// across metrics and d∈{1,2,3}.
func TestGridCrossValidationAny(t *testing.T) {
	r := rand.New(rand.NewSource(4052))
	for trial := 0; trial < 20; trial++ {
		for _, d := range []int{1, 2, 3} {
			n := 40 + r.Intn(160)
			points := randomPointsDim(r, n, d, 6)
			eps := 0.15 + r.Float64()*0.9
			for _, m := range allMetrics {
				opt := Options{Metric: m, Eps: eps, Algorithm: AllPairs}
				want, err := SGBAny(points, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.Algorithm = GridIndex
				got, err := SGBAny(points, opt)
				if err != nil {
					t.Fatal(err)
				}
				// groupsFromUF emits a canonical order, so the grid
				// result must be identical member-for-member, not just
				// the same partition.
				if err := sameMembers(want, got); err != nil {
					t.Fatalf("trial %d d=%d %v eps=%.3f: %v", trial, d, m, eps, err)
				}
				if !SameGrouping(got.Groups, ConnectedComponents(points, m, eps)) {
					t.Fatalf("trial %d d=%d %v: partition differs from brute force", trial, d, m)
				}
			}
		}
	}
}

// TestGridHighDimCrossValidation: the hashed-cell grid lifted the old
// d ≤ 4 cap, so the GridIndex strategy must agree with AllPairs
// member-for-member at d ∈ {5, 6, 8} — for SGB-All across every
// ON-OVERLAP semantics and metric, and for SGB-Any (where the Morton
// preprocessing and its output remap are in play) against both
// AllPairs and the brute-force connected components.
func TestGridHighDimCrossValidation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		for _, d := range []int{5, 6, 8} {
			n := 60 + r.Intn(120)
			// Span shrinks with d so the ε-balls keep finding neighbors
			// in high dimensions.
			points := randomPointsDim(r, n, d, 2.2)
			eps := 0.6 + r.Float64()*0.6
			seed := int64(trial*17 + d)
			for _, m := range allMetrics {
				for _, ov := range allOverlaps {
					opt := Options{Metric: m, Eps: eps, Overlap: ov, Seed: seed}
					opt.Algorithm = AllPairs
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
						t.Fatalf("trial %d d=%d %v/%v eps=%.3f: %v", trial, d, m, ov, eps, err)
					}
					if err := CheckCliques(points, m, eps, got); err != nil {
						t.Fatalf("trial %d d=%d %v/%v: invalid grouping: %v", trial, d, m, ov, err)
					}
				}
				optAny := Options{Metric: m, Eps: eps, Algorithm: AllPairs}
				wantAny, err := SGBAny(points, optAny)
				if err != nil {
					t.Fatal(err)
				}
				optAny.Algorithm = GridIndex
				gotAny, err := SGBAny(points, optAny)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameMembers(wantAny, gotAny); err != nil {
					t.Fatalf("trial %d d=%d %v SGB-Any: %v", trial, d, m, err)
				}
				if !SameGrouping(gotAny.Groups, ConnectedComponents(points, m, eps)) {
					t.Fatalf("trial %d d=%d %v: partition differs from brute force", trial, d, m)
				}
			}
		}
	}
}

// TestAnyGridInputOrderIDs: the grid, which visits points cell by cell,
// must answer member for member what the All-Pairs run, which visits
// them in input order, does — input-order ids, canonical group order.
func TestAnyGridInputOrderIDs(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, d := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 10; trial++ {
			n := 32 + r.Intn(800)
			points := randomPointsDim(r, n, d, 7)
			eps := 0.3 + r.Float64()*0.7
			for _, m := range allMetrics {
				want, err := SGBAny(points, Options{Metric: m, Eps: eps, Algorithm: AllPairs})
				if err != nil {
					t.Fatal(err)
				}
				got, err := SGBAny(points, Options{Metric: m, Eps: eps, Algorithm: GridIndex, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := sameMembers(want, got); err != nil {
					t.Fatalf("d=%d n=%d %v eps=%.3f: %v", d, n, m, eps, err)
				}
			}
		}
	}
}

// TestAnyEvaluatorBatchSizes drives the incremental SGB-Any evaluator
// with a first batch it builds whole (the cell graph) and then large and
// small batches it appends point by point, and demands the retained
// grouping match the one-shot evaluation over the concatenation after
// every append.
func TestAnyEvaluatorBatchSizes(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	opt := Options{Metric: geom.L2, Eps: 0.5, Algorithm: GridIndex}
	ev, err := NewAnyLevels([]float64{opt.Eps}, opt)
	if err != nil {
		t.Fatal(err)
	}
	all := geom.NewPointSet(2)
	for _, batchN := range []int{5, 200, 3, 150, 32, 1, 400} {
		batch := geom.NewPointSetCap(2, batchN)
		for i := 0; i < batchN; i++ {
			p := batch.Extend()
			p[0], p[1] = r.Float64()*10, r.Float64()*10
		}
		if err := ev.Append(batch); err != nil {
			t.Fatal(err)
		}
		all.AppendSet(batch)
		want, err := SGBAnySet(all, Options{Metric: geom.L2, Eps: 0.5, Algorithm: AllPairs})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMembers(want, ev.Result()); err != nil {
			t.Fatalf("after %d points: %v", all.Len(), err)
		}
	}
}

// TestGridStatsCounters: the grid strategy reports one probe per input
// point and strictly fewer rectangle tests than the linear
// Bounds-Checking scan on clustered data.
func TestGridStatsCounters(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	points := clusteredPoints(r, 600, 12, 40, 0.3)
	grid := &Stats{}
	bounds := &Stats{}
	if _, err := SGBAll(points, Options{
		Metric: geom.LInf, Eps: 0.5, Overlap: JoinAny, Algorithm: GridIndex, Stats: grid,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := SGBAll(points, Options{
		Metric: geom.LInf, Eps: 0.5, Overlap: JoinAny, Algorithm: BoundsCheck, Stats: bounds,
	}); err != nil {
		t.Fatal(err)
	}
	if grid.IndexProbes != int64(len(points)) {
		t.Errorf("grid probes = %d, want %d", grid.IndexProbes, len(points))
	}
	if grid.RectTests >= bounds.RectTests {
		t.Errorf("grid rect tests %d should be below linear scan %d", grid.RectTests, bounds.RectTests)
	}
}
