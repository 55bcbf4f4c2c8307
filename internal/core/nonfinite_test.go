package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// TestNonFiniteRejected pins the operator-surface half of the
// non-finite guard: NaN/±Inf coordinates are refused by every entry
// point — one-shot (both operators, slice and flat forms) and the
// incremental evaluators' appends — before they can reach the grid's
// integer cell quantization or the Morton bit-spread.
func TestNonFiniteRejected(t *testing.T) {
	opt := Options{Metric: geom.L2, Eps: 1, Algorithm: GridIndex}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pts := []geom.Point{{0, 0}, {bad, 1}}
		if _, err := SGBAll(pts, opt); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("SGBAll(%v) = %v, want non-finite rejection", bad, err)
		}
		if _, err := SGBAny(pts, opt); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("SGBAny(%v) = %v, want non-finite rejection", bad, err)
		}
		ps := geom.FromPoints(pts)
		if _, err := SGBAllSet(ps, opt); err == nil {
			t.Fatalf("SGBAllSet accepted %v", bad)
		}
		if _, err := SGBAnySet(ps, opt); err == nil {
			t.Fatalf("SGBAnySet accepted %v", bad)
		}

		all, err := NewAllEvaluator(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := all.Append(ps); err == nil {
			t.Fatalf("AllEvaluator.Append accepted %v", bad)
		}
		if all.Len() != 0 {
			t.Fatalf("rejected append left %d points in AllEvaluator", all.Len())
		}
		anyEv, err := NewAnyLevels([]float64{opt.Eps}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := anyEv.Append(ps); err == nil {
			t.Fatalf("AnyEvaluator.Append accepted %v", bad)
		}
		if anyEv.Len() != 0 {
			t.Fatalf("rejected append left %d points in AnyEvaluator", anyEv.Len())
		}
	}
}

// TestCoordinateRange pins the other half of the ingestion guard: a
// coordinate is accepted up to 2^52 ε-cells from the origin — where the
// grid, the tiled pipeline and a sweep still answer what All-Pairs
// answers — and refused one step past it with an error naming it, at
// every level of a sweep; ε itself is refused where 2^53 cells of it,
// or its reciprocal, overflow.
func TestCoordinateRange(t *testing.T) {
	const eps = 0.25
	edge := eps * maxCells
	inside := []geom.Point{{edge, -edge}, {edge - eps, -edge}, {edge - 3*eps, -edge + eps}, {-edge, edge}, {0, 0}, {eps / 2, 0}}
	want, err := SGBAny(inside, Options{Metric: geom.LInf, Eps: eps, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) != 4 {
		t.Fatalf("All-Pairs finds %d groups at the edge, want 4", len(want.Groups))
	}
	for _, par := range []int{1, 2} {
		got, err := SGBAny(inside, Options{Metric: geom.LInf, Eps: eps, Algorithm: GridIndex, Parallelism: par})
		if err != nil || !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("Parallelism=%d at the edge: %v, %v; want %v", par, got, err, want)
		}
	}
	if got, err := SweepAny(inside, []float64{eps, 2 * eps}, Options{Metric: geom.LInf, Algorithm: GridIndex}); err != nil || !reflect.DeepEqual(got[0].Groups, want.Groups) {
		t.Fatalf("SweepAny at the edge: %v, %v", got, err)
	}
	// A level below ε puts the edge past 2^52 of its cells: the sweep is
	// refused as a single-ε run at that level is.
	var re *coordRangeError
	if _, err := SweepAny(inside, []float64{eps / 2, eps}, Options{Metric: geom.LInf, Algorithm: GridIndex}); !errors.As(err, &re) || re.Eps != eps/2 {
		t.Fatalf("SweepAny with a level below the edge's: %v", err)
	}
	for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
		opt := Options{Metric: geom.LInf, Eps: eps, Overlap: ov, Algorithm: AllPairs}
		ref, err := SGBAll(inside, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Algorithm = GridIndex
		if got, err := SGBAll(inside, opt); err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("SGBAll %v at the edge: %v, %v; want %v", ov, got, err, ref)
		}
	}

	outside := []geom.Point{{0, 0}, {0, -math.Nextafter(edge, math.Inf(1))}}
	if _, err := SGBAny(outside, Options{Metric: geom.L2, Eps: eps, Algorithm: GridIndex}); !errors.As(err, &re) || re.Point != 1 || re.Dim != 1 {
		t.Fatalf("SGBAny past the edge: %v", err)
	}
	if _, err := SGBAll(outside, Options{Metric: geom.L2, Eps: eps}); !errors.As(err, &re) {
		t.Fatalf("SGBAll past the edge: %v", err)
	}

	for _, bad := range []float64{math.MaxFloat64 / maxCells, 1e308, 5e-324, 1e-310} {
		if err := (Options{Metric: geom.L2, Eps: bad}).Validate(); err == nil {
			t.Errorf("ε = %v validated", bad)
		}
	}
	for _, ok := range []float64{math.MaxFloat64 / (4 * maxCells), 2.3e-308} {
		if err := (Options{Metric: geom.L2, Eps: ok}).Validate(); err != nil {
			t.Errorf("ε = %v: %v", ok, err)
		}
	}
}
