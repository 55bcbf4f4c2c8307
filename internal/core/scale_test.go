package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// scaleInput prefixes a FuzzSweepLevels input with the scale byte
// FuzzScaleCovariance reads: k = ±(1 + b%8), negative when bit 3 is set.
func scaleInput(b byte, sweep []byte) []byte { return append([]byte{b}, sweep...) }

// scalePoints returns ps with every coordinate multiplied by s, a power
// of two, so every product is exact.
func scalePoints(ps *geom.PointSet, s float64) *geom.PointSet {
	out := geom.NewPointSetCap(ps.Dims(), ps.Len())
	for i := 0; i < ps.Len(); i++ {
		p := out.Extend()
		for c, v := range ps.At(i) {
			p[c] = v * s
		}
	}
	return out
}

// sameUnderScale runs eval on the original and the scaled input and
// fails unless both refuse, or both answer with the same groups, ids,
// order and eliminated points.
func sameUnderScale(t *testing.T, name string, eval func(scaled bool) ([]*Result, error)) {
	t.Helper()
	want, errW := eval(false)
	got, errG := eval(true)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("%s: unscaled error %v, scaled error %v", name, errW, errG)
	}
	for l := range want {
		if !reflect.DeepEqual(normalizeRes(want[l]), normalizeRes(got[l])) {
			t.Fatalf("%s, level %d: scaling moved the grouping\nunscaled: %v elim %v\nscaled:   %v elim %v",
				name, l, want[l].Groups, want[l].Eliminated, got[l].Groups, got[l].Eliminated)
		}
	}
}

// checkScaleCovariance holds every grouping over ps at levels to the
// one over ps and levels multiplied by s, under both metrics: SGB-Any
// single-ε and swept under every strategy, and SGB-All under ELIMINATE
// and FORM-NEW-GROUP under every finder.
func checkScaleCovariance(t *testing.T, ps *geom.PointSet, levels []float64, s float64) {
	scaled := scalePoints(ps, s)
	pick := func(sc bool) (*geom.PointSet, float64) {
		if sc {
			return scaled, s
		}
		return ps, 1
	}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		for _, alg := range anyStrategies {
			opt := Options{Metric: m, Algorithm: alg, Parallelism: 1}
			sameUnderScale(t, fmt.Sprintf("%v any %v sweep %v", m, alg, levels), func(sc bool) ([]*Result, error) {
				pts, f := pick(sc)
				eps := make([]float64, len(levels))
				for l, e := range levels {
					eps[l] = e * f
				}
				return SweepAnySet(pts, eps, opt)
			})
		}
		for _, eps := range levels {
			for _, alg := range anyStrategies {
				opt := Options{Metric: m, Algorithm: alg, Parallelism: 1}
				sameUnderScale(t, fmt.Sprintf("%v any %v ε=%v", m, alg, eps), func(sc bool) ([]*Result, error) {
					pts, f := pick(sc)
					o := opt
					o.Eps = eps * f
					r, err := SGBAnySet(pts, o)
					return []*Result{r}, err
				})
			}
			for _, ov := range []Overlap{Eliminate, FormNewGroup} {
				for _, alg := range []Algorithm{AllPairs, BoundsCheck, OnTheFlyIndex, GridIndex} {
					opt := Options{Metric: m, Overlap: ov, Algorithm: alg, Parallelism: 1}
					sameUnderScale(t, fmt.Sprintf("%v all %v %v ε=%v", m, ov, alg, eps), func(sc bool) ([]*Result, error) {
						pts, f := pick(sc)
						o := opt
						o.Eps = eps * f
						r, err := SGBAllSet(pts, o)
						return []*Result{r}, err
					})
				}
			}
		}
	}
}

// FuzzScaleCovariance multiplies every coordinate and every ε by 2^k.
// Binary scaling is exact, and every test the operators make commutes
// with it — rounded differences and distance keys, padded reaches,
// cell quantization, hull orientation, R-tree areas — so no grouping
// may move, ids and order included: SGB-Any single-ε and swept, and
// SGB-All under ELIMINATE and FORM-NEW-GROUP, under every finder and
// both metrics (checkScaleCovariance). JOIN-ANY is left out: its draw
// is keyed on the point's coordinate bits (rng.drawAt), so scaling
// legitimately changes the pick. The input is a scale byte (scaleInput)
// and then a FuzzSweepLevels input (decodeSweepLevels); the seeds are
// sweepLevelsSeeds' — the 6 × 6 lattice and the far-from-origin
// lattices among them — each scaled up and down.
func FuzzScaleCovariance(f *testing.F) {
	for i, seed := range sweepLevelsSeeds() {
		f.Add(scaleInput(byte(i%8), seed))
		f.Add(scaleInput(byte(8+(i+3)%8), seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := 1 + int(data[0]%8)
		if data[0]&8 != 0 {
			k = -k
		}
		ps, levels, _, ok := decodeSweepLevels(data[1:])
		if !ok || ps.Len() == 0 {
			return
		}
		checkScaleCovariance(t, ps, levels, math.Ldexp(1, k))
	})
}
