package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
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

// maintainedTrace feeds ev the first half of ps, removes the oldest
// half of what it holds, and feeds it the rest.
func maintainedTrace(ev maintained, ps *geom.PointSet) error {
	h := ps.Len() / 2
	if err := ev.Append(ps.Slice(0, h)); err != nil {
		return err
	}
	oldest := make([]int, h/2)
	for i := range oldest {
		oldest[i] = i
	}
	if err := ev.Remove(oldest); err != nil {
		return err
	}
	return ev.Append(ps.Slice(h, ps.Len()))
}

// checkScaleCovariance holds every grouping over ps at levels to the
// one over ps and levels multiplied by s, under both metrics: SGB-Any
// single-ε and swept under every strategy, and SGB-All under ELIMINATE
// and FORM-NEW-GROUP under every finder, one-shot and maintained (an
// AnyEvaluator at levels and an AllEvaluator at each level, through
// maintainedTrace).
func checkScaleCovariance(t *testing.T, ps *geom.PointSet, levels []float64, s float64) {
	scaled := scalePoints(ps, s)
	pick := func(sc bool) (*geom.PointSet, float64) {
		if sc {
			return scaled, s
		}
		return ps, 1
	}
	scaledLevels := func(f float64) []float64 {
		eps := make([]float64, len(levels))
		for l, e := range levels {
			eps[l] = e * f
		}
		return eps
	}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		for _, alg := range anyStrategies {
			opt := Options{Metric: m, Algorithm: alg, Parallelism: 1}
			sameUnderScale(t, fmt.Sprintf("%v any %v sweep %v", m, alg, levels), func(sc bool) ([]*Result, error) {
				pts, f := pick(sc)
				return SweepAnySet(pts, scaledLevels(f), opt)
			})
		}
		sameUnderScale(t, fmt.Sprintf("%v maintained any %v", m, levels), func(sc bool) ([]*Result, error) {
			pts, f := pick(sc)
			eps := scaledLevels(f)
			ev, err := NewAnyLevels(eps, Options{Metric: m, Algorithm: GridIndex})
			if err == nil {
				err = maintainedTrace(ev, pts)
			}
			if err != nil {
				return nil, err
			}
			out := make([]*Result, len(eps))
			for l, e := range eps {
				if out[l], err = ev.GroupsAt(e); err != nil {
					return nil, err
				}
			}
			return out, nil
		})
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
					sameUnderScale(t, fmt.Sprintf("%v maintained all %v %v ε=%v", m, ov, alg, eps), func(sc bool) ([]*Result, error) {
						pts, f := pick(sc)
						o := opt
						o.Eps = eps * f
						ev, err := NewAllEvaluator(o)
						if err == nil {
							err = maintainedTrace(ev, pts)
						}
						if err != nil {
							return nil, err
						}
						return []*Result{ev.Result()}, nil
					})
				}
			}
		}
	}
}

// rawSweepInput is sweepLevelsInput in raw mode: the levels and the
// coordinates (d to a point) as little-endian float64 bits.
func rawSweepInput(linf bool, d int, levels, coords []float64) []byte {
	var lv, cs []byte
	for _, e := range levels {
		lv = binary.LittleEndian.AppendUint64(lv, math.Float64bits(e))
	}
	for _, v := range coords {
		cs = binary.LittleEndian.AppendUint64(cs, math.Float64bits(v))
	}
	in := sweepLevelsInput(linf, false, false, false, d, lv, cs)
	in[0] |= 1 << 7
	in[1] = byte(len(levels) - 1)
	return in
}

// scaleCovarianceSeeds is FuzzScaleCovariance's second seed list, the
// inputs sweepLevelsInput's byte lattices cannot spell, in raw mode:
// roundingPairs at the levels 0.4 and 0.8, whose difference rounds to
// 0.8 but whose cells of 0.8 lie two apart, and the first 96 points of
// decTraceSeeds' lattice traces (every coordinate a multiple of an ε
// binary floating point cannot represent, 0.1 or 0.3) at ε and 2ε.
func scaleCovarianceSeeds() [][]byte {
	var seeds [][]byte
	for _, linf := range []bool{false, true} {
		for _, pair := range roundingPairs {
			seeds = append(seeds, rawSweepInput(linf, 1, []float64{0.4, 0.8}, pair[:]))
		}
	}
	for _, seed := range decTraceSeeds() {
		if !strings.HasPrefix(seed.name, "lattice/") {
			continue
		}
		dims, opt, ops := decodeTrace(seed.data)
		var coords []float64
		for _, op := range ops {
			for _, p := range op.batch {
				coords = append(coords, p...)
			}
		}
		coords = coords[:min(len(coords), 96*dims)]
		seeds = append(seeds, rawSweepInput(opt.Metric == geom.LInf, dims, []float64{opt.Eps, 2 * opt.Eps}, coords))
	}
	return seeds
}

// FuzzScaleCovariance multiplies every coordinate and every ε by 2^k.
// Binary scaling is exact, and every test the operators make commutes
// with it — rounded differences and distance keys, padded reaches,
// cell quantization, hull orientation, R-tree areas — so no grouping
// may move, ids and order included: SGB-Any single-ε and swept, and
// SGB-All under ELIMINATE and FORM-NEW-GROUP, under every finder and
// both metrics, one-shot and through maintained evaluators fed two
// batches with an oldest-first removal between (checkScaleCovariance).
// JOIN-ANY is left out: its draw is keyed on the point's coordinate
// bits (rng.drawAt), so scaling legitimately changes the pick. The input is a scale byte (scaleInput)
// and then a FuzzSweepLevels input (decodeSweepLevels); the seeds are
// sweepLevelsSeeds' — the 6 × 6 lattice and the far-from-origin
// lattices among them — each scaled up and down, and
// scaleCovarianceSeeds' rounding pairs and ε-lattices, each scaled once.
func FuzzScaleCovariance(f *testing.F) {
	for i, seed := range sweepLevelsSeeds() {
		f.Add(scaleInput(byte(i%8), seed))
		f.Add(scaleInput(byte(8+(i+3)%8), seed))
	}
	for i, seed := range scaleCovarianceSeeds() {
		f.Add(scaleInput(byte(i%16), seed))
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
