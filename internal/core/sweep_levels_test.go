package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// checkSweepLevels holds every level of SweepAnySet on the grid, at
// each worker count of pars, to SGBAnySet under All-Pairs at that level
// (deep-equal: group order, member order, nil slices). Its Stats must
// be the work of the level ranges it was split into (checkGridWork):
// one update and one probe per occupied cell and level, and each
// range's keys and merges. It reports how many of the runs were split.
func checkSweepLevels(t *testing.T, what string, ps *geom.PointSet, levels []float64, m geom.Metric, pars []int) (split int) {
	t.Helper()
	want := make([]*Result, len(levels))
	for l, eps := range levels {
		res, err := SGBAnySet(ps, Options{Metric: m, Eps: eps, Algorithm: AllPairs})
		if err != nil {
			t.Fatalf("%s eps=%v: SGBAnySet: %v", what, eps, err)
		}
		want[l] = res
	}
	for _, par := range pars {
		st := &Stats{}
		got, err := SweepAnySet(ps, levels, Options{Metric: m, Algorithm: GridIndex, Parallelism: par, Stats: st})
		if err != nil {
			t.Fatalf("%s Parallelism=%d: SweepAnySet: %v", what, par, err)
		}
		for l, eps := range levels {
			if !reflect.DeepEqual(got[l], want[l]) {
				t.Fatalf("%s Parallelism=%d eps=%v: level differs from SGBAny\ngot  %v\nwant %v", what, par, eps, got[l].Groups, want[l].Groups)
			}
		}
		if checkGridWork(t, fmt.Sprintf("%s Parallelism=%d", what, par), ps, m, levels, par, st) {
			split++
		}
	}
	return split
}

// sweepShape draws one input shape of TestSweepLevelsEquivalence over d
// dimensions, with the pool its ε levels are picked from: uniform
// points; uniform points with a third of them repeated; or points on a
// lattice of step 0.25 or 0.3 whose levels are multiples of the step,
// so that many distances land exactly on a level (or round either side
// of it, at 0.3).
func sweepShape(r *rand.Rand, shape string, d int) (*geom.PointSet, []float64) {
	var pts []geom.Point
	var pool []float64
	switch shape {
	case "uniform", "duplicates":
		pts = randomPointsDim(r, 90+r.Intn(90), d, 5)
		if shape == "duplicates" {
			for _, i := range r.Perm(len(pts))[:len(pts)/3] {
				pts = append(pts, pts[i])
			}
			r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		}
		for len(pool) < 16 {
			pool = append(pool, 0.05+r.Float64()*1.4)
		}
	case "lattice":
		step := []float64{0.25, 0.3}[r.Intn(2)]
		for i := 0; i < 150; i++ {
			p := make(geom.Point, d)
			for c := range p {
				p[c] = step * float64(r.Intn(14))
			}
			pts = append(pts, p)
		}
		for k := 1; k <= 8; k++ {
			pool = append(pool, step*float64(k))
		}
	}
	return geom.FromPoints(pts), pool
}

// TestSweepLevelsEquivalence is the one-shot sweep's equivalence
// matrix: {L2, L∞} × d ∈ {1, 2, 3, 5} × k ∈ {1, 2, 3, 8} levels (drawn
// unsorted) × three input shapes (uniform, duplicated points,
// lattice-aligned points with distances exactly on a level), each at
// every Parallelism of parallelisms (checkSweepLevels). Every shape
// must have been split somewhere, or the level split went untested.
func TestSweepLevelsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2929))
	for _, shape := range []string{"uniform", "duplicates", "lattice"} {
		split := 0
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for _, d := range []int{1, 2, 3, 5} {
				ps, pool := sweepShape(r, shape, d)
				for _, k := range []int{1, 2, 3, 8} {
					levels := make([]float64, k)
					for l, i := range r.Perm(len(pool))[:k] {
						levels[l] = pool[i]
					}
					what := fmt.Sprintf("%s %v d=%d levels=%v", shape, m, d, levels)
					split += checkSweepLevels(t, what, ps, levels, m, parallelisms)
				}
			}
		}
		if split == 0 {
			t.Fatalf("%s: no run was split", shape)
		}
	}
}

// TestSweepAnyEmpty pins the empty input: every level answers exactly
// what SGBAny answers over no points (nil Groups), and the list and
// options are still validated.
func TestSweepAnyEmpty(t *testing.T) {
	want, err := SGBAny(nil, Options{Metric: geom.L2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []*geom.PointSet{nil, geom.NewPointSet(2)} {
		got, err := SweepAnySet(ps, []float64{1, 0.5}, Options{Metric: geom.L2})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || !reflect.DeepEqual(got[0], want) || !reflect.DeepEqual(got[1], want) {
			t.Fatalf("SweepAnySet over no points: %+v, want two of %+v", got, want)
		}
	}
	if got, err := SweepAny(nil, []float64{0.5}, Options{Metric: geom.LInf}); err != nil || !reflect.DeepEqual(got, []*Result{want}) {
		t.Fatalf("SweepAny(nil): %+v, %v", got, err)
	}
	if _, err := SweepAny(nil, nil, Options{Metric: geom.L2}); err != ErrEpsListEmpty {
		t.Fatalf("empty list over no points: %v", err)
	}
	if _, err := SweepAny(nil, []float64{1}, Options{Metric: geom.L2, Algorithm: BoundsCheck}); err != ErrBoundsCheckAny {
		t.Fatalf("BoundsCheck over no points: %v", err)
	}
}

// TestAnyStrategiesAgreeOnLatticeLInf: on lattice-aligned points under
// L∞, where distances land on ε or round just past it, All-Pairs, the
// R-tree and the grid answer member for member alike, single-ε and
// swept, and equal the brute-force components. The R-tree's window p ± ε rounds
// outward, and it once merged the points the window admitted without
// checking their distance (12 groups instead of 17 at ε = 0.3).
func TestAnyStrategiesAgreeOnLatticeLInf(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if (7*i+3*j)%4 != 0 {
				pts = append(pts, geom.Point{0.3 * float64(i), 0.6 * float64(j)})
			}
		}
	}
	levels := []float64{0.1, 0.3}
	swept := make([][]*Result, len(anyStrategies))
	for k, alg := range anyStrategies {
		var err error
		if swept[k], err = SweepAny(pts, levels, Options{Metric: geom.LInf, Algorithm: alg, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for l, eps := range levels {
		want, err := SGBAny(pts, Options{Metric: geom.LInf, Eps: eps, Algorithm: AllPairs, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !SameGrouping(want.Groups, ConnectedComponents(pts, geom.LInf, eps)) {
			t.Fatalf("eps=%v: All-Pairs differs from the brute-force components", eps)
		}
		for _, alg := range []Algorithm{OnTheFlyIndex, GridIndex} {
			st := &Stats{}
			got, err := SGBAny(pts, Options{Metric: geom.LInf, Eps: eps, Algorithm: alg, Parallelism: 1, Stats: st})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v %v: %d groups, All-Pairs %d\ngot  %v\nwant %v", eps, alg, got.NumGroups(), want.NumGroups(), got.Groups, want.Groups)
			}
			if got.NumGroups() < len(pts) && st.DistanceComputations == 0 {
				t.Fatalf("eps=%v %v: merged points without counting a distance computation", eps, alg)
			}
		}
		for k, alg := range anyStrategies {
			if !reflect.DeepEqual(swept[k][l], want) {
				t.Fatalf("eps=%v %v sweep: %d groups, All-Pairs %d", eps, alg, swept[k][l].NumGroups(), want.NumGroups())
			}
		}
	}
}

// sweepLevelsInput encodes one FuzzSweepLevels input: a header byte
// (bit 0 L∞, bit 1 lattice mode, bit 2 lattice step 0.3 rather than
// 0.25, bits 3–5 the dimensionality − 1, taken mod 5, bit 6 far from
// the origin, bit 7 raw mode), the level count − 1 (mod 8), one byte
// per level, then one byte per coordinate. In raw mode a level and a
// coordinate are eight bytes each (rawSweepInput).
func sweepLevelsInput(linf, lattice, step3, far bool, d int, levels, coords []byte) []byte {
	h := byte(d-1) << 3
	if far {
		h |= 1 << 6
	}
	for bit, on := range []bool{linf, lattice, step3} {
		if on {
			h |= 1 << bit
		}
	}
	out := append([]byte{h, byte(len(levels) - 1)}, levels...)
	return append(out, coords...)
}

// decodeSweepLevels is sweepLevelsInput's inverse. In lattice mode a
// level byte b is the step times 1 + b mod 8 and a coordinate the step
// times b mod 16; otherwise a level is (1 + b) / 64 and a coordinate
// b / 32. Far from the origin every coordinate is shifted by 2^49 in
// lattice mode and by 2^45 otherwise: 2^51 cells of the smallest level
// there can be, and the dyadic coordinates stay exact. Raw mode takes
// levels and coordinates as they are (decodeRaw). Repeated levels are
// dropped; at most 96 points are kept.
func decodeSweepLevels(data []byte) (ps *geom.PointSet, levels []float64, m geom.Metric, ok bool) {
	if len(data) < 2 {
		return nil, nil, 0, false
	}
	h := data[0]
	m = geom.L2
	if h&1 != 0 {
		m = geom.LInf
	}
	lattice, step := h&2 != 0, 0.25
	if h&4 != 0 {
		step = 0.3
	}
	base := 0.0
	if h&64 != 0 {
		base = 0x1p45
		if lattice {
			base = 0x1p49
		}
	}
	d := 1 + int(h>>3&7)%5
	k := 1 + int(data[1])%8
	rest := data[2:]
	if h&128 != 0 {
		ps, levels, ok = decodeRaw(d, k, rest)
		return ps, levels, m, ok
	}
	if len(rest) < k {
		return nil, nil, 0, false
	}
	for _, b := range rest[:k] {
		eps := float64(1+int(b)) / 64
		if lattice {
			eps = step * float64(1+int(b)%8)
		}
		if !slices.Contains(levels, eps) {
			levels = append(levels, eps)
		}
	}
	rest = rest[k:]
	n := min(len(rest)/d, 96)
	ps = geom.NewPointSetCap(d, n)
	for i := 0; i < n; i++ {
		p := ps.Extend()
		for c := range p {
			b := rest[i*d+c]
			p[c] = base + float64(b)/32
			if lattice {
				p[c] = base + step*float64(b%16)
			}
		}
	}
	return ps, levels, m, true
}

// decodeRaw decodes raw mode's k levels and then up to 96 points of d
// coordinates, each a little-endian float64. It refuses an input unless
// every level lies in [2^-20, 2^20] and every coordinate is 0 or of
// magnitude in [2^-60, 2^50 times the smallest level]: inside the range
// rule, and far enough inside every float64 limit that scaling by
// 2^±8 (FuzzScaleCovariance) is exact on the coordinates, their
// differences and their squares.
func decodeRaw(d, k int, data []byte) (*geom.PointSet, []float64, bool) {
	if len(data) < 8*k {
		return nil, nil, false
	}
	next := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	var levels []float64
	for i := 0; i < k; i++ {
		eps := next()
		if !(eps >= 0x1p-20 && eps <= 0x1p20) {
			return nil, nil, false
		}
		if !slices.Contains(levels, eps) {
			levels = append(levels, eps)
		}
	}
	limit := 0x1p50 * slices.Min(levels)
	n := min(len(data)/(8*d), 96)
	ps := geom.NewPointSetCap(d, n)
	for i := 0; i < n; i++ {
		for c, p := 0, ps.Extend(); c < d; c++ {
			v := next()
			if a := math.Abs(v); v != 0 && !(a >= 0x1p-60 && a <= limit) {
				return nil, nil, false
			}
			p[c] = v
		}
	}
	return ps, levels, true
}

// sweepLevelsSeeds builds FuzzSweepLevels' seed corpus: the 6 × 6 L∞
// lattice the R-tree once mis-grouped, dyadic and 0.3-step lattices with
// duplicates under both metrics, unsorted eight-level lists, a 1-d chain
// across many ε-cells, d = 5, a
// single point, and dyadic lattices far from the origin at d ∈ {1, 2,
// 3, 5}, whose pairs lie exactly a level apart on its cell boundaries.
func sweepLevelsSeeds() [][]byte {
	r := rand.New(rand.NewSource(2930))
	randBytes := func(n int, mod int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(mod))
		}
		return b
	}
	var grid6 []byte
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if (7*i+3*j)%4 != 0 {
				grid6 = append(grid6, byte(i), byte(2*j))
			}
		}
	}
	var chain []byte
	for i := 0; i < 60; i++ {
		chain = append(chain, byte(3*i))
	}
	seeds := [][]byte{
		sweepLevelsInput(true, true, true, false, 2, []byte{0, 1}, grid6),
		sweepLevelsInput(false, true, true, false, 2, []byte{0, 1, 3}, grid6),
		sweepLevelsInput(false, true, false, false, 2, []byte{3, 0, 7, 1, 5, 2, 6, 4}, randBytes(160, 16)),
		sweepLevelsInput(true, true, false, false, 3, []byte{1, 0, 2}, randBytes(180, 8)),
		sweepLevelsInput(false, false, false, false, 2, []byte{200, 8, 90, 30, 255, 60, 15, 120}, randBytes(190, 256)),
		sweepLevelsInput(true, false, false, false, 1, []byte{5, 2}, chain),
		sweepLevelsInput(false, false, false, false, 1, []byte{2, 6, 3}, chain),
		sweepLevelsInput(true, false, false, false, 5, []byte{40, 100, 70}, randBytes(300, 128)),
		sweepLevelsInput(false, false, false, false, 3, []byte{10}, []byte{7, 7, 7}),
	}
	for _, d := range []int{1, 2, 3, 5} {
		for _, linf := range []bool{false, true} {
			seeds = append(seeds, sweepLevelsInput(linf, true, false, true, d, []byte{0, 1, 3}, randBytes(24*d, 16)))
		}
	}
	return seeds
}

// FuzzSweepLevels decodes its input as a point set and an ε list
// (decodeSweepLevels) and holds every level of SweepAnySet, at every
// Parallelism of parallelisms, to SGBAnySet (checkSweepLevels).
// The seed corpus is built in code (sweepLevelsSeeds).
func FuzzSweepLevels(f *testing.F) {
	for _, seed := range sweepLevelsSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, levels, m, ok := decodeSweepLevels(data)
		if !ok {
			return
		}
		checkSweepLevels(t, fmt.Sprintf("%v levels=%v", m, levels), ps, levels, m, parallelisms)
	})
}

// anyStrategies are the SGB-Any evaluation strategies
// TestLatticeEquivalenceMatrix cross-validates against (BoundsCheck does
// not exist for Any: TestLatticeBoundsCheckRejected).
var anyStrategies = []Algorithm{AllPairs, OnTheFlyIndex, GridIndex}

// TestLatticeEquivalenceMatrix is the randomized sweep↔one-shot suite
// (its name is the ε-lattice's, which SweepAny replaced): for every ε
// level of randomly drawn EPS IN lists, SweepAny's answer must
// member-for-member equal an independent single-ε SGBAny run across
// {L2, L∞} × d ∈ {1, 2, 3, 5} × every SGB-Any strategy.
func TestLatticeEquivalenceMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	for trial := 0; trial < 6; trial++ {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for _, d := range []int{1, 2, 3, 5} {
				n := 50 + r.Intn(150)
				span := 2.5 + r.Float64()*6
				points := randomPointsDim(r, n, d, span)
				k := 2 + r.Intn(7) // up to 8 levels
				epsList := make([]float64, 0, k)
				seen := map[float64]bool{}
				for len(epsList) < k {
					e := 0.05 + r.Float64()*2.2
					if !seen[e] {
						seen[e] = true
						epsList = append(epsList, e)
					}
				}
				swept, err := SweepAny(points, epsList, Options{Metric: m})
				if err != nil {
					t.Fatalf("%v d=%d: SweepAny: %v", m, d, err)
				}
				for li, eps := range epsList {
					for _, alg := range anyStrategies {
						oneShot, err := SGBAny(points, Options{Metric: m, Eps: eps, Algorithm: alg})
						if err != nil {
							t.Fatalf("%v d=%d eps=%v %v: SGBAny: %v", m, d, eps, alg, err)
						}
						if err := sameMembers(swept[li], oneShot); err != nil {
							t.Fatalf("%v d=%d eps=%v vs %v: sweep level diverges: %v", m, d, eps, alg, err)
						}
					}
				}
			}
		}
	}
}

// TestLatticeEquivalenceParallelOneShot: the levels of a grid sweep
// split across four workers also match single-ε GridIndex runs.
func TestLatticeEquivalenceParallelOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(809))
	points := randomPointsDim(r, 400, 2, 6)
	epsList := []float64{0.2, 0.55, 0.9, 1.4}
	swept, err := SweepAny(points, epsList, Options{Metric: geom.L2, Algorithm: GridIndex, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for li, eps := range epsList {
		oneShot, err := SGBAny(points, Options{Metric: geom.L2, Eps: eps, Algorithm: GridIndex, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMembers(swept[li], oneShot); err != nil {
			t.Fatalf("eps=%v vs parallel grid: %v", eps, err)
		}
	}
}

// TestLatticeParallelism: Options.Parallelism sets how many goroutines
// sweep and nothing else — every level of SweepAny equals the
// Parallelism = 1 answer, over L2 and L∞, d ∈ {1, 2, 3}, duplicated
// points and lists of one, two and four levels. The Stats show which
// build ran (checkGridWork): below the auto threshold, at one worker or
// at one level it is sequential, otherwise split into
// min(Parallelism, k) ranges — at auto from parallelThreshold points,
// into min(GOMAXPROCS, k).
func TestLatticeParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(813))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	big := geom.FromPoints(randomPointsDim(r, parallelThreshold+100, 2, 30))
	auto := []float64{0.1, 0.2, 0.4}
	want, err := SweepAnySet(big, auto, Options{Metric: geom.L2, Algorithm: GridIndex, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	got, err := SweepAnySet(big, auto, Options{Metric: geom.L2, Algorithm: GridIndex, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if !checkGridWork(t, "auto", big, geom.L2, auto, 0, st) || !reflect.DeepEqual(got, want) {
		t.Fatalf("auto at %d points: not split into two ranges, or not the sequential answer", big.Len())
	}
	for _, levels := range [][]float64{{0.4}, {0.15, 0.9}, {0.15, 0.4, 0.9, 1.5}} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for _, d := range []int{1, 2, 3} {
				pts := randomPointsDim(r, 300, d, 6)
				pts = append(pts, pts[:40]...)
				ps := geom.FromPoints(pts)
				var want []*Result
				for _, par := range append([]int{1}, parallelisms...) {
					what := fmt.Sprintf("%v d=%d levels=%v Parallelism=%d", m, d, levels, par)
					st := &Stats{}
					got, err := SweepAny(pts, levels, Options{Metric: m, Algorithm: GridIndex, Parallelism: par, Stats: st})
					if err != nil {
						t.Fatal(err)
					}
					if split := checkGridWork(t, what, ps, m, levels, par, st); split != (par > 1 && len(levels) > 1) {
						t.Fatalf("%s: split %t", what, split)
					}
					if want == nil {
						want = got
					}
					for li := range levels {
						if err := sameMembers(got[li], want[li]); err != nil {
							t.Fatalf("%s eps=%v: %v", what, levels[li], err)
						}
					}
				}
			}
		}
	}
}

// TestSweepAnyOrderAlignment: results align with the caller's list
// order, not ascending ε.
func TestSweepAnyOrderAlignment(t *testing.T) {
	pts := []geom.Point{{0}, {0.4}, {3}, {3.2}}
	epsList := []float64{2.0, 0.1, 0.5} // deliberately unsorted
	res, err := SweepAny(pts, epsList, Options{Metric: geom.L2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res[1].Groups); got != 4 {
		t.Fatalf("eps=0.1 level landed %d groups, want 4 (order misaligned?)", got)
	}
	if got := len(res[2].Groups); got != 2 {
		t.Fatalf("eps=0.5 level landed %d groups, want 2", got)
	}
	if got := len(res[0].Groups); got != 2 {
		t.Fatalf("eps=2.0 level landed %d groups, want 2", got)
	}
}

func TestValidateEpsList(t *testing.T) {
	cases := []struct {
		name string
		list []float64
		want error
	}{
		{"empty", nil, ErrEpsListEmpty},
		{"zero", []float64{0.5, 0}, ErrEpsListNonPositive},
		{"negative", []float64{-1}, ErrEpsListNonPositive},
		{"nan", []float64{math.NaN()}, ErrEpsListNonPositive},
		{"inf", []float64{math.Inf(1)}, ErrEpsListNonPositive},
		{"duplicate", []float64{0.5, 1, 0.5}, ErrEpsListDuplicate},
		{"ok", []float64{0.5, 1, 2}, nil},
	}
	for _, tc := range cases {
		err := ValidateEpsList(tc.list)
		if tc.want == nil {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
