package partition

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/geom"
)

func randSet(r *rand.Rand, n, d int, span float64) *geom.PointSet {
	ps := geom.NewPointSetCap(d, n)
	for i := 0; i < n; i++ {
		p := ps.Extend()
		for j := range p {
			p[j] = r.Float64() * span
		}
	}
	return ps
}

// checkCover checks the structural invariants of a plan over ps: Perm
// is a permutation, the runs are at least two non-empty slices ending
// at ps.Len(), no ε-cell straddles two runs, and Frontier is ascending
// positions. It returns each position's run.
func checkCover(t *testing.T, ps *geom.PointSet, eps float64, plan *Plan) []int {
	t.Helper()
	n := ps.Len()
	if len(plan.Perm) != n {
		t.Fatalf("Perm has %d entries for %d points", len(plan.Perm), n)
	}
	seen := make([]bool, n)
	for _, id := range plan.Perm {
		if id < 0 || int(id) >= n || seen[id] {
			t.Fatalf("Perm is not a permutation: %d", id)
		}
		seen[id] = true
	}
	if len(plan.Ends) < 2 || plan.Ends[len(plan.Ends)-1] != int32(n) {
		t.Fatalf("runs end at %v, want at least two ending at %d", plan.Ends, n)
	}
	runOf := make([]int, n)
	cellRun := map[string]int{}
	start := int32(0)
	for r, end := range plan.Ends {
		if end <= start {
			t.Fatalf("run %d is empty: %v", r, plan.Ends)
		}
		for pos := start; pos < end; pos++ {
			runOf[pos] = r
			var cell []byte
			for _, x := range ps.At(int(plan.Perm[pos])) {
				cell = binary.LittleEndian.AppendUint64(cell, uint64(int64(math.Floor(x/eps))))
			}
			if prev, ok := cellRun[string(cell)]; ok && prev != r {
				t.Fatalf("a cell straddles runs %d and %d", prev, r)
			}
			cellRun[string(cell)] = r
		}
		start = end
	}
	for fi, pos := range plan.Frontier {
		if pos < 0 || int(pos) >= n || (fi > 0 && pos <= plan.Frontier[fi-1]) {
			t.Fatalf("frontier positions not ascending in range: %v", plan.Frontier)
		}
	}
	return runOf
}

// checkFrontier holds the frontier to brute force: every pair within
// eps under m whose endpoints lie in different runs has both endpoints
// in it. pairs enumerates candidate pairs of input indices (a superset
// of the within-eps ones); nil means every pair.
func checkFrontier(t *testing.T, ps *geom.PointSet, eps float64, m geom.Metric, plan *Plan, runOf []int, pairs [][2]int) {
	t.Helper()
	n := ps.Len()
	posOf := make([]int, n)
	for pos, id := range plan.Perm {
		posOf[id] = pos
	}
	inFrontier := make([]bool, n)
	for _, pos := range plan.Frontier {
		inFrontier[pos] = true
	}
	check := func(i, j int) {
		pi, pj := posOf[i], posOf[j]
		if runOf[pi] == runOf[pj] || !(ps.DistKey(m, i, j) <= m.EpsKey(eps)) {
			return
		}
		if !inFrontier[pi] || !inFrontier[pj] {
			t.Fatalf("metric=%v: cross-run pair within ε (%v, %v) not fully in the frontier",
				m, ps.At(i), ps.At(j))
		}
	}
	if pairs != nil {
		for _, p := range pairs {
			check(p[0], p[1])
		}
		return
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			check(i, j)
		}
	}
}

// TestSplitPartitionsInput checks the structural invariants at
// d ∈ {1, 2, 3, 5} and k ∈ {2, 4, 8}.
func TestSplitPartitionsInput(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 5} {
		for _, k := range []int{2, 4, 8} {
			ps := randSet(r, 500, d, 10)
			plan := Split(ps, 0.5, k)
			if plan == nil {
				t.Fatalf("d=%d k=%d: expected a plan for a 20-cell-wide input", d, k)
			}
			checkCover(t, ps, 0.5, plan)
			if len(plan.Ends) != k {
				t.Fatalf("d=%d k=%d: %d runs over 500 points in many cells", d, k, len(plan.Ends))
			}
		}
	}
}

// TestSplitFrontierIsExact is the correctness core: every cross-run
// within-ε pair must have BOTH endpoints in the frontier, under both
// metrics, at d ∈ {1, 2, 3, 5}.
func TestSplitFrontierIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 3, 5} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for trial := 0; trial < 3; trial++ {
				eps := 0.2 + r.Float64()*0.5
				ps := randSet(r, 400, d, 8)
				plan := Split(ps, eps, 4+4*trial)
				if plan == nil {
					t.Fatal("expected a plan")
				}
				if len(plan.Frontier) == 0 {
					t.Fatal("a split plan must have a frontier")
				}
				checkFrontier(t, ps, eps, m, plan, checkCover(t, ps, eps, plan), nil)
			}
		}
	}
}

// TestSplitFrontierBrightkite holds the frontier to brute force on the
// Brightkite-profile check-ins at the three ε of the SQL benchmark's
// cold DISTANCE-TO-ANY queries, at k ∈ {2, 4, 8}. The candidate pairs
// come from a sweep along x, which is independent of the Z-order.
func TestSplitFrontierBrightkite(t *testing.T) {
	n := 12000
	if testing.Short() {
		n = 3000
	}
	ps := geom.FromPoints(checkin.Points(checkin.Brightkite(n)))
	byX := make([]int, n)
	for i := range byX {
		byX[i] = i
	}
	sort.Slice(byX, func(a, b int) bool { return ps.At(byX[a])[0] < ps.At(byX[b])[0] })
	for _, eps := range []float64{0.05, 0.2, 0.8} {
		var pairs [][2]int
		for a, i := range byX {
			for _, j := range byX[a+1:] {
				if ps.At(j)[0]-ps.At(i)[0] > 2*eps {
					break
				}
				pairs = append(pairs, [2]int{i, j})
			}
		}
		for _, k := range []int{2, 4, 8} {
			plan := Split(ps, eps, k)
			if plan == nil {
				t.Fatalf("eps=%v k=%d: expected a plan", eps, k)
			}
			runOf := checkCover(t, ps, eps, plan)
			for _, m := range []geom.Metric{geom.L2, geom.LInf} {
				checkFrontier(t, ps, eps, m, plan, runOf, pairs)
			}
		}
	}
}

// TestSplitBalance: each run holds len/k points, give or take one
// cell's population — on uniform data and on skewed check-ins.
func TestSplitBalance(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sets := []*geom.PointSet{
		randSet(r, 3000, 2, 10),
		randSet(r, 3000, 3, 4),
		geom.FromPoints(checkin.Points(checkin.Brightkite(3000))),
	}
	for si, ps := range sets {
		for _, eps := range []float64{0.05, 0.2, 0.8} {
			_, keys := geom.NewZOrder(ps, eps).Sort()
			pop, run := 0, 0
			for i := range keys {
				if i > 0 && keys[i] != keys[i-1] {
					run = 0
				}
				run++
				pop = max(pop, run)
			}
			for _, k := range []int{2, 4, 8} {
				plan := Split(ps, eps, k)
				if plan == nil {
					t.Fatalf("set %d eps=%v k=%d: expected a plan", si, eps, k)
				}
				n, start := ps.Len(), int32(0)
				for ri, end := range plan.Ends {
					if size := int(end - start); size < n/k-pop-1 || size > n/k+pop+1 {
						t.Fatalf("set %d eps=%v k=%d: run %d holds %d points, want %d ± %d", si, eps, k, ri, size, n/k, pop+1)
					}
					start = end
				}
			}
		}
	}
}

// TestSplitCoarseKey: at d = 4 the key has 16 bits an axis, and an axis
// spanning 2^17 ε-cells is keyed in cells four times as wide. The input
// still tiles, k ways, with an exact frontier.
func TestSplitCoarseKey(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const eps = 0.5
	ps := geom.NewPointSetCap(4, 600)
	for i := 0; i < 600; i++ {
		p := ps.Extend()
		p[0] = r.Float64() * eps * (1 << 17)
		for j := 1; j < 4; j++ {
			p[j] = r.Float64() * 3
		}
	}
	p := ps.Extend() // pin the extent at exactly 2^17 cells
	p[0], p[1], p[2], p[3] = eps*(1<<17), 0, 0, 0
	for _, k := range []int{2, 4, 8} {
		plan := Split(ps, eps, k)
		if plan == nil || len(plan.Ends) != k {
			t.Fatalf("k=%d: a 2^17-cell axis at d=4 must still tile k ways", k)
		}
		runOf := checkCover(t, ps, eps, plan)
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			checkFrontier(t, ps, eps, m, plan, runOf, nil)
		}
	}
}

func TestSplitDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	if Split(geom.NewPointSet(2), 1, 4) != nil {
		t.Fatal("empty input must not split")
	}
	ps := randSet(r, 100, 2, 10)
	if Split(ps, 1, 1) != nil {
		t.Fatal("k=1 must not split")
	}
	// ε larger than the whole extent: one occupied cell.
	tight := geom.NewPointSetCap(2, 10)
	for i := 0; i < 10; i++ {
		p := tight.Extend()
		p[0] = 0.1 + 0.05*float64(i)
		p[1] = 0.2
	}
	if Split(tight, 100, 4) != nil {
		t.Fatal("single-cell input must not split")
	}
}

// addSplitSeed adds a FuzzSplitFrontier seed: the dimensionality, ε,
// the run count and the coordinates as raw float64 bits, so seeds carry
// exact values.
func addSplitSeed(f *testing.F, d int, eps float64, k int, coords ...float64) {
	var b []byte
	for _, x := range coords {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	f.Add(uint8(d-1), eps, uint8(k), b)
}

// FuzzSplitFrontier holds Split to its invariants — exact cover, no
// straddling cell, and frontier completeness against brute force under
// both metrics — over arbitrary coordinates. The seeds, built in code,
// are the rounding cases: lattice-aligned coordinates (multiples of ε,
// ±0, duplicates), a pair exactly ε apart that floor(x/ε) puts two
// cells apart, and pairs exactly ε apart across a run boundary.
func FuzzSplitFrontier(f *testing.F) {
	// Multiples of ε on a lattice, with −0, +0 and duplicates.
	var lattice []float64
	for i := -4; i <= 4; i++ {
		for j := -2; j <= 2; j++ {
			lattice = append(lattice, float64(i)*0.25, float64(j)*0.25)
		}
	}
	lattice = append(lattice, math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), 0.25, 0.25)
	addSplitSeed(f, 2, 0.25, 4, lattice...)
	addSplitSeed(f, 2, 0.25, 8, lattice...)
	// The rounding pair: (1.5999999999999999, 0) and (2.4, 0) are ε =
	// 0.8 apart, in cells 1 and 3; ten points at x = 2 and five at each
	// of x = ±40 put a run boundary near them.
	repro := []float64{1.5999999999999999, 0, 2.4, 0}
	for i := 0; i < 10; i++ {
		repro = append(repro, 2.0, 10+0.01*float64(i))
	}
	for i := 0; i < 5; i++ {
		repro = append(repro, 40, 10+0.01*float64(i), -40, 10+0.01*float64(i))
	}
	addSplitSeed(f, 2, 0.8, 2, repro...)
	// The same pair across a run boundary: four far points on each
	// side, so the cut at n/2 falls between the pair's cells.
	across := []float64{1.5999999999999999, 2.4}
	for i := 0; i < 4; i++ {
		across = append(across, -40+0.01*float64(i), 40+0.01*float64(i))
	}
	addSplitSeed(f, 1, 0.8, 2, across...)
	// A chain of points exactly ε apart, cut into runs at several k.
	var chain []float64
	for i := 0; i < 24; i++ {
		chain = append(chain, float64(i)*0.5, float64(i%3)*0.5)
	}
	addSplitSeed(f, 2, 0.5, 3, chain...)
	addSplitSeed(f, 2, 0.5, 7, chain...)
	addSplitSeed(f, 3, 0.5, 5, chain...)
	f.Fuzz(func(t *testing.T, d uint8, eps float64, k uint8, raw []byte) {
		dims := 1 + int(d%5)
		n := min(len(raw)/8/dims, 120)
		if n < 2 || !(eps > 1e-9) || eps > 1e9 {
			return
		}
		ps := geom.NewPointSetCap(dims, n)
		for i := 0; i < n; i++ {
			p := ps.Extend()
			for j := range p {
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(i*dims+j)*8:]))
				if !(math.Abs(p[j]/eps) < 1<<40) {
					return // outside the engine's coordinate range
				}
			}
		}
		plan := Split(ps, eps, int(k%9))
		if plan == nil {
			return
		}
		runOf := checkCover(t, ps, eps, plan)
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			checkFrontier(t, ps, eps, m, plan, runOf, nil)
		}
	})
}
