package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/partition"
)

// boundaryLevelLists are ε lists of 1, 2, 3, 5 and 8 levels, every level
// a multiple of 1/8, so a pair placed on the lattice of step 1/8 has an
// exact key and can sit exactly on any level's key.
var boundaryLevelLists = [][]float64{
	{0.5},
	{0.25, 0.625},
	{0.25, 0.5, 0.75},
	{0.125, 0.25, 0.5, 0.625, 1},
	{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1},
}

// boundaryPoints returns d-dimensional points on the lattice of step
// 1/8, in blocks far enough apart that two workers tile them: in each
// block, a chain whose consecutive points lie exactly one level's ε
// apart along an axis, for every level and the top among them; under
// d ≥ 2 a pair at the 3-4-5 diagonal of length 0.625 and one at (ε, ε),
// whose L2 and L∞ keys land on a level; and lattice points scattered
// around them, so many other keys tie with a level too.
func boundaryPoints(r *rand.Rand, d int, levels []float64) *geom.PointSet {
	ps := geom.NewPointSet(d)
	at := func(origin float64, offs ...float64) {
		p := ps.Extend()
		p[0] = origin
		for c, o := range offs {
			p[c] += o
		}
	}
	for b := 0; b < 4; b++ {
		origin := 16 * float64(b)
		for l, eps := range levels {
			axis := (l + b) % d
			for k := 0; k < 4; k++ {
				p := ps.Extend()
				p[0] = origin + 2*float64(l)
				p[axis] += float64(k) * eps
			}
		}
		if d >= 2 {
			at(origin+12, 0, 0)
			at(origin+12, 0.375, 0.5)
			at(origin+13, 0, 0)
			at(origin+13, levels[0], levels[0])
		}
		for k := 0; k < 40; k++ {
			p := ps.Extend()
			p[0] = origin + float64(r.Intn(96))/8
			for c := 1; c < d; c++ {
				p[c] = float64(r.Intn(24)) / 8
			}
		}
	}
	return ps
}

// checkMerges holds a run's merge count to the work its partitions
// record: every merge joins two sets of one level, so the count must be
// Σ_l (n − sets_l).
func checkMerges(t *testing.T, what string, n int, levels []*Result, st *Stats) {
	t.Helper()
	var want int64
	for _, res := range levels {
		want += int64(n - len(res.Groups))
	}
	if st.GroupMerges != want {
		t.Fatalf("%s: %d merges, want Σ (n − sets) = %d", what, st.GroupMerges, want)
	}
}

// TestGridProbeLevelBoundaries runs the join where the level rule is
// tested hardest — pairs exactly on each level's key and on the top key
// — through every finder, one-shot sweep and single-ε at one and two
// workers, and through AnyEvaluator.Append in batches, holding every
// level to SGBAnySet under All-Pairs and the merge count to the
// partitions.
func TestGridProbeLevelBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(3502))
	tiled := 0
	for _, d := range []int{1, 2, 3} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for _, levels := range boundaryLevelLists {
				ps := boundaryPoints(r, d, levels)
				n := ps.Len()
				what := fmt.Sprintf("d=%d %v levels %v", d, m, levels)
				want := make([]*Result, len(levels))
				for l, eps := range levels {
					res, err := SGBAnySet(ps, Options{Metric: m, Eps: eps, Algorithm: AllPairs})
					if err != nil {
						t.Fatal(err)
					}
					want[l] = res
				}
				same := func(how string, l int, got *Result) {
					t.Helper()
					if !reflect.DeepEqual(got, want[l]) {
						t.Fatalf("%s %s ε=%v: groups differ from All-Pairs\ngot  %v\nwant %v", what, how, levels[l], got.Groups, want[l].Groups)
					}
				}
				for _, par := range []int{1, 2} {
					if par == 2 && partition.Split(ps, levels[len(levels)-1], 2) != nil {
						tiled++
					}
					for _, alg := range anyStrategies {
						how := fmt.Sprintf("%v w=%d", alg, par)
						st := &Stats{}
						got, err := SweepAnySet(ps, levels, Options{Metric: m, Algorithm: alg, Parallelism: par, Stats: st})
						if err != nil {
							t.Fatal(err)
						}
						for l := range levels {
							same("sweep "+how, l, got[l])
						}
						checkMerges(t, what+" sweep "+how, n, got, st)
						for l, eps := range levels {
							st := &Stats{}
							res, err := SGBAnySet(ps, Options{Metric: m, Eps: eps, Algorithm: alg, Parallelism: par, Stats: st})
							if err != nil {
								t.Fatal(err)
							}
							same("single-ε "+how, l, res)
							checkMerges(t, fmt.Sprintf("%s single-ε %v %s", what, eps, how), n, []*Result{res}, st)
						}
					}
				}

				st := &Stats{}
				ev, err := NewAnyLevels(levels, Options{Metric: m, Algorithm: GridIndex, Stats: st})
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < n; {
					hi := min(n, lo+1+r.Intn(n/2))
					if err := ev.Append(ps.Slice(lo, hi)); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				got := make([]*Result, len(levels))
				for l, eps := range levels {
					if got[l], err = ev.GroupsAt(eps); err != nil {
						t.Fatal(err)
					}
					same("Append", l, got[l])
				}
				checkMerges(t, what+" Append", n, got, st)
			}
		}
	}
	if tiled == 0 {
		t.Fatal("no two-worker run was tiled")
	}
}
