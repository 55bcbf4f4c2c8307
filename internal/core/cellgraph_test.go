package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/geom"
)

// cellCount counts the cells the points of ps occupy at one level of
// the cell graph: distinct tuples of floor(x / side), the side padded
// for ps's own largest coordinate (cellSide).
func cellCount(ps *geom.PointSet, m geom.Metric, key float64) int64 {
	maxAbs := 0.0
	for _, v := range ps.Data() {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	inv := 1 / cellSide(m, key, maxAbs)
	seen := map[string]bool{}
	for i := 0; i < ps.Len(); i++ {
		cell := make([]int64, ps.Dims())
		for k, x := range ps.At(i) {
			cell[k] = int64(math.Floor(x * inv))
		}
		seen[fmt.Sprint(cell)] = true
	}
	return int64(len(seen))
}

// checkGridWork holds a one-shot grid run's Stats, at levels (ε, any
// order) under Parallelism par, to the work of the ranges the level
// split cuts: with w = min(workers, k), range r is the ascending levels
// [r·k/w, (r+1)·k/w), its lowest level starting from singletons. The
// run registers and probes once per occupied cell and level, whatever
// the split (cellCount), and its keys and merges are the sum of its
// ranges' when each is evaluated alone. It reports whether the run was
// split.
func checkGridWork(t *testing.T, what string, ps *geom.PointSet, m geom.Metric, levels []float64, par int, st *Stats) bool {
	t.Helper()
	asc := slices.Clone(levels)
	slices.Sort(asc)
	k := len(asc)
	w := min(Options{Algorithm: GridIndex, Parallelism: par}.workers(ps.Len()), k)
	var cells int64
	want := &Stats{}
	for r := 0; r < w; r++ {
		lo, hi := r*k/w, (r+1)*k/w
		keys := make([]float64, hi-lo)
		for l, eps := range asc[lo:hi] {
			keys[l] = m.EpsKey(eps)
			cells += cellCount(ps, m, keys[l])
		}
		sgbAnyLocal(ps, Options{Metric: m, Eps: asc[hi-1], Algorithm: GridIndex, Stats: want}, newAnyForests(keys, ps.Len()))
	}
	if st.IndexUpdates != cells || st.IndexProbes != cells {
		t.Fatalf("%s: %d updates and %d probes, want %d of each", what, st.IndexUpdates, st.IndexProbes, cells)
	}
	if st.DistanceComputations != want.DistanceComputations || st.GroupMerges != want.GroupMerges {
		t.Fatalf("%s: %d keys and %d merges, its %d ranges %d and %d", what,
			st.DistanceComputations, st.GroupMerges, w, want.DistanceComputations, want.GroupMerges)
	}
	return w > 1
}

// TestForwardPrefixes: the prefix offsets with the next cell along the
// last axis cover each unordered pair of distinct neighbouring cells
// once — half of the 3^d − 1 neighbours.
func TestForwardPrefixes(t *testing.T) {
	for d := 1; d <= 5; d++ {
		offs := forwardPrefixes(d)
		if got, want := len(offs)/max(d-1, 1)*3+1, (pow3(d)-1)/2; d > 1 && got != want {
			t.Fatalf("d=%d: %d forward neighbours, want %d", d, got, want)
		}
		for j := 0; j+d-1 <= len(offs) && d > 1; j += d - 1 {
			off := offs[j : j+d-1]
			k := slices.IndexFunc(off, func(v int64) bool { return v != 0 })
			if k < 0 || off[k] != 1 {
				t.Fatalf("d=%d: offset %v is not forward", d, off)
			}
		}
	}
}

func pow3(d int) int {
	p := 1
	for ; d > 0; d-- {
		p *= 3
	}
	return p
}

// pointJoin is the per-point grid join the cell graph replaced in
// one-shot runs, and the one a maintained evaluator appends with: each
// point in turn probes an ε-grid of the points before it at the top
// level's ε and joins its candidates at every level their keys reach
// (anyJoin.step). levels are ascending.
func pointJoin(ps *geom.PointSet, m geom.Metric, levels []float64, st *Stats) *anyForests {
	keys := make([]float64, len(levels))
	for l, eps := range levels {
		keys[l] = m.EpsKey(eps)
	}
	opt := Options{Metric: m, Eps: levels[len(levels)-1], Algorithm: GridIndex, Stats: st}
	f := newAnyForests(keys, ps.Len())
	ix := newAnyGrid(ps.Dims(), ps.Len(), opt.Eps)
	var j anyJoin
	for i := 0; i < ps.Len(); i++ {
		j.step(ix, ps, i, opt, f)
	}
	return f
}

// pointJoinKeys returns the keys pointJoin computes over ps at levels.
func pointJoinKeys(ps *geom.PointSet, m geom.Metric, levels []float64) int64 {
	st := &Stats{}
	asc := slices.Clone(levels)
	slices.Sort(asc)
	pointJoin(ps, m, asc, st)
	return st.DistanceComputations
}

// TestCellGraphMatchesPointJoin holds the cell graph to the per-point
// join (pointJoin) on bench-shaped data: 8 000 and 12 000
// Brightkite-profile check-ins, eps_cube_cold's ε lists and sql_cold's
// single ε, under both metrics. Every level's partition is compared
// member for member, the merges must agree, and the cell graph must key
// fewer pairs than the join.
func TestCellGraphMatchesPointJoin(t *testing.T) {
	lists := [][]float64{
		{0.05}, {0.2}, {0.8},
		{0.1, 0.4},
		{0.1, 0.2, 0.4},
		{0.05, 0.1, 0.2, 0.4, 0.8},
		{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8},
	}
	for _, n := range []int{8000, 12000} {
		ps := geom.FromPoints(checkin.Points(checkin.Brightkite(n)))
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for _, levels := range lists {
				what := fmt.Sprintf("n=%d %v %v", n, m, levels)
				joinSt, cellSt := &Stats{}, &Stats{}
				want := pointJoin(ps, m, levels, joinSt)
				got := newAnyForests(want.keys, ps.Len())
				sgbAnyLocal(ps, Options{Metric: m, Eps: levels[len(levels)-1], Algorithm: GridIndex, Stats: cellSt}, got)
				for l := range levels {
					if !reflect.DeepEqual(groupsFromUF(got.ufs[l], nil), groupsFromUF(want.ufs[l], nil)) {
						t.Fatalf("%s ε=%v: the cell graph's partition differs from the per-point join's", what, levels[l])
					}
				}
				if cellSt.GroupMerges != joinSt.GroupMerges {
					t.Fatalf("%s: %d merges, the per-point join %d", what, cellSt.GroupMerges, joinSt.GroupMerges)
				}
				if cellSt.DistanceComputations >= joinSt.DistanceComputations {
					t.Fatalf("%s: %d keys, the per-point join %d", what, cellSt.DistanceComputations, joinSt.DistanceComputations)
				}
			}
		}
	}
}
