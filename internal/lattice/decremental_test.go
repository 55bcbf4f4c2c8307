package lattice

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// tracePoints draws n points for a removal trace: a third snap to a
// half-unit lattice (exact key ties, lattice-aligned cell borders) and
// one in eight repeats an earlier point of the batch (zero-key edges).
func tracePoints(rng *rand.Rand, n, dims int, span float64) *geom.PointSet {
	ps := geom.NewPointSetCap(dims, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(8) == 0 {
			ps.AppendPoint(ps.At(rng.Intn(i)))
			continue
		}
		p := ps.Extend()
		snap := rng.Intn(3) == 0
		for d := range p {
			p[d] = rng.Float64() * span
			if snap {
				p[d] = math.Round(p[d]*2) / 2
			}
		}
	}
	return ps
}

// checkAgainstFresh compares the maintained sweep with a fresh one fed
// the survivors in arrival order — merge list element for element — and
// five levels of it with brute force.
func checkAgainstFresh(t *testing.T, s *Sweep, want *geom.PointSet, step string) {
	t.Helper()
	if s.Len() != want.Len() {
		t.Fatalf("%s: sweep holds %d points, want %d", step, s.Len(), want.Len())
	}
	fresh, err := NewSweep(s.Dims(), s.Metric(), s.EpsMax())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Append(want, 1, nil); err != nil {
		t.Fatal(err)
	}
	d := s.Dendrogram()
	got, ref := d.Merges(), fresh.Dendrogram().Merges()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d merges, fresh sweep has %d", step, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: merge %d is %+v, fresh sweep has %+v", step, i, got[i], ref[i])
		}
	}
	for _, f := range []float64{0.1, 0.3, 0.5, 0.8, 1} {
		eps := f * s.EpsMax()
		groups, err := d.GroupsAt(eps)
		if err != nil {
			t.Fatalf("%s: GroupsAt(%v): %v", step, eps, err)
		}
		if brute := bruteGroups(want, s.Metric(), eps); !reflect.DeepEqual(groups, brute) {
			t.Fatalf("%s: eps=%v diverges from brute force\ngot  %v\nwant %v", step, eps, groups, brute)
		}
	}
}

// pickVictims chooses a removal batch over n live ids: the oldest run
// (a sliding window), a random subset, one point, or everything.
func pickVictims(rng *rand.Rand, n int) []int {
	var ids []int
	switch mode := rng.Intn(8); {
	case n == 0:
	case mode == 0:
		for i := 0; i < n; i++ {
			ids = append(ids, i)
		}
	case mode <= 2:
		for i, k := 0, 1+rng.Intn(1+n/4); i < k; i++ {
			ids = append(ids, i)
		}
	case mode == 3:
		ids = []int{rng.Intn(n)}
	default:
		p := 0.05 + 0.4*rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				ids = append(ids, i)
			}
		}
	}
	return ids
}

// TestRemoveEquivalenceMatrix drives seeded remove/append traces over
// metric × dimensionality × ε_max × compaction cadence. After every
// step the maintained sweep must be the fresh sweep over the survivors.
// Steps cover removal straight after an append (victims whose edges are
// still in the uncompacted tail), removal of everything followed by an
// append, empty id lists, and batches large enough to Morton-reorder.
func TestRemoveEquivalenceMatrix(t *testing.T) {
	spans := map[int]float64{1: 40, 2: 8, 3: 5, 5: 3}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		for _, dims := range []int{1, 2, 3, 5} {
			for ei, epsMax := range []float64{0.5, 1.25, 3} {
				for _, every := range []int{0, 16} {
					name := fmt.Sprintf("%v/d=%d/epsmax=%v/every=%d", m, dims, epsMax, every)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(1000*dims + 10*ei + every)))
						s, err := NewSweep(dims, m, epsMax)
						if err != nil {
							t.Fatal(err)
						}
						s.CompactEvery = every
						live := geom.NewPointSet(dims)
						appendBatch := func(n int) {
							b := tracePoints(rng, n, dims, spans[dims])
							if err := s.Append(b, 1, nil); err != nil {
								t.Fatal(err)
							}
							live.AppendSet(b)
						}
						remove := func(ids []int) {
							if err := s.Remove(ids, nil); err != nil {
								t.Fatalf("Remove(%v): %v", ids, err)
							}
							live.RemoveSorted(ids)
						}
						appendBatch(70)
						checkAgainstFresh(t, s, live, "seed batch")
						for step := 0; step < 14; step++ {
							label := fmt.Sprintf("step %d", step)
							switch rng.Intn(5) {
							case 0:
								appendBatch(1 + rng.Intn(48))
								label += " append"
							case 1:
								// No Dendrogram() in between: the victims'
								// edges sit in the unsorted tail.
								appendBatch(1 + rng.Intn(40))
								remove(pickVictims(rng, live.Len()))
								label += " append+remove"
							case 2:
								remove(nil)
								label += " remove nothing"
							default:
								remove(pickVictims(rng, live.Len()))
								label += " remove"
							}
							checkAgainstFresh(t, s, live, label)
						}
						all := make([]int, live.Len())
						for i := range all {
							all[i] = i
						}
						remove(all)
						checkAgainstFresh(t, s, live, "remove everything")
						appendBatch(40)
						checkAgainstFresh(t, s, live, "append after remove everything")
					})
				}
			}
		}
	}
}

// TestRemoveRevivesFilteredEdge is the stale-filter regression. d, u, v
// share one ε_max-cell with d–u and d–v short and u–v in
// (ε_max/2, ε_max]; v arrives last and meets d first, so the
// early-discard filter drops u–v (u and v are already connected through
// d). Deleting d must bring u–v back as the one merge — it fails if the
// re-probe consults the stale filter. A point appended next lies close
// to one survivor and in (ε_max/2, ε_max] of the other, and that long
// pair is a forest edge — it fails if the filter still remembers the
// path through d. Both placements run, so one of them meets its short
// edge first whatever order the cell lists its ids in.
func TestRemoveRevivesFilteredEdge(t *testing.T) {
	for _, x := range []float64{0.3, 0.7} {
		s, err := NewSweep(1, geom.L2, 1)
		if err != nil {
			t.Fatal(err)
		}
		pts := geom.NewPointSet(1)
		for _, c := range []float64{0.5, 0.1, 0.9} { // d, u, v
			pts.AppendPoint(geom.Point{c})
		}
		if err := s.Append(pts, 1, nil); err != nil {
			t.Fatal(err)
		}
		if len(s.edges) != 2 {
			t.Fatalf("precondition: the filter should have dropped u–v, edge buffer is %v", s.edges)
		}
		if err := s.Remove([]int{0}, nil); err != nil {
			t.Fatal(err)
		}
		pts.RemoveSorted([]int{0})
		checkAgainstFresh(t, s, pts, "after deleting d")
		if got := s.Dendrogram().Merges(); len(got) != 1 || got[0].A != 0 || got[0].B != 1 {
			t.Fatalf("after deleting d: merges %v, want the single u–v merge", got)
		}
		next := geom.NewPointSet(1)
		next.AppendPoint(geom.Point{x})
		if err := s.Append(next, 1, nil); err != nil {
			t.Fatal(err)
		}
		pts.AppendSet(next)
		checkAgainstFresh(t, s, pts, fmt.Sprintf("after appending %v", x))
	}
}

// TestRemoveValidatesFirst: a bad id list is refused before anything
// moves.
func TestRemoveValidatesFirst(t *testing.T) {
	ps := randomSet(rand.New(rand.NewSource(51)), 40, 2, 4)
	s := buildSweep(t, ps, geom.L2, 1.5, 0)
	before := append([]Merge(nil), s.Dendrogram().Merges()...)
	for _, ids := range [][]int{{-1}, {40}, {3, 3}, {5, 2}, {0, 39, 40}} {
		if err := s.Remove(ids, nil); err == nil {
			t.Fatalf("Remove(%v) accepted", ids)
		}
		if s.Len() != 40 || !reflect.DeepEqual(before, s.Dendrogram().Merges()) {
			t.Fatalf("Remove(%v) failed but changed the sweep", ids)
		}
	}
}

// TestRemoveStats: the counters say what the repair did — one grid
// unregistration per victim, and no probe at all when nothing splits
// (an isolated point, a leaf of its tree).
func TestRemoveStats(t *testing.T) {
	ps := geom.NewPointSet(1)
	for _, c := range []float64{0, 0.4, 0.8, 1.2, 50} {
		ps.AppendPoint(geom.Point{c})
	}
	s := buildSweep(t, ps, geom.L2, 0.5, 0)
	var st Stats
	if err := s.Remove([]int{0, 4}, &st); err != nil { // chain end + isolated point
		t.Fatal(err)
	}
	if st.IndexUpdates != 2 || st.IndexProbes != 0 || st.DistanceComputations != 0 {
		t.Fatalf("leaf + isolated removal: %+v, want 2 updates and no probe", st)
	}
	st = Stats{}
	if err := s.Remove([]int{1}, &st); err != nil { // 0.8: splits {0.4} from {1.2}
		t.Fatal(err)
	}
	if st.IndexUpdates != 1 || st.IndexProbes != 1 {
		t.Fatalf("split removal: %+v, want 1 update and 1 re-probe (the smaller piece)", st)
	}
}
