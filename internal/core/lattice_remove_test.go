package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/lattice"
)

// TestLatticeRemoveMatchesOneShot: after removals in any id order, and
// appends after them, every level of the maintained evaluator equals a
// one-shot SGBAny run over the survivors.
func TestLatticeRemoveMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(909))
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		live := randomPointsDim(r, 220, 2, 9)
		ev, err := NewLatticeEvaluator(2, Options{Metric: m, Eps: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Append(live, nil); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			ids := r.Perm(len(live))[:1+r.Intn(40)] // unsorted, distinct
			if err := ev.Remove(ids, nil); err != nil {
				t.Fatalf("Remove(%v): %v", ids, err)
			}
			gone := make(map[int]bool, len(ids))
			for _, id := range ids {
				gone[id] = true
			}
			kept := live[:0:0]
			for i, p := range live {
				if !gone[i] {
					kept = append(kept, p)
				}
			}
			live = kept
			if round%2 == 1 {
				fresh := randomPointsDim(r, 25, 2, 9)
				if err := ev.Append(fresh, nil); err != nil {
					t.Fatal(err)
				}
				live = append(live, fresh...)
			}
			if ev.Len() != len(live) {
				t.Fatalf("%v round %d: evaluator holds %d points, want %d", m, round, ev.Len(), len(live))
			}
			for _, eps := range []float64{0.2, 0.6, 1.1, 1.5} {
				got, err := ev.GroupsAt(eps)
				if err != nil {
					t.Fatal(err)
				}
				want, err := SGBAny(live, Options{Metric: m, Eps: eps, Algorithm: GridIndex})
				if err != nil {
					t.Fatal(err)
				}
				if err := sameMembers(got, want); err != nil {
					t.Fatalf("%v round %d eps=%v: maintained lattice diverges from one-shot: %v", m, round, eps, err)
				}
			}
		}
	}
}

// TestLatticeRemoveValidatesBeforeMutating: an out-of-range or
// duplicate id is an error and leaves the dendrogram untouched — a
// failed Remove never hands back a half-repaired evaluator.
func TestLatticeRemoveValidatesBeforeMutating(t *testing.T) {
	points := randomPointsDim(rand.New(rand.NewSource(910)), 120, 2, 6)
	ev, err := NewLatticeEvaluator(2, Options{Metric: geom.L2, Eps: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Append(points, nil); err != nil {
		t.Fatal(err)
	}
	before := append([]lattice.Merge(nil), ev.sweep.Dendrogram().Merges()...)
	for _, ids := range [][]int{{120}, {-1, 4}, {7, 3, 7}, {0, 119, 120}} {
		var st Stats
		if err := ev.Remove(ids, &st); err == nil {
			t.Fatalf("Remove(%v) accepted", ids)
		}
		if st != (Stats{}) {
			t.Fatalf("Remove(%v) failed but charged work: %+v", ids, st)
		}
		if ev.Len() != 120 || !reflect.DeepEqual(before, ev.sweep.Dendrogram().Merges()) {
			t.Fatalf("Remove(%v) failed but changed the evaluator", ids)
		}
	}
	if err := ev.Remove(nil, nil); err != nil || ev.Len() != 120 {
		t.Fatalf("empty Remove: %v, %d points", err, ev.Len())
	}
}

// TestLatticeRemoveOutputSensitive pins the point of repairing: sliding
// the 256 oldest points out of a 16k-point check-in window at
// ε_max = 0.4 re-probes under a fifth of the survivors and costs under
// 40 % of the distance computations of sweeping them again, and both end
// at the same merge list. (The two ratios are tied: a re-probed point
// measures its whole 3^d-cell neighbourhood where Append, which sees
// only earlier arrivals, measures half of it. This input re-probes 15 %
// of its points and so pays 34 % of the distances; docs/pr20 has the
// table.)
func TestLatticeRemoveOutputSensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-point sweep")
	}
	ps := geom.FromPoints(checkin.Points(checkin.Brightkite(16000)))
	opt := Options{Metric: geom.L2, Eps: 0.4}
	ev, err := NewLatticeEvaluator(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AppendSet(ps, nil); err != nil {
		t.Fatal(err)
	}
	oldest := make([]int, 256)
	for i := range oldest {
		oldest[i] = i
	}
	var repair, rebuild Stats
	if err := ev.Remove(oldest, &repair); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewLatticeEvaluator(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AppendSet(ps.Slice(256, ps.Len()), &rebuild); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev.sweep.Dendrogram().Merges(), fresh.sweep.Dendrogram().Merges()) {
		t.Fatal("repaired merge list differs from the rebuilt one")
	}
	t.Logf("repair: %d distance computations, %d re-probes; rebuild: %d, %d",
		repair.DistanceComputations, repair.IndexProbes, rebuild.DistanceComputations, rebuild.IndexProbes)
	if 5*repair.IndexProbes >= rebuild.IndexProbes {
		t.Fatalf("repair re-probed %d points, rebuild probes %d: want under 20%%", repair.IndexProbes, rebuild.IndexProbes)
	}
	if 10*repair.DistanceComputations >= 4*rebuild.DistanceComputations {
		t.Fatalf("repair cost %d distance computations, rebuild %d: want under 40%%",
			repair.DistanceComputations, rebuild.DistanceComputations)
	}
}
