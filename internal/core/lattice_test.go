package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// anyStrategies are the SGB-Any evaluation strategies the equivalence
// matrix cross-validates against (BoundsCheck does not exist for Any;
// its rejection is asserted separately below).
var anyStrategies = []Algorithm{AllPairs, OnTheFlyIndex, GridIndex}

// TestLatticeEquivalenceMatrix is the randomized lattice↔one-shot
// suite: for every ε level of randomly drawn EPS IN lists, SweepAny's
// answer must deep-equal an independent single-ε SGBAny run — same
// groups in the same canonical order with members in the same order —
// across {L2, L∞} × d ∈ {1, 2, 3, 5} × every SGB-Any strategy.
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
							t.Fatalf("%v d=%d eps=%v vs %v: lattice level diverges: %v", m, d, eps, alg, err)
						}
					}
				}
			}
		}
	}
}

// TestLatticeEquivalenceParallelOneShot pins the remaining strategy
// surface: lattice levels also match GridIndex one-shot runs forced
// through the parallel pipeline.
func TestLatticeEquivalenceParallelOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(809))
	points := randomPointsDim(r, 400, 2, 6)
	epsList := []float64{0.2, 0.55, 0.9, 1.4}
	swept, err := SweepAny(points, epsList, Options{Metric: geom.L2})
	if err != nil {
		t.Fatal(err)
	}
	for li, eps := range epsList {
		oneShot, err := SGBAny(points, Options{Metric: geom.L2, Eps: eps, Algorithm: GridIndex, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMembers(swept[li], oneShot); err != nil {
			t.Fatalf("eps=%v vs parallel grid: %v", eps, err)
		}
	}
}

// TestLatticeParallelism: Options.Parallelism sets how many goroutines
// build the first batch's forest and nothing else — every level of
// SweepAny equals the Parallelism = 1 answer, over L2 and L∞, d ∈ {1,
// 2, 3} and duplicated points, and so does an evaluator that appends
// and removes after a tiled first batch. The probe count shows which
// build ran: a tiled one probes the frontier points a second time.
func TestLatticeParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(813))
	levels := []float64{0.15, 0.4, 0.9, 1.5}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		for _, d := range []int{1, 2, 3} {
			pts := randomPointsDim(r, 300, d, 6)
			pts = append(pts, pts[:40]...)
			seqStats := &Stats{}
			want, err := SweepAny(pts, levels, Options{Metric: m, Parallelism: 1, Stats: seqStats})
			if err != nil {
				t.Fatal(err)
			}
			if seqStats.IndexProbes != int64(len(pts)) {
				t.Fatalf("%v d=%d Parallelism=1: %d probes, want one per point (%d)", m, d, seqStats.IndexProbes, len(pts))
			}
			for _, par := range []int{2, 3, 8} {
				st := &Stats{}
				got, err := SweepAny(pts, levels, Options{Metric: m, Parallelism: par, Stats: st})
				if err != nil {
					t.Fatal(err)
				}
				if st.IndexProbes <= int64(len(pts)) {
					t.Fatalf("%v d=%d Parallelism=%d: %d probes for %d points, the build was not tiled", m, d, par, st.IndexProbes, len(pts))
				}
				for li := range levels {
					if err := sameMembers(got[li], want[li]); err != nil {
						t.Fatalf("%v d=%d Parallelism=%d eps=%v: %v", m, d, par, levels[li], err)
					}
				}
			}

			ev, err := NewLatticeEvaluator(d, Options{Metric: m, Eps: 1.5, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			more := randomPointsDim(r, 50, d, 6)
			if err := ev.Append(pts, nil); err != nil {
				t.Fatal(err)
			}
			if err := ev.Append(more, nil); err != nil {
				t.Fatal(err)
			}
			gone := []int{0, 7, 41, 300, 330}
			if err := ev.Remove(gone, nil); err != nil {
				t.Fatal(err)
			}
			var live []geom.Point
			for i, p := range append(append([]geom.Point(nil), pts...), more...) {
				if len(gone) > 0 && gone[0] == i {
					gone = gone[1:]
					continue
				}
				live = append(live, p)
			}
			for _, eps := range levels {
				got, err := ev.GroupsAt(eps)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := SGBAny(live, Options{Metric: m, Eps: eps, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := sameMembers(got, ref); err != nil {
					t.Fatalf("%v d=%d eps=%v after append and remove: %v", m, d, eps, err)
				}
			}
		}
	}
}

// TestLatticeIncrementalEquivalence: appending in batches to one
// LatticeEvaluator answers exactly like a one-shot run over the
// concatenation, at every level, after every batch.
func TestLatticeIncrementalEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(810))
	ev, err := NewLatticeEvaluator(3, Options{Metric: geom.L2, Eps: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	var all []geom.Point
	for batch := 0; batch < 4; batch++ {
		pts := randomPointsDim(r, 60, 3, 5)
		all = append(all, pts...)
		if err := ev.Append(pts, nil); err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.3, 1.1, 2.0} {
			got, err := ev.GroupsAt(eps)
			if err != nil {
				t.Fatal(err)
			}
			want, err := SGBAny(all, Options{Metric: geom.L2, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMembers(got, want); err != nil {
				t.Fatalf("batch %d eps=%v: %v", batch, eps, err)
			}
		}
	}
}

// TestLatticeBoundsCheckRejected completes the four-strategy matrix:
// SGB-Any has no Bounds-Checking variant, and the lattice evaluator
// rejects it with the same named error the one-shot operator uses.
func TestLatticeBoundsCheckRejected(t *testing.T) {
	if _, err := NewLatticeEvaluator(2, Options{Metric: geom.L2, Eps: 1, Algorithm: BoundsCheck}); !errors.Is(err, ErrBoundsCheckAny) {
		t.Fatalf("NewLatticeEvaluator(BoundsCheck): got %v, want ErrBoundsCheckAny", err)
	}
	if _, err := SweepAny([]geom.Point{{0, 0}}, []float64{1}, Options{Metric: geom.L2, Algorithm: BoundsCheck}); !errors.Is(err, ErrBoundsCheckAny) {
		t.Fatalf("SweepAny(BoundsCheck): got %v, want ErrBoundsCheckAny", err)
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

func TestLatticeEpsAboveMax(t *testing.T) {
	ev, err := NewLatticeEvaluator(2, Options{Metric: geom.L2, Eps: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Append([]geom.Point{{0, 0}, {0.5, 0}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.GroupsAt(1.5); !errors.Is(err, ErrEpsAboveMax) {
		t.Fatalf("GroupsAt above ε_max: got %v", err)
	}
	if _, err := ev.Sweep([]float64{0.5, 1.5}); !errors.Is(err, ErrEpsAboveMax) {
		t.Fatalf("Sweep above ε_max: got %v", err)
	}
}

// TestLatticeQueryCostIsZero pins the cache-sharing contract: once the
// sweep is built, GroupsAt/Sweep charge no distance computations or
// index work to the caller's Stats (the shared-entry regression at the
// SQL layer relies on exactly this).
func TestLatticeQueryCostIsZero(t *testing.T) {
	r := rand.New(rand.NewSource(811))
	ev, err := NewLatticeEvaluator(2, Options{Metric: geom.L2, Eps: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	var build Stats
	if err := ev.Append(randomPointsDim(r, 200, 2, 5), &build); err != nil {
		t.Fatal(err)
	}
	if build.DistanceComputations == 0 || build.IndexProbes == 0 {
		t.Fatalf("build charged no work: %+v", build)
	}
	if _, err := ev.Sweep([]float64{0.3, 0.9, 1.7}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SweepSummaries([]float64{0.3, 0.9, 1.7}); err != nil {
		t.Fatal(err)
	}
	after := build
	// Queries take no Stats argument at all — re-appending nothing and
	// re-querying must leave the recorded counters untouched.
	if err := ev.Append(nil, &build); err != nil {
		t.Fatal(err)
	}
	if build != after {
		t.Fatalf("queries/no-op appends charged work: %+v vs %+v", build, after)
	}
}

// TestLatticeSummaryMatchesGroups cross-checks SummaryAt against the
// materialized groups it summarizes.
func TestLatticeSummaryMatchesGroups(t *testing.T) {
	r := rand.New(rand.NewSource(812))
	pts := randomPointsDim(r, 150, 2, 4)
	ev, err := NewLatticeEvaluator(2, Options{Metric: geom.LInf, Eps: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Append(pts, nil); err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.2, 0.6, 1.5} {
		sum, err := ev.SummaryAt(eps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev.GroupsAt(eps)
		if err != nil {
			t.Fatal(err)
		}
		largest, grouped := 0, 0
		for _, g := range res.Groups {
			if len(g.Members) > largest {
				largest = len(g.Members)
			}
			if len(g.Members) >= 2 {
				grouped += len(g.Members)
			}
		}
		wantFrac := float64(grouped) / float64(len(pts))
		if sum.Eps != eps || sum.Groups != len(res.Groups) || sum.Largest != largest || math.Abs(sum.GroupedFraction-wantFrac) > 1e-15 {
			t.Fatalf("eps=%v: summary %+v disagrees with groups (want %d groups, largest %d, frac %v)", eps, sum, len(res.Groups), largest, wantFrac)
		}
	}

	// The two queries share the dendrogram's scratch: interleaved in
	// either order, at rising and falling levels, each must answer what
	// it answers on an evaluator that never ran the other.
	fresh := func() *LatticeEvaluator {
		f, err := NewLatticeEvaluator(2, Options{Metric: geom.LInf, Eps: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(pts, nil); err != nil {
			t.Fatal(err)
		}
		return f
	}
	levels := []float64{0.2, 0.6, 1.5, 0.4, 0.9}
	for _, groupsFirst := range []bool{true, false} {
		for _, eps := range levels {
			var res *Result
			var sum EpsSummary
			if groupsFirst {
				res, err = ev.GroupsAt(eps)
				if err == nil {
					sum, err = ev.SummaryAt(eps)
				}
			} else {
				sum, err = ev.SummaryAt(eps)
				if err == nil {
					res, err = ev.GroupsAt(eps)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := fresh().GroupsAt(eps)
			if err != nil {
				t.Fatal(err)
			}
			wantSum, err := fresh().SummaryAt(eps)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMembers(res, wantRes); err != nil {
				t.Fatalf("groupsFirst=%t eps=%v: GroupsAt after interleaved queries: %v", groupsFirst, eps, err)
			}
			if sum != wantSum {
				t.Fatalf("groupsFirst=%t eps=%v: SummaryAt after interleaved queries %+v, fresh %+v", groupsFirst, eps, sum, wantSum)
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
