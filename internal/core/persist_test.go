package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// persistBatch builds a deterministic pseudo-random batch of n
// dims-dimensional points clustered enough that groups form and overlap
// arbitration actually fires.
func persistBatch(r *rand.Rand, dims, n int) *geom.PointSet {
	ps := geom.NewPointSetCap(dims, n)
	for i := 0; i < n; i++ {
		p := ps.Extend()
		for d := range p {
			p[d] = float64(r.Intn(12)) + 0.25*r.Float64()
		}
	}
	return ps
}

// removalIDs picks k distinct live ids, sorted ascending.
func removalIDs(r *rand.Rand, liveLen, k int) []int {
	if k > liveLen {
		k = liveLen
	}
	perm := r.Perm(liveLen)[:k]
	ids := append([]int(nil), perm...)
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

func requireSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Groups, b.Groups) || !reflect.DeepEqual(a.Eliminated, b.Eliminated) {
		t.Fatalf("%s: results diverge\n original: %v / elim %v\n restored: %v / elim %v",
			label, a.Groups, a.Eliminated, b.Groups, b.Eliminated)
	}
}

// TestAnyExportRestore round-trips SGB-Any evaluators mid-stream across
// every strategy × metric × dimensionality and checks the restored
// evaluator is observationally identical: same Result immediately, and
// same Results after identical further appends and removals.
func TestAnyExportRestore(t *testing.T) {
	for _, alg := range []Algorithm{AllPairs, OnTheFlyIndex, GridIndex} {
		for _, metric := range []geom.Metric{geom.L2, geom.LInf} {
			for dims := 1; dims <= 3; dims++ {
				name := fmt.Sprintf("%v/%v/d=%d", alg, metric, dims)
				t.Run(name, func(t *testing.T) {
					r := rand.New(rand.NewSource(42))
					opt := Options{Metric: metric, Eps: 1.0, Algorithm: alg, Parallelism: 1}
					e, err := NewAnyEvaluator(dims, opt)
					if err != nil {
						t.Fatal(err)
					}
					for b := 0; b < 3; b++ {
						if err := e.Append(persistBatch(r, dims, 60)); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.Remove(removalIDs(r, e.Len(), 25)); err != nil {
						t.Fatal(err)
					}

					re, err := RestoreAnyEvaluator(e.ExportState())
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, "post-restore", e.Result(), re.Result())

					// Identical further mutations must stay in lockstep.
					r2 := rand.New(rand.NewSource(7))
					for step := 0; step < 3; step++ {
						batch := persistBatch(r2, dims, 40)
						if err := e.Append(batch); err != nil {
							t.Fatal(err)
						}
						if err := re.Append(batch); err != nil {
							t.Fatal(err)
						}
						ids := removalIDs(r2, e.Len(), 15)
						if err := e.Remove(ids); err != nil {
							t.Fatal(err)
						}
						if err := re.Remove(append([]int(nil), ids...)); err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, fmt.Sprintf("step %d", step), e.Result(), re.Result())
					}
				})
			}
		}
	}
}

// TestAllExportRestore round-trips SGB-All evaluators mid-stream across
// every ON-OVERLAP semantics × metric × dimensionality. SGB-All
// arbitration is order- and PRNG-sensitive, so the restored evaluator
// must replay identical further appends and removals bit-identically —
// including JOIN-ANY's random draws (the splitmix64 state travels with
// the snapshot) and FORM-NEW-GROUP's deferred set.
func TestAllExportRestore(t *testing.T) {
	for _, overlap := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
		for _, metric := range []geom.Metric{geom.L2, geom.LInf} {
			for dims := 1; dims <= 3; dims++ {
				name := fmt.Sprintf("%v/%v/d=%d", overlap, metric, dims)
				t.Run(name, func(t *testing.T) {
					r := rand.New(rand.NewSource(99))
					opt := Options{
						Metric: metric, Eps: 1.5, Overlap: overlap,
						Algorithm: GridIndex, Seed: 1234, Parallelism: 1,
					}
					e, err := NewAllEvaluator(dims, opt)
					if err != nil {
						t.Fatal(err)
					}
					for b := 0; b < 3; b++ {
						if err := e.Append(persistBatch(r, dims, 50)); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.Remove(removalIDs(r, e.Len(), 20)); err != nil {
						t.Fatal(err)
					}

					re, err := RestoreAllEvaluator(e.ExportState())
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, "post-restore", e.Result(), re.Result())

					r2 := rand.New(rand.NewSource(5))
					for step := 0; step < 3; step++ {
						batch := persistBatch(r2, dims, 35)
						if err := e.Append(batch); err != nil {
							t.Fatal(err)
						}
						if err := re.Append(batch); err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, fmt.Sprintf("append %d", step), e.Result(), re.Result())
						ids := removalIDs(r2, e.Len(), 12)
						if err := e.Remove(ids); err != nil {
							t.Fatal(err)
						}
						if err := re.Remove(append([]int(nil), ids...)); err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, fmt.Sprintf("remove %d", step), e.Result(), re.Result())
					}
				})
			}
		}
	}
}

// TestAllExportRestoreStrategies pins the restore across the remaining
// SGB-All finder strategies (the rebuilt finder must re-register every
// live group, whatever the index structure).
func TestAllExportRestoreStrategies(t *testing.T) {
	for _, alg := range []Algorithm{AllPairs, BoundsCheck, OnTheFlyIndex} {
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(3))
			opt := Options{Metric: geom.L2, Eps: 1.5, Overlap: JoinAny, Algorithm: alg, Seed: 9, Parallelism: 1}
			e, err := NewAllEvaluator(2, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Append(persistBatch(r, 2, 120)); err != nil {
				t.Fatal(err)
			}
			re, err := RestoreAllEvaluator(e.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			batch := persistBatch(r, 2, 60)
			if err := e.Append(batch); err != nil {
				t.Fatal(err)
			}
			if err := re.Append(batch); err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "post-append", e.Result(), re.Result())
		})
	}
}

// TestExportIsolation checks the snapshot does not alias live state:
// mutating the evaluator after ExportState must not corrupt a later
// restore.
func TestExportIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	opt := Options{Metric: geom.LInf, Eps: 1.0, Algorithm: GridIndex, Parallelism: 1}
	e, err := NewAnyEvaluator(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append(persistBatch(r, 2, 80)); err != nil {
		t.Fatal(err)
	}
	st := e.ExportState()
	want := func() *Result {
		re, err := RestoreAnyEvaluator(st)
		if err != nil {
			t.Fatal(err)
		}
		return re.Result()
	}()
	// Mutate the original heavily.
	if err := e.Append(persistBatch(r, 2, 200)); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(removalIDs(r, e.Len(), 100)); err != nil {
		t.Fatal(err)
	}
	re, err := RestoreAnyEvaluator(st)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "isolation", want, re.Result())
}

// TestRestoreRejectsCorrupt drives the validation paths: a recovery
// layer handing over garbage must get an error, never a panic or a
// silently wrong evaluator.
func TestRestoreRejectsCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	anyOpt := Options{Metric: geom.L2, Eps: 1.0, Algorithm: GridIndex, Parallelism: 1}
	e, err := NewAnyEvaluator(2, anyOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append(persistBatch(r, 2, 30)); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove([]int{1, 5}); err != nil {
		t.Fatal(err)
	}
	base := e.ExportState()

	mutations := map[string]func(*AnyState){
		"ragged data":      func(s *AnyState) { s.Data = s.Data[:len(s.Data)-1] },
		"bad dims":         func(s *AnyState) { s.Dims = 0 },
		"bad eps":          func(s *AnyState) { s.Opt.Eps = -1 },
		"short uf":         func(s *AnyState) { s.UFParent = s.UFParent[:3] },
		"uf parent range":  func(s *AnyState) { s.UFParent[0] = 999 },
		"live range":       func(s *AnyState) { s.Live[0] = -2 },
		"live dup":         func(s *AnyState) { s.Live[1] = s.Live[0] },
		"live names dead":  func(s *AnyState) { s.Alive[s.Live[0]] = false },
		"dead mismatch":    func(s *AnyState) { s.Dead++ },
		"alive len":        func(s *AnyState) { s.Alive = s.Alive[:4] },
		"non-finite point": func(s *AnyState) { s.Data[0] = math.Inf(1) },
	}
	for name, mutate := range mutations {
		s := &AnyState{}
		*s = *base
		s.Data = append([]float64(nil), base.Data...)
		s.Live = append([]int32(nil), base.Live...)
		s.Alive = append([]bool(nil), base.Alive...)
		s.UFParent = append([]int32(nil), base.UFParent...)
		s.UFRank = append([]int8(nil), base.UFRank...)
		mutate(s)
		if _, err := RestoreAnyEvaluator(s); err == nil {
			t.Errorf("%s: corrupt AnyState accepted", name)
		}
	}

	allOpt := Options{Metric: geom.L2, Eps: 1.5, Overlap: Eliminate, Algorithm: GridIndex, Parallelism: 1}
	ae, err := NewAllEvaluator(2, allOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ae.Append(persistBatch(r, 2, 30)); err != nil {
		t.Fatal(err)
	}
	allBase := ae.ExportState()
	allMutations := map[string]func(*AllState){
		"member range":    func(s *AllState) { s.Groups[0][0] = 999 },
		"member twice":    func(s *AllState) { s.Groups[0] = append(s.Groups[0], s.Groups[0][0]) },
		"stage floor":     func(s *AllState) { s.StageFloor = len(s.Groups) + 1 },
		"eliminated oob":  func(s *AllState) { s.Eliminated = []int32{-1} },
		"ragged all data": func(s *AllState) { s.Data = s.Data[:len(s.Data)-1] },
	}
	for name, mutate := range allMutations {
		s := &AllState{}
		*s = *allBase
		s.Data = append([]float64(nil), allBase.Data...)
		s.Groups = make([][]int32, len(allBase.Groups))
		for i, g := range allBase.Groups {
			s.Groups[i] = append([]int32(nil), g...)
		}
		mutate(s)
		if _, err := RestoreAllEvaluator(s); err == nil {
			t.Errorf("%s: corrupt AllState accepted", name)
		}
	}
}

// TestRestoreRankKeyedJoinAny hands RestoreAllEvaluator what a
// checkpoint written before the JOIN-ANY draws were re-keyed holds: a
// state whose RandState is the rank-keyed generation's and whose groups
// are NOT the coordinate-keyed arbitration of its points (every point
// in a singleton of its own). Under JOIN-ANY the restore must notice and
// arbitrate the live points again — the grouping a one-shot run
// produces, tombstones gone; under the other clauses the PRNG is never
// consulted and the state loads as it stands. Under JOIN-ANY a
// RandState of neither generation is corrupt; the other clauses restore
// whatever seed state they were saved with.
func TestRestoreRankKeyedJoinAny(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, overlap := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
		t.Run(overlap.String(), func(t *testing.T) {
			opt := Options{Metric: geom.LInf, Eps: 1, Overlap: overlap, Algorithm: GridIndex, Seed: 11, Parallelism: 1}
			e, err := NewAllEvaluator(2, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Append(persistBatch(r, 2, 80)); err != nil {
				t.Fatal(err)
			}
			if err := e.Remove([]int{0, 5, 6, 40}); err != nil {
				t.Fatal(err)
			}
			s := e.ExportState()
			s.RandState = rankKeyedState(opt.Seed)
			if overlap == JoinAny {
				s.Groups = nil
				for _, pos := range s.Live {
					s.Groups = append(s.Groups, []int32{pos})
				}
			}
			re, err := RestoreAllEvaluator(s)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "restored", e.Result(), re.Result())
			if overlap == JoinAny && re.ExportState().Dead != 0 {
				t.Error("a re-arbitrated state kept its tombstones")
			}
			if got := re.ExportState().RandState; got != newRNG(opt.Seed).state {
				t.Errorf("restored RandState = %#x, want the coordinate-keyed %#x", got, newRNG(opt.Seed).state)
			}
			// Maintenance goes on from either kind of restore.
			batch := persistBatch(r, 2, 30)
			for _, ev := range []*AllEvaluator{e, re} {
				if err := ev.Append(batch); err != nil {
					t.Fatal(err)
				}
				if err := ev.Remove([]int{1, 2, 3}); err != nil {
					t.Fatal(err)
				}
			}
			requireSameResult(t, "after append and remove", e.Result(), re.Result())

			s.RandState += 2
			if _, err := RestoreAllEvaluator(s); (err == nil) == (overlap == JoinAny) {
				t.Errorf("a RandState of no known generation: restore error %v", err)
			}
		})
	}
}
