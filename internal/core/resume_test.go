package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// maintained is the method set both maintained evaluators share, the
// one the SQL engine's cache and the incremental handle call.
type maintained interface {
	Options() Options
	Levels() []float64
	AddLevel(eps float64) error
	GroupsAt(eps float64) (*Result, error)
	Dims() int
	Len() int
	Append(ps *geom.PointSet) error
	Remove(ids []int) error
	Result() *Result
}

// TestEvaluatorContract pins what NewAllEvaluator and NewAnyLevels
// promise before, between and after batches: an empty evaluator has no
// dimensionality, an empty grouping at its top and refuses ids; a
// rejected batch fixes nothing; the first accepted batch fixes the
// dimensionality, and removing every point does not unpin it. SGB-All
// keeps its own ε only, and NewAnyLevels refuses Bounds-Checking.
func TestEvaluatorContract(t *testing.T) {
	opt := Options{Metric: geom.L2, Eps: 1, Algorithm: GridIndex}
	for _, c := range []struct {
		name   string
		levels []float64
		make   func() (maintained, error)
	}{
		{"All", []float64{1}, func() (maintained, error) { return NewAllEvaluator(opt) }},
		{"Any", []float64{0.5, 1}, func() (maintained, error) { return NewAnyLevels([]float64{1, 0.5}, opt) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ev, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			if got := ev.Levels(); !reflect.DeepEqual(got, c.levels) || ev.Options().Eps != 1 {
				t.Fatalf("levels %v, Options().Eps %v", got, ev.Options().Eps)
			}
			empty := func(step string) {
				t.Helper()
				if ev.Dims() != 0 || ev.Len() != 0 {
					t.Fatalf("%s: Dims/Len = %d/%d, want 0/0", step, ev.Dims(), ev.Len())
				}
				if res := ev.Result(); res == nil || len(res.Groups) != 0 || len(res.Eliminated) != 0 {
					t.Fatalf("%s: Result = %+v, want a well-formed empty grouping", step, res)
				}
				if res, err := ev.GroupsAt(1); err != nil || res == nil || len(res.Groups) != 0 {
					t.Fatalf("%s: GroupsAt(top) = %+v, %v", step, res, err)
				}
			}
			empty("fresh")
			if err := ev.Remove([]int{0}); err == nil {
				t.Fatal("Remove of id 0 from an empty evaluator succeeded")
			}
			empty("after a refused Remove")
			if err := ev.Append(geom.FromPoints([]geom.Point{{math.NaN(), 0, 0}})); err == nil {
				t.Fatal("a non-finite batch was accepted")
			}
			empty("after a refused batch")

			if err := ev.Append(geom.FromPoints([]geom.Point{{0, 0}, {3, 3}})); err != nil {
				t.Fatal(err)
			}
			if err := ev.Remove([]int{0, 1}); err != nil {
				t.Fatal(err)
			}
			if ev.Len() != 0 || ev.Dims() != 2 {
				t.Fatalf("after removing every point Len/Dims = %d/%d, want 0/2", ev.Len(), ev.Dims())
			}
			if err := ev.Append(geom.FromPoints([]geom.Point{{1, 2, 3}})); err == nil {
				t.Fatal("a 3-d batch was accepted after a 2-d evaluator drained")
			}
			if err := ev.Append(geom.FromPoints([]geom.Point{{5, 5}})); err != nil {
				t.Fatalf("matching-dims append after draining: %v", err)
			}
			if ev.Len() != 1 || len(ev.Result().Groups) != 1 {
				t.Fatalf("Len = %d, groups %v; want one point in one group", ev.Len(), ev.Result().Groups)
			}
		})
	}

	all, err := NewAllEvaluator(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := all.AddLevel(0.5); err == nil {
		t.Error("AddLevel on an SGB-All evaluator succeeded")
	}
	if _, err := all.GroupsAt(0.5); err == nil {
		t.Error("GroupsAt at another ε on an SGB-All evaluator succeeded")
	}
	bounds := opt
	bounds.Algorithm = BoundsCheck
	if _, err := NewAnyLevels([]float64{1}, bounds); !errors.Is(err, ErrBoundsCheckAny) {
		t.Errorf("NewAnyLevels under BoundsCheck: %v", err)
	}
}

// TestFormNewGroupIsSGBAllOnDeferred pins FORM-NEW-GROUP's end-of-input
// recursion as SGB-All run again on S′ alone. For every finder and
// metric at three ε over the golden sample, an AllEvaluator fed the
// points in batches answers its retained groups followed by a one-shot
// FORM-NEW-GROUP run over the points of its deferred list, gathered in
// that order, ids mapped back — and that is the one-shot answer over
// every point. Result runs the recursion on a state of its own: two
// calls leave the retained groups, placements, member lists and
// deferred list as they were.
func TestFormNewGroupIsSGBAllOnDeferred(t *testing.T) {
	ps := goldenSample(3000, 2)
	for _, alg := range allAlgorithms {
		for _, m := range allMetrics {
			for _, eps := range []float64{0.05, 0.2, 0.8} {
				opt := Options{Metric: m, Eps: eps, Overlap: FormNewGroup, Algorithm: alg, Seed: 3}
				name := fmt.Sprintf("%v/%v/eps=%v", alg, m, eps)
				ev, err := NewAllEvaluator(opt)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < ps.Len(); k += 700 {
					if err := ev.Append(ps.Slice(k, min(k+700, ps.Len()))); err != nil {
						t.Fatal(err)
					}
				}
				before := retainedOf(ev)
				st := ev.st
				placed, next, order := slices.Clone(st.pointGroup), slices.Clone(st.next), slices.Clone(st.order)
				if len(before.Deferred) == 0 {
					t.Fatalf("%s: nothing deferred, the recursion is not exercised", name)
				}

				rest, err := SGBAllSet(ps.Gather(before.Deferred), opt)
				if err != nil {
					t.Fatal(err)
				}
				want := slices.Clone(before.Groups)
				for _, g := range rest.Groups {
					mapped := make([]int32, len(g.Members))
					for i, k := range g.Members {
						mapped[i] = before.Deferred[k]
					}
					want = append(want, mapped)
				}
				oneShot, err := SGBAllSet(ps, opt)
				if err != nil {
					t.Fatal(err)
				}
				for call := 1; call <= 2; call++ {
					res := ev.Result()
					var got [][]int32
					for _, g := range res.Groups {
						got = append(got, g.Members)
					}
					if !reflect.DeepEqual(got, want) || len(res.Eliminated) != 0 {
						t.Fatalf("%s, call %d: Result is not the retained groups then SGB-All on S′\n got %v\nwant %v", name, call, got, want)
					}
					if !reflect.DeepEqual(normalizeRes(res), normalizeRes(oneShot)) {
						t.Fatalf("%s, call %d: Result differs from the one-shot run", name, call)
					}
				}
				if !reflect.DeepEqual(retainedOf(ev), before) || !slices.Equal(st.pointGroup, placed) ||
					!slices.Equal(st.next, next) || !slices.Equal(st.order, order) {
					t.Fatalf("%s: Result changed the retained state", name)
				}
			}
		}
	}
}
