package core

import (
	"errors"
	"math"
	"reflect"
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
