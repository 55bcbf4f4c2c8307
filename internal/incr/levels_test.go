package incr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// TestLevelsHandle drives an sgb.NewIncrementalAnyLevels handle through appends, a
// sliding window and added levels, holding every level it keeps — and a
// level it does not — to a one-shot sweep over the survivors, and pins
// the handle's contract: levels sorted and validated, AddLevel before
// and after the first batch, Result the top level. A handle New made
// for SGB-Any is the same shape with one level, so it adds a level below
// its top too; an SGB-All handle answers its own ε only.
func TestLevelsHandle(t *testing.T) {
	opt := core.Options{Metric: geom.L2, Algorithm: core.GridIndex}
	for _, bad := range [][]float64{nil, {0.5, 0.5}, {0.5, -1}} {
		if _, err := sgb.NewIncrementalAnyLevels(opt, bad); err == nil {
			t.Errorf("NewIncrementalAnyLevels(%v) succeeded", bad)
		}
	}
	many := make([]float64, core.MaxLevels+1)
	for i := range many {
		many[i] = 0.1 * float64(i+1)
	}
	if _, err := sgb.NewIncrementalAnyLevels(opt, many); !errors.Is(err, core.ErrTooManyLevels) {
		t.Errorf("NewIncrementalAnyLevels over %d levels: %v", len(many), err)
	}
	full, err := sgb.NewIncrementalAnyLevels(opt, many[:core.MaxLevels])
	if err != nil {
		t.Fatal(err)
	}
	if err := full.AddLevel(0.05); !errors.Is(err, core.ErrTooManyLevels) {
		t.Errorf("AddLevel past core.MaxLevels before the first batch: %v", err)
	}
	if _, err := sgb.NewIncrementalAnyLevels(core.Options{Metric: geom.L2, Algorithm: core.BoundsCheck}, []float64{0.5}); !errors.Is(err, core.ErrBoundsCheckAny) {
		t.Errorf("NewIncrementalAnyLevels under BoundsCheck: %v", err)
	}

	x, err := sgb.NewIncrementalAnyLevels(opt, []float64{0.9, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if x.Options().Eps != 0.9 || !reflect.DeepEqual(x.Levels(), []float64{0.3, 0.9}) {
		t.Fatalf("Options().Eps %v, levels %v", x.Options().Eps, x.Levels())
	}
	if err := x.AddLevel(0.6); err != nil { // before the first batch
		t.Fatal(err)
	}
	if _, err := x.GroupsAt(1.2); !errors.Is(err, core.ErrEpsAboveMax) {
		t.Fatalf("GroupsAt above the top of an empty handle: %v", err)
	}

	rng := rand.New(rand.NewSource(3400))
	var live []geom.Point
	check := func(step string) {
		t.Helper()
		levels := append(x.Levels(), 0.45) // 0.45 is not kept
		want, err := core.SweepAny(live, levels, core.Options{Metric: geom.L2, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for l, eps := range levels {
			got, err := x.GroupsAt(eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(want[l])) {
				t.Fatalf("%s: ε = %v differs from the one-shot sweep", step, eps)
			}
		}
		top, err := x.Result()
		if err != nil || !reflect.DeepEqual(normalize(top), normalize(want[len(levels)-2])) {
			t.Fatalf("%s: Result is not the top level: %v", step, err)
		}
	}
	for round := 0; round < 6; round++ {
		batch := randomPoints(rng, 80, 2, 6)
		if err := x.Append(batch); err != nil {
			t.Fatal(err)
		}
		live = append(live, batch...)
		if n, err := x.Window(150); err != nil {
			t.Fatal(err)
		} else if n > 0 {
			live = live[n:]
		}
		if round == 2 {
			if err := x.AddLevel(0.15); err != nil { // after the first batch
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	if !reflect.DeepEqual(x.Levels(), []float64{0.15, 0.3, 0.6, 0.9}) {
		t.Fatalf("levels %v", x.Levels())
	}
	if err := x.AddLevel(1.2); !errors.Is(err, core.ErrEpsAboveMax) {
		t.Fatalf("AddLevel above the top: %v", err)
	}

	single, err := New(Any, core.Options{Metric: geom.L2, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	live = nil
	for round := 0; round < 3; round++ {
		batch := randomPoints(rng, 80, 2, 6)
		if err := single.Append(batch); err != nil {
			t.Fatal(err)
		}
		live = append(live, batch...)
	}
	if n, err := single.Window(150); err != nil || n != 90 {
		t.Fatalf("Window(150) evicted %d: %v", n, err)
	}
	live = live[90:]
	if err := single.AddLevel(0.3); err != nil {
		t.Fatalf("AddLevel below the top of a single-ε handle: %v", err)
	}
	if got := single.Levels(); !reflect.DeepEqual(got, []float64{0.3, 0.5}) {
		t.Fatalf("single-ε handle levels after AddLevel: %v", got)
	}
	want, err := core.SweepAny(live, single.Levels(), core.Options{Metric: geom.L2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for l, eps := range single.Levels() {
		got, err := single.GroupsAt(eps)
		if err != nil || !reflect.DeepEqual(normalize(got), normalize(want[l])) {
			t.Fatalf("single-ε handle at ε = %v differs from the one-shot sweep: %v", eps, err)
		}
	}
	if err := single.AddLevel(0.7); !errors.Is(err, core.ErrEpsAboveMax) {
		t.Errorf("AddLevel above the top of a single-ε handle: %v", err)
	}

	all, err := New(All, core.Options{Metric: geom.L2, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := all.AddLevel(0.3); err == nil {
		t.Error("AddLevel on an SGB-All handle succeeded")
	}
	if _, err := all.GroupsAt(0.3); err == nil {
		t.Error("GroupsAt at another ε on an SGB-All handle succeeded")
	}
	if got := all.Levels(); !reflect.DeepEqual(got, []float64{0.5}) {
		t.Errorf("SGB-All handle levels %v", got)
	}
}
