package incr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// TestLevelsHandle drives a NewLevels handle through appends, a
// sliding window and added levels, holding every level it keeps — and a
// level it does not — to a one-shot sweep over the survivors, and pins
// the handle's contract: levels sorted and validated, AddLevel before
// and after the first batch, Result the top level, no export format,
// and single-ε handles answering their own ε only.
func TestLevelsHandle(t *testing.T) {
	opt := core.Options{Metric: geom.L2, Algorithm: core.GridIndex}
	for _, bad := range [][]float64{nil, {0.5, 0.5}, {0.5, -1}} {
		if _, err := NewLevels(opt, bad); err == nil {
			t.Errorf("NewLevels(%v) succeeded", bad)
		}
	}
	if _, err := NewLevels(opt, make([]float64, MaxLevels+1)); err == nil {
		t.Error("NewLevels accepted more than MaxLevels levels")
	}
	if _, err := NewLevels(core.Options{Metric: geom.L2, Algorithm: core.BoundsCheck}, []float64{0.5}); !errors.Is(err, core.ErrBoundsCheckAny) {
		t.Errorf("NewLevels under BoundsCheck: %v", err)
	}

	x, err := NewLevels(opt, []float64{0.9, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if x.Opt.Eps != 0.9 || !reflect.DeepEqual(x.Levels(), []float64{0.3, 0.9}) {
		t.Fatalf("Opt.Eps %v, levels %v", x.Opt.Eps, x.Levels())
	}
	if err := x.AddLevel(0.6); err != nil { // before the first batch
		t.Fatal(err)
	}
	if _, err := x.GroupsAt(1.2); !errors.Is(err, core.ErrEpsAboveMax) {
		t.Fatalf("GroupsAt above the top of an empty handle: %v", err)
	}
	if _, err := x.ExportState(); !errors.Is(err, ErrNoExportFormat) {
		t.Fatalf("ExportState of a levels handle: %v", err)
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
	if err := single.AddLevel(0.3); err == nil {
		t.Error("AddLevel on a single-ε handle succeeded")
	}
	if _, err := single.GroupsAt(0.3); err == nil {
		t.Error("GroupsAt at another ε on a single-ε handle succeeded")
	}
	if got := single.Levels(); !reflect.DeepEqual(got, []float64{0.5}) {
		t.Errorf("single-ε handle levels %v", got)
	}
}
