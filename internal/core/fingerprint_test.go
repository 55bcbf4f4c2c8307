package core

import (
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// keyedUnder lists, for each Options field that Key prints, the
// groupings under which it changes what a maintained evaluator holds.
var keyedUnder = map[string]func(any bool, o Options) bool{
	"Metric": func(bool, Options) bool { return true },
	"Eps":    func(bool, Options) bool { return true },
	// SGB-Any merges overlapping groups: there is no clause to apply.
	"Overlap": func(any bool, _ Options) bool { return !any },
	// SGB-Any is maintained on the ε-grid whatever Algorithm names; the
	// SGB-All strategies arbitrate differently where a distance rounds to
	// ε (TestMaintainedKeyNeutral).
	"Algorithm": func(any bool, _ Options) bool { return !any },
	// Only JOIN-ANY draws.
	"Seed": func(any bool, o Options) bool { return !any && o.Overlap == JoinAny },
}

// groupingNeutral lists the Options fields that no grouping prints, and
// why.
var groupingNeutral = map[string]string{
	"Stats":       "a counter sink",
	"Parallelism": "groupings are bit-identical at every worker count",
}

// TestFingerprintCoversOptions perturbs every Options field in turn,
// under SGB-Any and each SGB-All clause: the key, and the options
// Maintained builds an evaluator with, must change exactly where the
// field is listed in keyedUnder. A field that is in neither list fails,
// so one added to Options and forgotten here cannot let the evaluator
// cache serve one configuration's groups to another.
func TestFingerprintCoversOptions(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		printed, keyed := keyedUnder[f.Name]
		if _, neutral := groupingNeutral[f.Name]; keyed == neutral {
			t.Errorf("Options.%s must be in exactly one of keyedUnder and groupingNeutral", f.Name)
			continue
		}
		for _, c := range []struct {
			any     bool
			overlap Overlap
		}{{true, JoinAny}, {false, JoinAny}, {false, Eliminate}, {false, FormNewGroup}} {
			base := Options{Eps: 1, Overlap: c.overlap}
			o := base
			v := reflect.ValueOf(&o).Elem().Field(i)
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 1.5)
			case reflect.Ptr:
				v.Set(reflect.New(f.Type.Elem()))
			default:
				t.Fatalf("Options.%s has kind %v: teach this test to perturb it", f.Name, v.Kind())
			}
			want := keyed && printed(c.any, base)
			if got := o.Key(c.any, "x") != base.Key(c.any, "x"); got != want {
				t.Errorf("any=%t %v: perturbing Options.%s changes the key: %t, want %t", c.any, c.overlap, f.Name, got, want)
			}
			if got := o.Maintained(c.any) != base.Maintained(c.any); got != want {
				t.Errorf("any=%t %v: perturbing Options.%s changes the maintained options: %t, want %t", c.any, c.overlap, f.Name, got, want)
			}
		}
	}
}

// maintainedSteps drives a fresh SGB-All evaluator through decoded
// trace operations and records, after each one, its Result and its
// exported state with the options and the seed state left out.
func maintainedSteps(t *testing.T, dims int, opt Options, ops []traceOp) [][2]any {
	ev, err := NewAllEvaluator(dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]any
	for i, op := range ops {
		if op.batch != nil {
			err = ev.Append(geom.FromPoints(op.batch))
		} else {
			err = ev.Remove(op.ids)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		s := ev.ExportState()
		s.Opt, s.RandState = Options{}, 0
		out = append(out, [2]any{normalizeRes(ev.Result()), *s})
	}
	return out
}

// TestMaintainedKeyNeutral pins the measurement Key rests on, over the
// decremental traces: under ELIMINATE and FORM-NEW-GROUP the seed never
// changes a maintained evaluator's result or retained state, whatever
// the strategy, so their keys hold a fixed seed. The strategy does
// change them: on the lattice-aligned traces, where L∞ distances round
// onto ε, All-Pairs (a distance per member) and the ε-grid (ε-All
// rectangles) arbitrate differently, so SGB-All keys print it. If the
// strategies ever agree there, Algorithm may leave the SGB-All key.
func TestMaintainedKeyNeutral(t *testing.T) {
	algoDiffers := false
	for _, seed := range decTraceSeeds() {
		dims, opt, ops := decodeTrace(seed.data)
		if opt.Overlap == JoinAny {
			continue
		}
		var ref [][2]any
		for _, algo := range []Algorithm{GridIndex, OnTheFlyIndex, AllPairs, BoundsCheck} {
			opt.Algorithm, opt.Seed = algo, 0
			zero := maintainedSteps(t, dims, opt, ops)
			opt.Seed = 7
			if !reflect.DeepEqual(zero, maintainedSteps(t, dims, opt, ops)) {
				t.Errorf("%s: %v: seeds 0 and 7 maintain different groupings", seed.name, algo)
			}
			if ref == nil {
				ref = zero
			} else if !reflect.DeepEqual(ref, zero) {
				algoDiffers = true
			}
		}
	}
	if !algoDiffers {
		t.Error("every strategy maintained every trace alike: Algorithm may leave the SGB-All key")
	}
}
