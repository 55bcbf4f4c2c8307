package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// keyedUnder lists, for each Options field that Key prints, the
// groupings under which it changes what a maintained evaluator holds.
var keyedUnder = map[string]func(any bool, o Options) bool{
	"Metric": func(bool, Options) bool { return true },
	// One SGB-Any evaluator keeps its components at every ε asked of it:
	// ε is a level read off the entry, not part of its key.
	"Eps": func(any bool, _ Options) bool { return !any },
	// SGB-Any merges overlapping groups: there is no clause to apply.
	"Overlap": func(any bool, _ Options) bool { return !any },
	// Only JOIN-ANY draws.
	"Seed": func(any bool, o Options) bool { return !any && o.Overlap == JoinAny },
}

// groupingNeutral lists the Options fields that no grouping prints, and
// why.
var groupingNeutral = map[string]string{
	"Stats":       "a counter sink",
	"Parallelism": "groupings are bit-identical at every worker count",
	"Algorithm": "every strategy groups alike, ε-ties included (TestMaintainedKeyNeutral): " +
		"both operators are maintained on the ε-grid",
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
// retained state (retainedOf).
func maintainedSteps(t *testing.T, dims int, opt Options, ops []traceOp) [][2]any {
	ev, err := NewAllEvaluator(opt)
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
		out = append(out, [2]any{normalizeRes(ev.Result()), retainedOf(ev)})
	}
	return out
}

// TestRTreeAgreesWithGridAtEpsTies: on the lattice-aligned traces, where
// distances land on ε or round just past it, the R-tree finder answers
// as the ε-grid does after every operation — one-shot over the
// survivors, and maintained, retained state included. Its window query
// is padded as the grid's probe is (geom.PaddedReach);
// TestFindersAgreeOnRoundedChains has a chain an unpadded one misses.
func TestRTreeAgreesWithGridAtEpsTies(t *testing.T) {
	traces := 0
	for _, seed := range decTraceSeeds() {
		if !strings.HasPrefix(seed.name, "lattice/") {
			continue
		}
		traces++
		dims, opt, ops := decodeTrace(seed.data)
		gridOpt, rtreeOpt := opt, opt
		gridOpt.Algorithm, rtreeOpt.Algorithm = GridIndex, OnTheFlyIndex
		grid := maintainedSteps(t, dims, gridOpt, ops)
		rtree := maintainedSteps(t, dims, rtreeOpt, ops)
		mirror := &mirrorSet{}
		oneShot, maintained := 0, 0
		for i, op := range ops {
			if op.batch != nil {
				mirror.appendBatch(op.batch)
			} else {
				mirror.remove(op.ids)
			}
			ps := geom.FromPoints(mirror.pts)
			want, err := SGBAllSet(ps, gridOpt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SGBAllSet(ps, rtreeOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeRes(want), normalizeRes(got)) {
				oneShot++
			}
			if !reflect.DeepEqual(grid[i], rtree[i]) {
				maintained++
			}
		}
		if oneShot+maintained > 0 {
			t.Errorf("%s: the R-tree differs from the grid at %d one-shot and %d maintained steps of %d", seed.name, oneShot, maintained, len(ops))
		}
	}
	if traces == 0 {
		t.Fatal("no lattice-aligned trace")
	}
}

// TestMaintainedKeyNeutral pins the measurement Key rests on, over the
// decremental traces, the lattice-aligned ones under both metrics among
// them: every strategy maintains every trace as the ε-grid does, result
// and retained state after every operation (All-Pairs tests each member
// by DistKey ≤ EpsKey, the rectangle finders the member MBR in classify,
// which under L∞ is the same test and under L2 is refined by the key),
// so SGB-All keys hold no strategy and a maintained SGB-All grouping
// runs the grid; and under ELIMINATE and FORM-NEW-GROUP the seed never
// changes either, so their keys hold a fixed seed.
func TestMaintainedKeyNeutral(t *testing.T) {
	for _, seed := range decTraceSeeds() {
		dims, opt, ops := decodeTrace(seed.data)
		var ref [][2]any
		for _, algo := range []Algorithm{GridIndex, OnTheFlyIndex, AllPairs, BoundsCheck} {
			opt.Algorithm = algo
			steps := maintainedSteps(t, dims, opt, ops)
			if ref == nil {
				ref = steps
			} else if !reflect.DeepEqual(ref, steps) {
				t.Errorf("%s: %v maintains differently from the grid", seed.name, algo)
			}
			if opt.Overlap == JoinAny {
				continue
			}
			seeded := opt
			seeded.Seed = opt.Seed + 7
			if !reflect.DeepEqual(steps, maintainedSteps(t, dims, seeded, ops)) {
				t.Errorf("%s: %v: seeds %d and %d maintain different groupings", seed.name, algo, opt.Seed, seeded.Seed)
			}
		}
	}
}
