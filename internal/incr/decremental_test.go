package incr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// oneShotLive runs the reference one-shot operator over the surviving
// points.
func oneShotLive(t *testing.T, sem Semantics, points []geom.Point, opt core.Options) *core.Result {
	t.Helper()
	if len(points) == 0 {
		return &core.Result{}
	}
	return oneShot(t, sem, points, opt)
}

// TestDecrementalHandleEquivalence drives Incremental handles with
// randomized interleaved append/remove/window traffic and cross-checks
// every step against a from-scratch evaluation of the surviving
// points, across both operators, all ON-OVERLAP semantics, both
// metrics, and d ∈ {1, 2, 3, 5}.
func TestDecrementalHandleEquivalence(t *testing.T) {
	type semCase struct {
		sem     Semantics
		overlap core.Overlap
		name    string
	}
	semCases := []semCase{
		{All, core.JoinAny, "All-JoinAny"},
		{All, core.Eliminate, "All-Eliminate"},
		{All, core.FormNewGroup, "All-FormNewGroup"},
		{Any, core.JoinAny, "Any"},
	}
	algos := []core.Algorithm{core.GridIndex, core.OnTheFlyIndex, core.AllPairs}
	for _, metric := range []geom.Metric{geom.L2, geom.LInf} {
		for _, dims := range []int{1, 2, 3, 5} {
			for sci, sc := range semCases {
				name := fmt.Sprintf("%s/%s/d=%d", sc.name, metric, dims)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(dims)*1000 + int64(sci)*100 + int64(metric)))
					opt := core.Options{
						Metric:    metric,
						Eps:       1,
						Overlap:   sc.overlap,
						Algorithm: algos[(dims+sci)%len(algos)],
						Seed:      11,
					}
					inc, err := New(sc.sem, opt)
					if err != nil {
						t.Fatal(err)
					}
					var live []geom.Point
					for step := 0; step < 20; step++ {
						switch {
						case len(live) == 0 || rng.Intn(3) != 0:
							batch := randomPoints(rng, 10+rng.Intn(40), dims, 8)
							if err := inc.Append(batch); err != nil {
								t.Fatalf("step %d: Append: %v", step, err)
							}
							live = append(live, batch...)
						case rng.Intn(2) == 0:
							k := 1 + rng.Intn(len(live))
							ids := rng.Perm(len(live))[:k]
							if err := inc.Remove(ids); err != nil {
								t.Fatalf("step %d: Remove: %v", step, err)
							}
							dead := make(map[int]bool, k)
							for _, id := range ids {
								dead[id] = true
							}
							kept := live[:0]
							for i, p := range live {
								if !dead[i] {
									kept = append(kept, p)
								}
							}
							live = kept
						default:
							n := rng.Intn(len(live) + 1)
							evicted, err := inc.Window(n)
							if err != nil {
								t.Fatalf("step %d: Window(%d): %v", step, n, err)
							}
							if want := max(0, len(live)-n); evicted != want {
								t.Fatalf("step %d: Window(%d) evicted %d, want %d", step, n, evicted, want)
							}
							live = append([]geom.Point(nil), live[len(live)-min(n, len(live)):]...)
						}
						if inc.Len() != len(live) {
							t.Fatalf("step %d: Len = %d, want %d", step, inc.Len(), len(live))
						}
						want := oneShotLive(t, sc.sem, live, opt)
						got, err := inc.Result()
						if err != nil {
							t.Fatalf("step %d: Result: %v", step, err)
						}
						if !reflect.DeepEqual(normalize(want), normalize(got)) {
							t.Fatalf("step %d (n=%d): maintained grouping diverges\nfrom-scratch: %v elim %v\nmaintained:   %v elim %v",
								step, len(live), want.Groups, want.Eliminated, got.Groups, got.Eliminated)
						}
					}
				})
			}
		}
	}
}

// TestWindowBy pins the predicate window: points carry their arrival
// round in coordinate 0, and expiring rounds < 2 evicts exactly the
// two oldest batches.
func TestWindowBy(t *testing.T) {
	inc, err := New(Any, core.Options{Metric: geom.LInf, Eps: 0.4, Algorithm: core.GridIndex})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		batch := make([]geom.Point, 3)
		for i := range batch {
			batch[i] = geom.Point{float64(round), float64(i)}
		}
		if err := inc.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	evicted, err := inc.WindowBy(func(p geom.Point) bool { return p[0] < 2 })
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 6 || inc.Len() != 6 {
		t.Fatalf("WindowBy evicted %d (len %d), want 6 (len 6)", evicted, inc.Len())
	}
	// The prefix rule: eviction stops at the first kept point even if
	// later points match.
	evicted, err = inc.WindowBy(func(p geom.Point) bool { return p[1] == 2 })
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 0 {
		t.Fatalf("WindowBy over a non-prefix match evicted %d, want 0", evicted)
	}
	if _, err := inc.WindowBy(nil); err == nil {
		t.Fatal("want error for nil WindowBy predicate")
	}
}

// TestWindowErrors covers the window/remove validation surface.
func TestWindowErrors(t *testing.T) {
	inc, err := New(Any, core.Options{Metric: geom.L2, Eps: 1, Algorithm: core.GridIndex})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Window(-1); err == nil {
		t.Fatal("want error for negative window")
	}
	// Window on an empty handle is a no-op.
	if n, err := inc.Window(5); err != nil || n != 0 {
		t.Fatalf("Window on empty handle = %d, %v", n, err)
	}
	// Remove on an empty handle with ids fails; the empty batch is fine.
	if err := inc.Remove([]int{0}); err == nil {
		t.Fatal("want error for Remove on empty handle")
	}
	if err := inc.Remove(nil); err != nil {
		t.Fatal(err)
	}
	if err := inc.Append([]geom.Point{{0, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Remove([]int{2}); err == nil {
		t.Fatal("want error for out-of-range id")
	}
	if err := inc.Remove([]int{0, 0}); err == nil {
		t.Fatal("want error for duplicate ids")
	}
}

// TestEmptyResultWellFormed pins that Result before any successful
// append returns a well-formed empty result — never nil, never a
// panic — for both semantics, and that draining the handle via Remove
// returns it to that same well-formed empty shape.
func TestEmptyResultWellFormed(t *testing.T) {
	for _, sem := range []Semantics{All, Any} {
		inc, err := New(sem, core.Options{Metric: geom.L2, Eps: 1, Algorithm: core.GridIndex})
		if err != nil {
			t.Fatal(err)
		}
		res, err := inc.Result()
		if err != nil {
			t.Fatalf("%v: Result on fresh handle: %v", sem, err)
		}
		if res == nil || len(res.Groups) != 0 || len(res.Eliminated) != 0 {
			t.Fatalf("%v: Result on fresh handle = %+v, want well-formed empty", sem, res)
		}
		if err := inc.Append([]geom.Point{{1, 1}, {2, 2}}); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Window(0); err != nil {
			t.Fatal(err)
		}
		res, err = inc.Result()
		if err != nil || res == nil || len(res.Groups) != 0 {
			t.Fatalf("%v: Result after draining = %+v, %v; want well-formed empty", sem, res, err)
		}
	}
}

// TestAppendAfterRemoveDimsPinned is the regression that removing
// every point does not unpin the handle's dimensionality: the first
// batch fixes it for the handle's lifetime, so a differently-shaped
// batch after a full eviction must still be rejected.
func TestAppendAfterRemoveDimsPinned(t *testing.T) {
	for _, sem := range []Semantics{All, Any} {
		inc, err := New(sem, core.Options{Metric: geom.L2, Eps: 1, Algorithm: core.GridIndex})
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Append([]geom.Point{{0, 0}, {3, 3}}); err != nil {
			t.Fatal(err)
		}
		if err := inc.Remove([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if inc.Len() != 0 || inc.Dims() != 2 {
			t.Fatalf("%v: after full removal Len/Dims = %d/%d, want 0/2", sem, inc.Len(), inc.Dims())
		}
		if err := inc.AppendSet(geom.FromPoints([]geom.Point{{1, 2, 3}})); err == nil {
			t.Fatalf("%v: AppendSet with d=3 after draining a d=2 handle must fail", sem)
		}
		if err := inc.Append([]geom.Point{{5, 5}}); err != nil {
			t.Fatalf("%v: matching-dims append after draining: %v", sem, err)
		}
		if inc.Len() != 1 {
			t.Fatalf("%v: Len = %d, want 1", sem, inc.Len())
		}
	}
}
