// The tests of this package hold the root package's Incremental handle,
// built through New (sgb.NewIncrementalAll / NewIncrementalAny) or
// sgb.NewIncrementalAnyLevels, to one-shot runs; they move to the root
// package when this one goes.
package incr

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// randomPoints draws n points uniform in [0, span)^dims.
func randomPoints(rng *rand.Rand, n, dims int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64() * span
		}
		pts[i] = p
	}
	return pts
}

// splitBatches cuts points into batches at the given cut offsets
// (strictly increasing, within (0, len)).
func splitBatches(points []geom.Point, cuts []int) [][]geom.Point {
	var batches [][]geom.Point
	prev := 0
	for _, c := range cuts {
		batches = append(batches, points[prev:c])
		prev = c
	}
	return append(batches, points[prev:])
}

// randomCuts draws k sorted distinct cut offsets in (0, n).
func randomCuts(rng *rand.Rand, n, k int) []int {
	seen := map[int]bool{}
	var cuts []int
	for len(cuts) < k && len(seen) < n-1 {
		c := 1 + rng.Intn(n-1)
		if !seen[c] {
			seen[c] = true
			cuts = append(cuts, c)
		}
	}
	for i := range cuts {
		for j := i + 1; j < len(cuts); j++ {
			if cuts[j] < cuts[i] {
				cuts[i], cuts[j] = cuts[j], cuts[i]
			}
		}
	}
	return cuts
}

// oneShot runs the reference one-shot operator over the full input.
func oneShot(t *testing.T, sem Semantics, points []geom.Point, opt core.Options) *core.Result {
	t.Helper()
	var res *core.Result
	var err error
	if sem == All {
		res, err = core.SGBAll(points, opt)
	} else {
		res, err = core.SGBAny(points, opt)
	}
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	return res
}

// incremental replays the same input through an Incremental handle in
// the given batches, reading Result after every batch (so intermediate
// materializations are exercised too) and returning the final one.
func incremental(t *testing.T, sem Semantics, batches [][]geom.Point, opt core.Options) *core.Result {
	t.Helper()
	inc, err := New(sem, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var res *core.Result
	for bi, b := range batches {
		if err := inc.Append(b); err != nil {
			t.Fatalf("Append batch %d: %v", bi, err)
		}
		if res, err = inc.Result(); err != nil {
			t.Fatalf("Result after batch %d: %v", bi, err)
		}
	}
	return res
}

// TestIncrementalEquivalence is the randomized incremental↔batch
// equivalence suite: over {L2, L∞} × every ON-OVERLAP semantics (plus
// SGB-Any) × d ∈ {1, 2, 3} × several batch splits (single batch,
// random multi-way splits, point-at-a-time), the incremental grouping
// must equal the one-shot grouping over the concatenated input —
// deep-equal groups including member order and ELIMINATE victims.
func TestIncrementalEquivalence(t *testing.T) {
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
		for dims := 1; dims <= 3; dims++ {
			for _, sc := range semCases {
				name := fmt.Sprintf("%s/%s/d=%d", sc.name, metric, dims)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(dims)*1000 + int64(sc.sem)*100 + int64(sc.overlap)*10 + int64(metric)))
					for trial := 0; trial < 4; trial++ {
						n := 60 + rng.Intn(140)
						// Span chosen so ε = 1 yields a mix of merges,
						// overlaps, and isolated points.
						points := randomPoints(rng, n, dims, 12)
						opt := core.Options{
							Metric:    metric,
							Eps:       1,
							Overlap:   sc.overlap,
							Algorithm: algos[trial%len(algos)],
							Seed:      int64(trial + 1),
						}
						want := oneShot(t, sc.sem, points, opt)

						splits := [][]int{
							nil,                     // single batch
							randomCuts(rng, n, 3),   // a few batches
							randomCuts(rng, n, n/4), // many small batches
							func() []int { // point at a time
								cuts := make([]int, n-1)
								for i := range cuts {
									cuts[i] = i + 1
								}
								return cuts
							}(),
						}
						for si, cuts := range splits {
							got := incremental(t, sc.sem, splitBatches(points, cuts), opt)
							if !reflect.DeepEqual(normalize(want), normalize(got)) {
								t.Fatalf("trial %d split %d (%v, n=%d): incremental grouping diverges\none-shot: %v elim %v\nincremental: %v elim %v",
									trial, si, opt.Algorithm, n, want.Groups, want.Eliminated, got.Groups, got.Eliminated)
							}
						}
					}
				})
			}
		}
	}
}

// normalize maps a result to a comparable shape (nil vs empty slices).
func normalize(r *core.Result) [2]any {
	groups := r.Groups
	if len(groups) == 0 {
		groups = nil
	}
	elim := r.Eliminated
	if len(elim) == 0 {
		elim = nil
	}
	return [2]any{groups, elim}
}

// TestIncrementalErrors covers what New adds to the root constructors:
// an unknown semantics fails. The handle's own validation is the root
// package's TestIncrementalHandleErrors.
func TestIncrementalErrors(t *testing.T) {
	if _, err := New(Semantics(9), core.Options{Metric: geom.L2, Eps: 1}); err == nil {
		t.Fatal("want error for unknown semantics")
	}
}

// TestRejectedBatchFixesNoDims is the regression that a first batch
// the evaluator refuses leaves the handle empty with its dimensionality
// open: the first accepted batch fixes it, whatever shape came before.
func TestRejectedBatchFixesNoDims(t *testing.T) {
	for _, sem := range []Semantics{All, Any} {
		inc, err := New(sem, core.Options{Metric: geom.L2, Eps: 1, Algorithm: core.GridIndex})
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Append([]geom.Point{{math.NaN(), 0, 0}}); err == nil {
			t.Fatalf("%v: a non-finite first batch was accepted", sem)
		}
		if inc.Dims() != 0 || inc.Len() != 0 {
			t.Fatalf("%v: after a refused first batch Dims/Len = %d/%d, want 0/0", sem, inc.Dims(), inc.Len())
		}
		if err := inc.Append([]geom.Point{{0, 0}, {0.5, 0}}); err != nil {
			t.Fatalf("%v: 2-d batch after a refused 3-d one: %v", sem, err)
		}
		res, err := inc.Result()
		if err != nil || inc.Dims() != 2 || len(res.Groups) != 1 {
			t.Fatalf("%v: Dims %d, groups %v, %v; want 2 and one group", sem, inc.Dims(), res.Groups, err)
		}
	}
}

// TestResultIsolation asserts that a materialized Result is not
// aliased by later appends (the resumable state keeps evolving).
func TestResultIsolation(t *testing.T) {
	for _, sem := range []Semantics{All, Any} {
		inc, err := New(sem, core.Options{Metric: geom.LInf, Eps: 1.5, Overlap: core.Eliminate, Algorithm: core.GridIndex})
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Append([]geom.Point{{0, 0}, {1, 1}}); err != nil {
			t.Fatal(err)
		}
		before, err := inc.Result()
		if err != nil {
			t.Fatal(err)
		}
		snapshot := fmt.Sprint(before.Groups, before.Eliminated)
		if err := inc.Append(randomPoints(rand.New(rand.NewSource(7)), 50, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(before.Groups, before.Eliminated); got != snapshot {
			t.Fatalf("%v: earlier Result mutated by later Append:\nbefore %s\nafter  %s", sem, snapshot, got)
		}
	}
}
