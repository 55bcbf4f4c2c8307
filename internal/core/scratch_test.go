package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// scratchPoints returns n points in d dimensions, half of them in tight
// clusters (groups past the hull's member-scan threshold, overlaps
// between neighbouring clusters) and half uniform over a box of side 20.
func scratchPoints(seed int64, n, d int) *geom.PointSet {
	r := rand.New(rand.NewSource(seed))
	ps := geom.NewPointSetCap(d, n)
	centers := make([][]float64, max(n/40, 1))
	for i := range centers {
		centers[i] = make([]float64, d)
		for k := range centers[i] {
			centers[i][k] = r.Float64() * 20
		}
	}
	for i := 0; i < n; i++ {
		q := ps.Extend()
		c := centers[r.Intn(len(centers))]
		for k := range q {
			if i%2 == 0 {
				q[k] = c[k] + r.NormFloat64()*0.4
			} else {
				q[k] = r.Float64() * 20
			}
		}
	}
	return ps
}

// passCase is one statement whose pass takes a pass scratch: its name,
// and a run returning its answers and the work it counted.
type passCase struct {
	name string
	run  func() ([]*Result, Stats, error)
}

// passCases lists the one-shot statements over n points in d
// dimensions: SGB-All under every finder (All-Pairs on small inputs
// only), clause and metric, SGB-Any at one ε, and an EPS IN sweep on one
// worker and on several.
func passCases(seed int64, n, d int) []passCase {
	ps := scratchPoints(seed, n, d)
	eps := map[int]float64{2: 1, 3: 1.4, 5: 2.5}[d]
	var cases []passCase
	add := func(name string, run func(opt Options) ([]*Result, error), opt Options) {
		cases = append(cases, passCase{
			name: fmt.Sprintf("n=%d/d=%d/%s", n, d, name),
			run: func() ([]*Result, Stats, error) {
				var st Stats
				opt.Stats = &st
				res, err := run(opt)
				return res, st, err
			},
		})
	}
	all := func(opt Options) ([]*Result, error) {
		res, err := SGBAllSet(ps, opt)
		return []*Result{res}, err
	}
	for _, alg := range []Algorithm{GridIndex, BoundsCheck, OnTheFlyIndex, AllPairs} {
		if alg == AllPairs && n > 500 {
			continue
		}
		for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
			for _, m := range []geom.Metric{geom.L2, geom.LInf} {
				opt := Options{Metric: m, Eps: eps, Overlap: ov, Algorithm: alg, Seed: seed}
				add(fmt.Sprintf("all/%v/%v/%v", alg, ov, m), all, opt)
			}
		}
	}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		add(fmt.Sprintf("any/%v", m), func(opt Options) ([]*Result, error) {
			res, err := SGBAnySet(ps, opt)
			return []*Result{res}, err
		}, Options{Metric: m, Eps: eps, Algorithm: GridIndex})
	}
	for _, par := range []int{1, 3} {
		add(fmt.Sprintf("sweep/par=%d", par), func(opt Options) ([]*Result, error) {
			return SweepAnySet(ps, []float64{eps / 4, eps / 2, eps, 2 * eps}, opt)
		}, Options{Metric: geom.L2, Eps: eps, Algorithm: GridIndex, Parallelism: par})
	}
	return cases
}

// passOutcome is what one run of a passCase returned.
type passOutcome struct {
	res   []*Result
	stats Stats
}

// TestPassScratchReuse holds every statement that takes a pass scratch
// (passScratch) to a run on fresh scratch: run back to back on one
// goroutine at changing n and d, so each one takes the scratch the one
// before it left with other sizes, dimensionalities and counts in it,
// and then from four goroutines at once. Answers (groups, member order,
// Eliminated) and Stats must equal the fresh run's.
func TestPassScratchReuse(t *testing.T) {
	shapes := []struct {
		n, d int
	}{{1500, 2}, {200, 3}, {900, 5}, {60, 2}, {1200, 3}, {400, 5}, {700, 2}}
	var cases []passCase
	for i, sh := range shapes {
		cases = append(cases, passCases(int64(100+i), sh.n, sh.d)...)
	}
	want := make([]passOutcome, len(cases))
	for i, c := range cases {
		// Two collections empty the pool: the run takes a new scratch.
		runtime.GC()
		runtime.GC()
		res, st, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = passOutcome{res, st}
	}
	check := func(i int) {
		c := cases[i]
		res, st, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			return
		}
		if len(res) != len(want[i].res) {
			t.Errorf("%s: %d results, fresh scratch gave %d", c.name, len(res), len(want[i].res))
			return
		}
		for l, r := range res {
			w := want[i].res[l]
			if !reflect.DeepEqual(r.Groups, w.Groups) || !reflect.DeepEqual(r.Eliminated, w.Eliminated) {
				t.Errorf("%s: answer %d differs from the fresh scratch's (%d vs %d groups, %d vs %d eliminated)",
					c.name, l, len(r.Groups), len(w.Groups), len(r.Eliminated), len(w.Eliminated))
			}
		}
		if st != want[i].stats {
			t.Errorf("%s: stats %+v, fresh scratch gave %+v", c.name, st, want[i].stats)
		}
	}
	for i := range cases {
		check(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cases {
				check((k + w*len(cases)/4) % len(cases))
			}
		}(w)
	}
	wg.Wait()
}

// TestOneShotAllAllocs pins what a one-shot SGB-All statement allocates
// once the pass scratch is warm: its answer — the Result, its Groups,
// the member run and its ends, Eliminated — and a few small values,
// whatever the number of groups. At n = 4 000 and 16 000 Brightkite
// check-ins the groups number in the thousands, and a group or a member
// list allocating anything would show here. The race detector drops
// pooled scratch at random, so the count is not pinned under it.
func TestOneShotAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const limit = 8 // allocations per statement, at either size
	for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
		groups := map[int]int{}
		for _, n := range []int{4000, 16000} {
			ps := goldenSample(n, 2)
			opt := Options{Metric: geom.L2, Eps: 0.05, Overlap: ov, Algorithm: GridIndex}
			var res *Result
			allocs := testing.AllocsPerRun(5, func() {
				var err error
				if res, err = SGBAllSet(ps, opt); err != nil {
					t.Fatal(err)
				}
			})
			groups[n] = res.NumGroups()
			t.Logf("%v n=%d: %d groups, %d eliminated, %.0f allocations", ov, n, res.NumGroups(), len(res.Eliminated), allocs)
			if allocs > limit {
				t.Errorf("%v n=%d: %.0f allocations per statement, want at most %d", ov, n, allocs, limit)
			}
		}
		if groups[16000] < 2*groups[4000] {
			t.Fatalf("%v: %d groups at n=16000 against %d at n=4000: the sizes do not test growth", ov, groups[16000], groups[4000])
		}
	}
}
