package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// TestExample2SGBAny reproduces the paper's Example 2: a5 bridges
// g1{a1,a2} and g2{a3,a4}, merging everything into one group of 5.
func TestExample2SGBAny(t *testing.T) {
	for _, alg := range []Algorithm{AllPairs, OnTheFlyIndex, GridIndex} {
		res, err := SGBAny(figure2Points(), Options{Metric: geom.LInf, Eps: 3, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.NumGroups() != 1 || len(res.Groups[0].Members) != 5 {
			t.Errorf("%v: groups = %v, want one group of 5", alg, res.Groups)
		}
	}
}

// TestFigure1bChain verifies the chain semantics of Figure 1b: points
// connected transitively through ≤ε hops form a single group even when
// the endpoints are far apart.
func TestFigure1bChain(t *testing.T) {
	var points []geom.Point
	for i := 0; i < 10; i++ {
		points = append(points, geom.Point{float64(i) * 2.9, 0})
	}
	points = append(points, geom.Point{100, 100}) // isolated
	for _, alg := range []Algorithm{AllPairs, OnTheFlyIndex, GridIndex} {
		res, err := SGBAny(points, Options{Metric: geom.L2, Eps: 3, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumGroups() != 2 {
			t.Fatalf("%v: %d groups, want 2", alg, res.NumGroups())
		}
		sizes := sortedSizes(res)
		if !equalIntSlices(sizes, []int{1, 10}) {
			t.Fatalf("%v: sizes = %v", alg, sizes)
		}
	}
}

// TestSGBAnyMatchesConnectedComponents is the defining property:
// SGB-Any must compute exactly the connected components of the
// ε-similarity graph, for both algorithms and metrics, on random and
// clustered data.
func TestSGBAnyMatchesConnectedComponents(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		var points []geom.Point
		if trial%2 == 0 {
			points = randomPoints(r, 20+r.Intn(200), 2, 12)
		} else {
			points = clusteredPoints(r, 20+r.Intn(200), 5, 12, 0.5)
		}
		eps := 0.2 + r.Float64()*1.2
		for _, m := range allMetrics {
			want := ConnectedComponents(points, m, eps)
			for _, alg := range []Algorithm{AllPairs, OnTheFlyIndex, GridIndex} {
				res, err := SGBAny(points, Options{Metric: m, Eps: eps, Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				if !SameGrouping(res.Groups, want) {
					t.Fatalf("trial %d %v/%v: partition mismatch", trial, m, alg)
				}
			}
		}
	}
}

// TestSGBAnyOrderInvariance: unlike SGB-All, the SGB-Any partition is
// independent of input order (connected components are order-free).
func TestSGBAnyOrderInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	base := clusteredPoints(r, 150, 4, 8, 0.4)
	ref, err := SGBAny(base, Options{Metric: geom.L2, Eps: 0.7, Algorithm: OnTheFlyIndex})
	if err != nil {
		t.Fatal(err)
	}
	// Build the reference partition keyed by point identity.
	type key [2]float64
	refPart := make(map[key]int)
	for gi, g := range ref.Groups {
		for _, m := range g.Members {
			refPart[key{base[m][0], base[m][1]}] = gi
		}
	}
	for shuffle := 0; shuffle < 5; shuffle++ {
		perm := r.Perm(len(base))
		shuffled := make([]geom.Point, len(base))
		for i, p := range perm {
			shuffled[i] = base[p]
		}
		res, err := SGBAny(shuffled, Options{Metric: geom.L2, Eps: 0.7, Algorithm: OnTheFlyIndex})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumGroups() != ref.NumGroups() {
			t.Fatalf("shuffle %d: %d groups, want %d", shuffle, res.NumGroups(), ref.NumGroups())
		}
		// Same-group relation must be preserved.
		groupOf := make(map[key]int)
		for gi, g := range res.Groups {
			for _, m := range g.Members {
				groupOf[key{shuffled[m][0], shuffled[m][1]}] = gi
			}
		}
		seenPairs := make(map[[2]int]bool)
		for k1, g1 := range refPart {
			for k2, g2 := range refPart {
				same := g1 == g2
				if (groupOf[k1] == groupOf[k2]) != same {
					t.Fatalf("shuffle %d: pair grouping flipped", shuffle)
				}
				_ = seenPairs
			}
		}
	}
}

// TestSGBAnyQuickProperty uses testing/quick to fuzz point sets: the
// indexed result always matches brute-force components.
func TestSGBAnyQuickProperty(t *testing.T) {
	f := func(raw []float64, epsRaw float64) bool {
		if len(raw) < 4 {
			return true
		}
		if len(raw) > 160 {
			raw = raw[:160]
		}
		eps := 0.1 + mod1(epsRaw)*2
		var points []geom.Point
		for i := 0; i+1 < len(raw); i += 2 {
			points = append(points, geom.Point{mod1(raw[i]) * 10, mod1(raw[i+1]) * 10})
		}
		res, err := SGBAny(points, Options{Metric: geom.L2, Eps: eps, Algorithm: OnTheFlyIndex})
		if err != nil {
			return false
		}
		return SameGrouping(res.Groups, ConnectedComponents(points, geom.L2, eps))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// mod1 maps any float (including NaN/Inf) into [0,1).
func mod1(x float64) float64 {
	if x != x || x > 1e300 || x < -1e300 { // NaN or huge
		return 0.5
	}
	if x < 0 {
		x = -x
	}
	return x - float64(int64(x))
}

func TestSGBAnyRejectsBoundsCheck(t *testing.T) {
	_, err := SGBAny([]geom.Point{{0, 0}}, Options{Metric: geom.L2, Eps: 1, Algorithm: BoundsCheck})
	if err == nil {
		t.Fatal("SGB-Any accepted the Bounds-Checking strategy")
	}
}

func TestSGBAnyEmptyAndSingle(t *testing.T) {
	res, err := SGBAny(nil, Options{Metric: geom.L2, Eps: 1})
	if err != nil || res.NumGroups() != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	res, err = SGBAny([]geom.Point{{5, 5}}, Options{Metric: geom.L2, Eps: 1, Algorithm: OnTheFlyIndex})
	if err != nil || res.NumGroups() != 1 {
		t.Fatalf("single: %v %v", res, err)
	}
}

// TestSGBAnyMergeStats pins each finder's Stats at one level and at
// three: merges equal Σ_l (n − sets_l) (each union joins two sets of one
// level); All-Pairs computes every one of the n(n−1)/2 distances and
// keeps no index, the R-tree probes and registers each point once, and
// the grid registers and probes from each occupied cell once per level
// (checkGridWork) and keys fewer pairs than a per-point probe collects.
func TestSGBAnyMergeStats(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	points := clusteredPoints(r, 500, 6, 10, 0.4)
	n := int64(len(points))
	for _, levels := range [][]float64{{0.6}, {0.2, 0.4, 0.6}} {
		for _, tc := range []struct {
			alg           Algorithm
			probes, dists int64 // -1: not pinned
		}{
			{AllPairs, 0, n * (n - 1) / 2},
			{OnTheFlyIndex, n, -1},
			{GridIndex, -1, -1},
		} {
			what := fmt.Sprintf("%v %d levels", tc.alg, len(levels))
			st := &Stats{}
			got, err := SweepAny(points, levels, Options{Metric: geom.LInf, Algorithm: tc.alg, Parallelism: 1, Stats: st})
			if err != nil {
				t.Fatal(err)
			}
			checkMerges(t, what, len(points), got, st)
			if tc.alg == GridIndex {
				checkGridWork(t, what, geom.FromPoints(points), geom.LInf, levels, 1, st)
				if probed := pointJoinKeys(geom.FromPoints(points), geom.LInf, levels); st.DistanceComputations >= probed {
					t.Fatalf("%s: %d keys, the per-point probe keys %d", what, st.DistanceComputations, probed)
				}
			} else if st.IndexProbes != tc.probes || st.IndexUpdates != tc.probes {
				t.Fatalf("%s: %d probes and %d updates, want %d of each", what, st.IndexProbes, st.IndexUpdates, tc.probes)
			}
			if tc.dists >= 0 && st.DistanceComputations != tc.dists {
				t.Fatalf("%s: %d distance computations, want %d", what, st.DistanceComputations, tc.dists)
			}
		}
	}
}

// perGroupAppend is the extraction groupsFromUF replaced: one Members
// slice per group, grown by append.
func perGroupAppend(uf *unionfind.UF, live []int32) []Group {
	if live == nil {
		live = make([]int32, uf.Len())
		for i := range live {
			live[i] = int32(i)
		}
	}
	slot := map[int]int{}
	var groups []Group
	for o, pos := range live {
		r := uf.Find(int(pos))
		s, ok := slot[r]
		if !ok {
			s = len(groups)
			slot[r] = s
			groups = append(groups, Group{})
		}
		groups[s].Members = append(groups[s].Members, int32(o))
	}
	return groups
}

// checkIndependent requires res's Groups to be, in order, the windows
// of its layout, each capped at its own end, and an empty grouping to be
// the zero Result; then it appends to each group's Members in turn and
// requires every other group to read as before.
func checkIndependent(t *testing.T, what string, res *Result) {
	t.Helper()
	if len(res.Groups) == 0 {
		if !reflect.DeepEqual(res, &Result{Eliminated: res.Eliminated}) {
			t.Fatalf("%s: an empty grouping is not the zero Result: %#v", what, res)
		}
		return
	}
	members, ends := res.Layout()
	if len(ends) != len(res.Groups) || int(ends[len(ends)-1]) != len(members) {
		t.Fatalf("%s: %d groups over a layout of %d ends and %d members", what, len(res.Groups), len(ends), len(members))
	}
	groups := res.Groups
	start := int32(0)
	for i, g := range groups {
		end := ends[i]
		if len(g.Members) != int(end-start) || cap(g.Members) != len(g.Members) || &g.Members[0] != &members[start] {
			t.Fatalf("%s: group %d (len %d, cap %d) is not the capped window [%d:%d] of the layout", what, i, len(g.Members), cap(g.Members), start, end)
		}
		start = end
	}
	want := make([][]int32, len(groups))
	for i, g := range groups {
		want[i] = append([]int32(nil), g.Members...)
	}
	for i := range groups {
		groups[i].Members = append(groups[i].Members, -1)
		for j, g := range groups {
			if j != i && !reflect.DeepEqual(g.Members, want[j]) {
				t.Fatalf("%s: appending to group %d changed group %d: %v, was %v", what, i, j, g.Members, want[j])
			}
		}
		groups[i].Members = groups[i].Members[:len(want[i])]
	}
}

// TestAnyResultGroupsIndependent: groupsFromUF's counting extraction
// answers exactly what the per-group-append one did — group order and
// member order — over random Union-Find traces read in full, through a
// surviving subset (removals) and through a permutation, and over real
// evaluations: the one-shot operator over a permuted input (a seeded
// shuffle) and a maintained evaluator under appends and removals.
// Its groups share one backing array, yet appending to one group's
// Members leaves its neighbours intact.
func TestAnyResultGroupsIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(80)
		uf := unionfind.New(n)
		for k := r.Intn(n + 1); k > 0; k-- {
			uf.Union(r.Intn(n), r.Intn(n))
		}
		var subset []int32
		for i := 0; i < n; i++ {
			if r.Intn(3) > 0 {
				subset = append(subset, int32(i))
			}
		}
		perm := r.Perm(n)
		inv := make([]int32, n)
		for i, p := range perm {
			inv[i] = int32(p)
		}
		for _, c := range []struct {
			name string
			live []int32
		}{{"every position", nil}, {"survivors", subset}, {"permuted", inv}} {
			got, want := groupsFromUF(uf, c.live), perGroupAppend(uf, c.live)
			if !reflect.DeepEqual(got.Groups, want) {
				t.Fatalf("trial %d, %s: %v, want %v", trial, c.name, got, want)
			}
			checkIndependent(t, c.name, got)
		}
	}

	pts := geom.FromPoints(randomPoints(r, 600, 2, 20))
	opt := Options{Metric: geom.L2, Eps: 0.6, Algorithm: GridIndex, Parallelism: 1}
	perm := make([]int32, pts.Len())
	for k, i := range rand.New(rand.NewSource(29)).Perm(pts.Len()) {
		perm[k] = int32(i)
	}
	eval := pts.Gather(perm)
	f := newAnyForests([]float64{opt.Metric.EpsKey(opt.Eps)}, eval.Len())
	sgbAnyLocal(eval, opt, f)
	inv := make([]int32, len(perm))
	for pos, orig := range perm {
		inv[orig] = int32(pos)
	}
	res, err := SGBAnySet(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := perGroupAppend(f.ufs[0], inv); !reflect.DeepEqual(res.Groups, want) {
		t.Fatal("one-shot run over a permuted input: groups differ from the per-group-append extraction")
	}
	checkIndependent(t, "one-shot", res)

	e, err := NewAnyLevels([]float64{opt.Eps}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		if step%3 == 2 {
			var ids []int
			for i := 0; i < e.Len(); i++ {
				if r.Intn(4) == 0 {
					ids = append(ids, i)
				}
			}
			if err := e.Remove(ids); err != nil {
				t.Fatal(err)
			}
		} else if err := e.Append(geom.FromPoints(randomPoints(r, 80, 2, 10))); err != nil {
			t.Fatal(err)
		}
		got := e.Result()
		if want := perGroupAppend(e.f.ufs[0], e.live); !reflect.DeepEqual(got.Groups, want) {
			t.Fatalf("maintained, step %d: groups differ from the per-group-append extraction", step)
		}
		checkIndependent(t, "maintained", got)
	}
}

// TestResultLayout: every producer of a Result — one-shot and
// maintained, both operators — lays its groups out as windows of one
// member run (Layout), in order, each capped at its own end, and reports
// an empty grouping as the zero Result.
func TestResultLayout(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	pts := geom.FromPoints(randomPoints(r, 400, 2, 12))
	empty := geom.NewPointSet(2)
	check := func(what string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(res.Groups) == 0 {
			t.Fatalf("%s: no group to check", what)
		}
		checkIndependent(t, what, res)
	}
	zero := func(what string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !reflect.DeepEqual(res, &Result{}) {
			t.Fatalf("%s: the empty grouping is %#v, not the zero Result", what, res)
		}
	}

	anyOpt := Options{Metric: geom.L2, Eps: 0.5, Algorithm: GridIndex}
	res, err := SGBAnySet(pts, anyOpt)
	check("SGBAnySet", res, err)
	res, err = SGBAnySet(empty, anyOpt)
	zero("SGBAnySet over no points", res, err)
	levels := []float64{0.5, 0.2, 0.8}
	for _, par := range []int{1, 3} {
		opt := anyOpt
		opt.Parallelism = par
		for _, in := range []*geom.PointSet{pts, empty} {
			out, err := SweepAnySet(in, levels, opt)
			if err != nil {
				t.Fatal(err)
			}
			for l, res := range out {
				what := fmt.Sprintf("SweepAnySet over %d points, Parallelism %d, ε = %v", in.Len(), par, levels[l])
				if in == empty {
					zero(what, res, nil)
				} else {
					check(what, res, nil)
				}
			}
		}
	}

	// Figure 2 under FORM-NEW-GROUP defers a5 into a recursion stage;
	// the random points, far away, form groups of their own.
	all := geom.FromPoints(figure2Points())
	for _, p := range randomPoints(r, 60, 2, 12) {
		all.AppendPoint(geom.Point{p[0] + 100, p[1] + 100})
	}
	for _, ov := range allOverlaps {
		var st Stats
		opt := Options{Metric: geom.LInf, Eps: 3, Overlap: ov, Algorithm: GridIndex, Stats: &st}
		res, err := SGBAllSet(all, opt)
		check(fmt.Sprintf("SGBAllSet, %v", ov), res, err)
		if ov == FormNewGroup && st.RecursionDepth == 0 {
			t.Fatal("SGBAllSet under FORM-NEW-GROUP ran no recursion stage")
		}
		opt.Stats = nil
		res, err = SGBAllSet(empty, opt)
		zero(fmt.Sprintf("SGBAllSet over no points, %v", ov), res, err)

		ev, err := NewAllEvaluator(opt)
		if err != nil {
			t.Fatal(err)
		}
		zero(fmt.Sprintf("AllEvaluator before a batch, %v", ov), ev.Result(), nil)
		if err := ev.Append(all); err != nil {
			t.Fatal(err)
		}
		if err := ev.Remove([]int{7, 30}); err != nil {
			t.Fatal(err)
		}
		if ov == FormNewGroup && len(ev.st.deferred) == 0 {
			t.Fatal("FORM-NEW-GROUP deferred nothing: Result does not run on a clone")
		}
		check(fmt.Sprintf("AllEvaluator.Result after a Remove, %v", ov), ev.Result(), nil)
		every := make([]int, ev.Len())
		for i := range every {
			every[i] = i
		}
		if err := ev.Remove(every); err != nil {
			t.Fatal(err)
		}
		zero(fmt.Sprintf("AllEvaluator after removing every point, %v", ov), ev.Result(), nil)
	}

	ae, err := NewAnyLevels([]float64{0.8, 0.2}, anyOpt)
	if err != nil {
		t.Fatal(err)
	}
	zero("AnyEvaluator before a batch", ae.Result(), nil)
	if err := ae.Append(pts); err != nil {
		t.Fatal(err)
	}
	if err := ae.Remove([]int{3, 50, 51, 200}); err != nil {
		t.Fatal(err)
	}
	check("AnyEvaluator.Result after a Remove", ae.Result(), nil)
	for _, eps := range []float64{0.2, 0.5} { // kept, not kept
		res, err := ae.GroupsAt(eps)
		check(fmt.Sprintf("AnyEvaluator.GroupsAt(%v) after a Remove", eps), res, err)
	}
	every := make([]int, ae.Len())
	for i := range every {
		every[i] = i
	}
	if err := ae.Remove(every); err != nil {
		t.Fatal(err)
	}
	zero("AnyEvaluator after removing every point", ae.Result(), nil)
	res, err = ae.GroupsAt(0.5)
	zero("AnyEvaluator.GroupsAt an unkept level after removing every point", res, err)
}
