package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// An AnyEvaluator trace (anyTraceSeeds, FuzzAnyLevelsRemove) is a header
// byte and a list of operations. The header: bit 0 L∞, bits 1–2 the
// dimensionality − 1 (mod 3), bit 3 lattice mode, bit 4 lattice step 0.3
// rather than 0.25, bits 5–6 which level list (anyTraceLevels). Each
// operation is an opcode byte, taken mod 5, and its operands:
//
//	0 n c…   append 1 + n mod 64 points, d coordinate bytes each
//	1 m      remove the 1 + m mod 48 oldest points
//	2 r      remove the ids i with (i + r) mod (2 + r mod 5) = 0
//	3 r      remove the one id r mod Len
//	4        rebuild the evaluator from its live points, as a restart does
//
// A coordinate byte b is b·step mod 16 steps in lattice mode, so that
// distances land on the levels, which are multiples of the step, and
// b / 8, b / 32 or b / 64 otherwise at d = 1, 2, 3, so that the levels
// group. A removal of nothing is skipped; the trace ends where its
// bytes cannot complete an operation.

const (
	anyOpAppend = iota
	anyOpEvict
	anyOpScatter
	anyOpSingle
	anyOpRebuild
	anyOps
)

func anyTraceHeader(linf bool, d int, lattice, step3 bool, list int) []byte {
	h := byte(d-1)<<1 | byte(list)<<5
	for bit, on := range [5]bool{linf, false, false, lattice, step3} {
		if on {
			h |= 1 << bit
		}
	}
	return []byte{h}
}

// anyTraceLevels returns the level list of a header: one, three or six
// levels, unsorted as a query may spell them.
func anyTraceLevels(lattice bool, step float64, list int) []float64 {
	pool := []float64{0.12, 0.2, 0.3, 0.45, 0.6, 0.9}
	if lattice {
		pool = []float64{step, 2 * step, 3 * step, 4 * step, 5 * step, 6 * step}
	}
	switch list {
	case 0:
		return []float64{pool[2]}
	case 1:
		return []float64{pool[4], pool[0], pool[2]}
	default:
		return []float64{pool[3], pool[1], pool[5], pool[0], pool[4], pool[2]}
	}
}

// anyTraceSummary counts what a trace exercised.
type anyTraceSummary struct{ removes, compactions, rebuilds int }

// checkAnyTrace runs an encoded trace against a maintained evaluator and
// holds every level to SweepAny over the surviving points after every
// operation: groups, member order and ids deep-equal.
func checkAnyTrace(t testing.TB, data []byte) anyTraceSummary {
	t.Helper()
	var sum anyTraceSummary
	if len(data) < 1 {
		return sum
	}
	h, ops := data[0], data[1:]
	m := geom.L2
	if h&1 != 0 {
		m = geom.LInf
	}
	d := 1 + int(h>>1&3)%3
	lattice, step := h&8 != 0, 0.25
	if h&16 != 0 {
		step = 0.3
	}
	levels := anyTraceLevels(lattice, step, int(h>>5&3))
	scale := []float64{1.0 / 8, 1.0 / 32, 1.0 / 64}[d-1]
	coord := func(b byte) float64 {
		if lattice {
			return step * float64(b%16)
		}
		return float64(b) * scale
	}
	opt := Options{Metric: m, Algorithm: GridIndex}
	ev, err := NewAnyLevels(levels, opt)
	if err != nil {
		t.Fatal(err)
	}
	mirror := &mirrorSet{}
	check := func(step int, what string) {
		t.Helper()
		want, err := SweepAny(mirror.pts, levels, Options{Metric: m, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ev.Len() != len(mirror.pts) {
			t.Fatalf("op %d (%s): Len = %d, want %d", step, what, ev.Len(), len(mirror.pts))
		}
		for l, eps := range levels {
			got, err := ev.GroupsAt(eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeRes(got), normalizeRes(want[l])) {
				t.Fatalf("op %d (%s), %v d=%d levels %v, ε = %v, %d points: maintained\n%v\none-shot\n%v",
					step, what, m, d, levels, eps, len(mirror.pts), got.Groups, want[l].Groups)
			}
		}
	}
	remove := func(ids []int) {
		t.Helper()
		if len(ids) == 0 {
			return
		}
		dead := ev.dead
		if err := ev.Remove(ids); err != nil {
			t.Fatal(err)
		}
		mirror.remove(ids)
		sum.removes++
		if ev.dead < dead+len(ids) {
			sum.compactions++
		}
	}
	for step := 0; len(ops) > 0; step++ {
		op := ops[0] % anyOps
		ops = ops[1:]
		if op != anyOpRebuild && len(ops) == 0 {
			break
		}
		what := ""
		switch op {
		case anyOpAppend:
			n := 1 + int(ops[0])%64
			if len(ops) < 1+n*d {
				return sum
			}
			batch := make([]geom.Point, n)
			for i := range batch {
				batch[i] = make(geom.Point, d)
				for c := range batch[i] {
					batch[i][c] = coord(ops[1+i*d+c])
				}
			}
			ops = ops[1+n*d:]
			if err := ev.Append(geom.FromPoints(batch)); err != nil {
				t.Fatal(err)
			}
			mirror.appendBatch(batch)
			what = fmt.Sprintf("append %d", n)
		case anyOpEvict:
			k := min(1+int(ops[0])%48, ev.Len())
			ops = ops[1:]
			ids := make([]int, k)
			for i := range ids {
				ids[i] = i
			}
			remove(ids)
			what = fmt.Sprintf("evict %d", k)
		case anyOpScatter:
			r := int(ops[0])
			ops = ops[1:]
			var ids []int
			for i := 0; i < ev.Len(); i++ {
				if (i+r)%(2+r%5) == 0 {
					ids = append(ids, i)
				}
			}
			remove(ids)
			what = fmt.Sprintf("remove %d scattered", len(ids))
		case anyOpSingle:
			r := int(ops[0])
			ops = ops[1:]
			if ev.Len() > 0 {
				remove([]int{r % ev.Len()})
			}
			what = "remove one"
		case anyOpRebuild:
			rebuilt, err := NewAnyLevels(levels, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(mirror.pts) > 0 {
				if err := rebuilt.Append(geom.FromPoints(mirror.pts)); err != nil {
					t.Fatal(err)
				}
			}
			ev = rebuilt
			sum.rebuilds++
			what = "rebuild"
		}
		check(step, what)
	}
	return sum
}

// anyTrace builds an encoded trace.
type anyTrace struct {
	data  []byte
	d     int
	coord func() byte
}

func (tr *anyTrace) add(n int) *anyTrace {
	for n > 0 {
		k := min(n, 64)
		tr.data = append(tr.data, anyOpAppend, byte(k-1))
		for i := 0; i < k*tr.d; i++ {
			tr.data = append(tr.data, tr.coord())
		}
		n -= k
	}
	return tr
}

func (tr *anyTrace) op(code int, operand ...byte) *anyTrace {
	tr.data = append(append(tr.data, byte(code)), operand...)
	return tr
}

// anyTraceSeed is one named trace of TestAnyLevelsRemoveEquivalence and
// the seed corpus of FuzzAnyLevelsRemove, with what it must exercise.
type anyTraceSeed struct {
	name string
	data []byte
	want anyTraceSummary // lower bounds
}

// anyTraceSeeds builds the matrix {L2, L∞} × d ∈ {1, 2, 3} × k ∈ {1, 3,
// 6} levels × four shapes — oldest-first windows of Morton-ordered
// 40-point batches across several compactions, scattered deletes
// between appends, single-id deletes, and lattice-aligned coordinates
// (distances on a level) under windows and single deletes — plus
// TestAnyStrategiesAgreeOnLatticeLInf's 6 × 6 lattice, whose L∞
// distances land on ε or round just past it, deleted point by point,
// and traces that rebuild the evaluator between removals.
func anyTraceSeeds() []anyTraceSeed {
	var seeds []anyTraceSeed
	seed := int64(3100)
	for _, linf := range []bool{false, true} {
		for d := 1; d <= 3; d++ {
			for list, k := range []int{1, 3, 6} {
				seed++
				r := rand.New(rand.NewSource(seed))
				fine := func() byte { return byte(r.Intn(256)) }
				name := func(shape string) string {
					m := "L2"
					if linf {
						m = "LInf"
					}
					return fmt.Sprintf("%s/%s/d=%d/k=%d", shape, m, d, k)
				}
				head := anyTraceHeader(linf, d, false, false, list)
				window := &anyTrace{data: head, d: d, coord: fine}
				window.add(120)
				for s := 0; s < 12; s++ {
					window.add(40).op(anyOpEvict, 39)
				}
				scatter := &anyTrace{data: head, d: d, coord: fine}
				for s := 0; s < 8; s++ {
					scatter.add(30).op(anyOpScatter, byte(r.Intn(256)))
				}
				single := &anyTrace{data: head, d: d, coord: fine}
				single.add(90)
				for s := 0; s < 30; s++ {
					single.op(anyOpSingle, byte(r.Intn(256)))
					if s%10 == 9 {
						single.add(8)
					}
				}
				lat := &anyTrace{data: anyTraceHeader(linf, d, true, k != 3, list), d: d, coord: fine}
				lat.add(100)
				for s := 0; s < 10; s++ {
					lat.op(anyOpSingle, byte(r.Intn(256))).add(20).op(anyOpEvict, 19)
				}
				seeds = append(seeds,
					anyTraceSeed{name("window"), window.data, anyTraceSummary{removes: 12, compactions: 2}},
					anyTraceSeed{name("scatter"), scatter.data, anyTraceSummary{removes: 8}},
					anyTraceSeed{name("single"), single.data, anyTraceSummary{removes: 30}},
					anyTraceSeed{name("lattice"), lat.data, anyTraceSummary{removes: 20, compactions: 1}})
			}
		}
	}
	// The 6 × 6 lattice (step 0.3; coordinates 0.3 i, 0.6 j), taken apart
	// point by point at the levels 0.3 and 0.6 and at one level, under L∞
	// and L2.
	var grid6 []byte
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if (7*i+3*j)%4 != 0 {
				grid6 = append(grid6, byte(i), byte(2*j))
			}
		}
	}
	for _, linf := range []bool{true, false} {
		for _, list := range []int{0, 1} {
			tr := &anyTrace{data: anyTraceHeader(linf, 2, true, true, list), d: 2}
			tr.data = append(append(tr.data, anyOpAppend, byte(len(grid6)/2-1)), grid6...)
			for s := 0; s < len(grid6)/2; s++ {
				tr.op(anyOpSingle, byte(7*s+3))
			}
			seeds = append(seeds, anyTraceSeed{fmt.Sprintf("grid6/linf=%t/list=%d", linf, list), tr.data, anyTraceSummary{removes: len(grid6) / 2}})
		}
	}
	// Restore → remove: an evaluator rebuilt from the live points — how
	// the first query after a restart restores a grouping — repairs like
	// any other.
	for d := 1; d <= 3; d++ {
		r := rand.New(rand.NewSource(int64(3200 + d)))
		tr := &anyTrace{data: anyTraceHeader(d == 2, d, false, false, 0), d: d, coord: func() byte { return byte(r.Intn(256)) }}
		tr.add(100).op(anyOpRebuild).op(anyOpEvict, 20).add(30).op(anyOpRebuild).add(30).op(anyOpScatter, 5).op(anyOpRebuild).op(anyOpSingle, 17)
		seeds = append(seeds, anyTraceSeed{fmt.Sprintf("restore/d=%d", d), tr.data, anyTraceSummary{removes: 3, rebuilds: 3}})
	}
	return seeds
}

// TestAnyLevelsRemoveEquivalence holds a maintained evaluator at one,
// three and six levels to SweepAnySet over the survivors after every
// append and every remove (anyTraceSeeds). Each trace must have
// removed, compacted and rebuilt as often as it was built to.
func TestAnyLevelsRemoveEquivalence(t *testing.T) {
	for _, s := range anyTraceSeeds() {
		t.Run(s.name, func(t *testing.T) {
			sum := checkAnyTrace(t, s.data)
			if sum.removes < s.want.removes || sum.compactions < s.want.compactions || sum.rebuilds < s.want.rebuilds {
				t.Fatalf("removed %d times, compacted %d and rebuilt %d; want at least %+v", sum.removes, sum.compactions, sum.rebuilds, s.want)
			}
		})
	}
}

// TestAnyLevelsAddLevel: a level added to a maintained evaluator (one
// probe pass) and a level read without keeping it both equal the
// one-shot sweep, and the added level is maintained from then on;
// levels above the top are refused.
func TestAnyLevelsAddLevel(t *testing.T) {
	r := rand.New(rand.NewSource(3300))
	opt := Options{Metric: geom.L2, Algorithm: GridIndex}
	ev, err := NewAnyLevels([]float64{0.6, 0.2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	mirror := &mirrorSet{}
	batch := randBatch(r, 300, 2, 8)
	if err := ev.Append(geom.FromPoints(batch)); err != nil {
		t.Fatal(err)
	}
	mirror.appendBatch(batch)
	ids := randRemoveIDs(r, ev.Len(), 40)
	if err := ev.Remove(ids); err != nil {
		t.Fatal(err)
	}
	mirror.remove(ids)
	probes := func(f func()) int64 {
		st := &Stats{}
		ev.opt.Stats = st
		f()
		ev.opt.Stats = nil
		return st.IndexProbes
	}
	check := func(eps float64) {
		t.Helper()
		want, err := SGBAny(mirror.pts, Options{Metric: geom.L2, Eps: eps, Algorithm: AllPairs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.GroupsAt(eps)
		if err != nil || !reflect.DeepEqual(normalizeRes(got), normalizeRes(want)) {
			t.Fatalf("ε = %v: %v\ngot  %v\nwant %v", eps, err, got, want)
		}
	}
	if n := probes(func() { check(0.45) }); n != int64(ev.Len()) {
		t.Fatalf("a level not kept probed %d points, want %d", n, ev.Len())
	}
	if n := probes(func() {
		if err := ev.AddLevel(0.4); err != nil {
			t.Fatal(err)
		}
	}); n != int64(ev.Len()) {
		t.Fatalf("AddLevel probed %d points, want %d", n, ev.Len())
	}
	if n := probes(func() { check(0.4) }); n != 0 {
		t.Fatalf("an added level probed %d points when read", n)
	}
	if got := ev.eps; !reflect.DeepEqual(got, []float64{0.2, 0.4, 0.6}) {
		t.Fatalf("levels %v", got)
	}
	ids = randRemoveIDs(r, ev.Len(), 60)
	if err := ev.Remove(ids); err != nil {
		t.Fatal(err)
	}
	mirror.remove(ids)
	for _, eps := range []float64{0.2, 0.4, 0.6} {
		check(eps)
	}
	for _, eps := range []float64{0.61, 0, -1} {
		if err := ev.AddLevel(eps); err == nil {
			t.Fatalf("AddLevel(%v) succeeded above the top or below zero", eps)
		}
		if _, err := ev.GroupsAt(eps); err == nil {
			t.Fatalf("GroupsAt(%v) succeeded above the top or below zero", eps)
		}
	}
}

// FuzzAnyLevelsRemove decodes its input as an AnyEvaluator trace
// (checkAnyTrace) and holds every level to SweepAny over the survivors
// after every operation. The seed corpus is
// TestAnyLevelsRemoveEquivalence's traces (anyTraceSeeds).
func FuzzAnyLevelsRemove(f *testing.F) {
	for _, s := range anyTraceSeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return // every operation sweeps from scratch: keep traces short
		}
		checkAnyTrace(t, data)
	})
}

// TestAnyLevelsCap: an evaluator keeps at most MaxLevels levels —
// NewAnyLevels refuses a longer list and AddLevel a level past the cap,
// while a level already kept is still a no-op.
func TestAnyLevelsCap(t *testing.T) {
	levels := make([]float64, MaxLevels+1)
	for i := range levels {
		levels[i] = 0.05 * float64(i+1)
	}
	opt := Options{Metric: geom.L2}
	if _, err := NewAnyLevels(levels, opt); !errors.Is(err, ErrTooManyLevels) {
		t.Fatalf("NewAnyLevels over %d levels: %v", len(levels), err)
	}
	ev, err := NewAnyLevels(levels[1:], opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddLevel(levels[0]); !errors.Is(err, ErrTooManyLevels) {
		t.Fatalf("AddLevel past MaxLevels: %v", err)
	}
	if err := ev.AddLevel(levels[1]); err != nil {
		t.Fatalf("AddLevel of a kept level: %v", err)
	}
	if len(ev.eps) != MaxLevels {
		t.Fatalf("%d levels kept, want %d", len(ev.eps), MaxLevels)
	}
}

// TestLatticeIncrementalEquivalence replays bench/'s calls on the
// LatticeEvaluator facade — AppendSet, Sweep(A), AppendSet, Sweep(A ∪
// {ε}) — under both metrics: each AppendSet charges its own call's work
// to its Stats block and the Sweep after it nothing, and every level of
// each Sweep equals SweepAnySet over the points so far, member for
// member.
func TestLatticeIncrementalEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(810))
	a := []float64{0.8, 0.15, 0.4}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		ev, err := NewLatticeEvaluator(2, Options{Metric: m, Eps: 0.8, Algorithm: GridIndex})
		if err != nil {
			t.Fatal(err)
		}
		all := geom.NewPointSet(2)
		for _, levels := range [][]float64{a, append(slices.Clone(a), 0.3)} {
			batch := geom.FromPoints(randomPointsDim(r, 200, 2, 6))
			all.AppendSet(batch)
			var st Stats
			if err := ev.AppendSet(batch, &st); err != nil {
				t.Fatal(err)
			}
			if st.IndexProbes != int64(batch.Len()) {
				t.Fatalf("%v: AppendSet charged %d probes for %d points", m, st.IndexProbes, batch.Len())
			}
			got, err := ev.Sweep(levels)
			if err != nil {
				t.Fatal(err)
			}
			if st.IndexProbes != int64(batch.Len()) {
				t.Fatalf("%v: Sweep charged the last AppendSet's Stats (%d probes)", m, st.IndexProbes)
			}
			want, err := SweepAnySet(all, levels, Options{Metric: m, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for l, eps := range levels {
				if err := sameMembers(got[l], want[l]); err != nil {
					t.Fatalf("%v ε = %v after %d points: %v", m, eps, all.Len(), err)
				}
			}
		}
	}
}

// TestLatticeQueryCostIsZero: once the facade keeps a list's levels,
// sweeping it again costs no distance computation and no probe; levels
// past MaxLevels are answered by a probe pass without being kept.
func TestLatticeQueryCostIsZero(t *testing.T) {
	pts := geom.FromPoints(randomPointsDim(rand.New(rand.NewSource(811)), 200, 2, 5))
	ev, err := NewLatticeEvaluator(2, Options{Metric: geom.L2, Eps: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AppendSet(pts, nil); err != nil {
		t.Fatal(err)
	}
	a := []float64{0.3, 0.9, 1.7}
	if _, err := ev.Sweep(a); err != nil {
		t.Fatal(err)
	}
	var st Stats
	ev.ev.opt.Stats = &st
	_, err = ev.Sweep(a)
	ev.ev.opt.Stats = nil
	if err != nil || st != (Stats{}) {
		t.Fatalf("a repeated Sweep: %v, charged %+v", err, st)
	}
	many := make([]float64, MaxLevels+2)
	for i := range many {
		many[i] = 0.1 * float64(i+1)
	}
	got, err := ev.Sweep(many)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.ev.eps) != MaxLevels {
		t.Fatalf("the facade keeps %d levels, want %d", len(ev.ev.eps), MaxLevels)
	}
	want, err := SweepAnySet(pts, many, Options{Metric: geom.L2})
	if err != nil {
		t.Fatal(err)
	}
	for l, eps := range many {
		if err := sameMembers(got[l], want[l]); err != nil {
			t.Fatalf("ε = %v: %v", eps, err)
		}
	}
}

// TestLatticeEpsAboveMax: the facade answers no level above its top.
func TestLatticeEpsAboveMax(t *testing.T) {
	ev, err := NewLatticeEvaluator(2, Options{Metric: geom.L2, Eps: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AppendSet(geom.FromPoints([]geom.Point{{0, 0}, {0.5, 0}}), nil); err != nil {
		t.Fatal(err)
	}
	if ev.EpsMax() != 1.0 {
		t.Fatalf("EpsMax = %v", ev.EpsMax())
	}
	if _, err := ev.Sweep([]float64{0.5, 1.5}); !errors.Is(err, ErrEpsAboveMax) {
		t.Fatalf("Sweep above the top: got %v", err)
	}
}

// TestLatticeBoundsCheckRejected: SGB-Any has no Bounds-Checking
// variant, and the facade and SweepAny reject it with the same named
// error the one-shot operator uses.
func TestLatticeBoundsCheckRejected(t *testing.T) {
	if _, err := NewLatticeEvaluator(2, Options{Metric: geom.L2, Eps: 1, Algorithm: BoundsCheck}); !errors.Is(err, ErrBoundsCheckAny) {
		t.Fatalf("NewLatticeEvaluator(BoundsCheck): got %v, want ErrBoundsCheckAny", err)
	}
	if _, err := SweepAny([]geom.Point{{0, 0}}, []float64{1}, Options{Metric: geom.L2, Algorithm: BoundsCheck}); !errors.Is(err, ErrBoundsCheckAny) {
		t.Fatalf("SweepAny(BoundsCheck): got %v, want ErrBoundsCheckAny", err)
	}
}
