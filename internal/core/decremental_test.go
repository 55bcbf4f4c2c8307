package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// mirrorSet tracks the surviving points the way a from-scratch caller
// would see them: a plain slice in arrival order that appends extend
// and removes compact.
type mirrorSet struct {
	pts []geom.Point
}

func (m *mirrorSet) appendBatch(b []geom.Point) { m.pts = append(m.pts, b...) }

func (m *mirrorSet) remove(ids []int) {
	dead := make(map[int]bool, len(ids))
	for _, id := range ids {
		dead[id] = true
	}
	kept := m.pts[:0]
	for i, p := range m.pts {
		if !dead[i] {
			kept = append(kept, p)
		}
	}
	m.pts = kept
}

// randBatch draws n random d-dimensional points in [0, span)^d.
func randBatch(rng *rand.Rand, n, dims int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for k := range p {
			p[k] = rng.Float64() * span
		}
		pts[i] = p
	}
	return pts
}

// randRemoveIDs draws a random subset of [0, n) of the given size.
func randRemoveIDs(rng *rand.Rand, n, k int) []int {
	ids := rng.Perm(n)[:k]
	return ids
}

// normalizeRes maps a result to a comparable shape (nil vs empty).
func normalizeRes(r *Result) [2]any {
	g := r.Groups
	if len(g) == 0 {
		g = nil
	}
	e := r.Eliminated
	if len(e) == 0 {
		e = nil
	}
	return [2]any{g, e}
}

// TestDecrementalAnyEquivalence drives an AnyEvaluator with randomized
// interleaved append/remove traffic and cross-checks every step
// against a from-scratch SGB-Any over the surviving points: groups,
// members, and ordering must deep-equal — removal may only split the
// victims' components, and the localized recluster must reproduce
// exactly the components of the survivors.
func TestDecrementalAnyEquivalence(t *testing.T) {
	algos := []Algorithm{GridIndex, OnTheFlyIndex, AllPairs}
	for _, metric := range []geom.Metric{geom.L2, geom.LInf} {
		for _, dims := range []int{1, 2, 3, 5} {
			for ai, algo := range algos {
				name := fmt.Sprintf("%s/d=%d/%v", metric, dims, algo)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(dims)*100 + int64(metric)*10 + int64(ai)))
					opt := Options{Metric: metric, Eps: 1, Algorithm: algo, Seed: 3, Parallelism: 1}
					ev, err := NewAnyLevels([]float64{opt.Eps}, opt)
					if err != nil {
						t.Fatal(err)
					}
					mirror := &mirrorSet{}
					for step := 0; step < 24; step++ {
						if len(mirror.pts) == 0 || rng.Intn(3) != 0 {
							batch := randBatch(rng, 10+rng.Intn(50), dims, 8)
							if err := ev.Append(geom.FromPoints(batch)); err != nil {
								t.Fatalf("step %d: Append: %v", step, err)
							}
							mirror.appendBatch(batch)
						} else {
							k := 1 + rng.Intn(len(mirror.pts))
							if rng.Intn(4) == 0 {
								k = len(mirror.pts) // full eviction sometimes
							}
							ids := randRemoveIDs(rng, len(mirror.pts), k)
							if err := ev.Remove(ids); err != nil {
								t.Fatalf("step %d: Remove(%d ids of %d): %v", step, k, len(mirror.pts), err)
							}
							mirror.remove(ids)
						}
						if ev.Len() != len(mirror.pts) {
							t.Fatalf("step %d: Len = %d, want %d", step, ev.Len(), len(mirror.pts))
						}
						want, err := SGBAny(mirror.pts, opt)
						if err != nil {
							t.Fatalf("step %d: one-shot: %v", step, err)
						}
						got := ev.Result()
						if !reflect.DeepEqual(normalizeRes(want), normalizeRes(got)) {
							t.Fatalf("step %d (n=%d): decremental diverges\nfrom-scratch: %v\nmaintained:   %v",
								step, len(mirror.pts), want.Groups, got.Groups)
						}
					}
				})
			}
		}
	}
}

// TestDecrementalAllEquivalence is the SGB-All twin: after every
// append/remove interleaving the maintained grouping must be
// bit-identical (groups, member order, ELIMINATE victims, JOIN-ANY
// draws under the shared seed) to a from-scratch SGB-All over the
// surviving points. The random interleavings mostly remove enough to
// replay everything; the encoded traces below them (decTraceSeeds, run
// by checkAllTrace, shared with FuzzDecrementalAll) are the ones that
// keep the removal local, so the closure, the splice by creation stamp
// and the recycled group ids are what they pin.
func TestDecrementalAllEquivalence(t *testing.T) {
	algos := []Algorithm{GridIndex, OnTheFlyIndex, AllPairs, BoundsCheck}
	overlaps := []Overlap{JoinAny, Eliminate, FormNewGroup}
	for _, metric := range []geom.Metric{geom.L2, geom.LInf} {
		for _, dims := range []int{1, 2, 3, 5} {
			for oi, overlap := range overlaps {
				algo := algos[(dims+oi)%len(algos)]
				name := fmt.Sprintf("%s/d=%d/%v/%v", metric, dims, overlap, algo)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(dims)*1000 + int64(metric)*100 + int64(oi)))
					opt := Options{Metric: metric, Eps: 1, Overlap: overlap, Algorithm: algo, Seed: 7, Parallelism: 1}
					ev, err := NewAllEvaluator(opt)
					if err != nil {
						t.Fatal(err)
					}
					mirror := &mirrorSet{}
					for step := 0; step < 16; step++ {
						if len(mirror.pts) == 0 || rng.Intn(3) != 0 {
							batch := randBatch(rng, 10+rng.Intn(40), dims, 8)
							if err := ev.Append(geom.FromPoints(batch)); err != nil {
								t.Fatalf("step %d: Append: %v", step, err)
							}
							mirror.appendBatch(batch)
						} else {
							k := 1 + rng.Intn(len(mirror.pts))
							ids := randRemoveIDs(rng, len(mirror.pts), k)
							if err := ev.Remove(ids); err != nil {
								t.Fatalf("step %d: Remove: %v", step, err)
							}
							mirror.remove(ids)
						}
						if ev.Len() != len(mirror.pts) {
							t.Fatalf("step %d: Len = %d, want %d", step, ev.Len(), len(mirror.pts))
						}
						want, err := SGBAll(mirror.pts, opt)
						if err != nil {
							t.Fatalf("step %d: one-shot: %v", step, err)
						}
						got := ev.Result()
						if !reflect.DeepEqual(normalizeRes(want), normalizeRes(got)) {
							t.Fatalf("step %d (n=%d): decremental diverges\nfrom-scratch: %v elim %v\nmaintained:   %v elim %v",
								step, len(mirror.pts), want.Groups, want.Eliminated, got.Groups, got.Eliminated)
						}
					}
				})
			}
		}
	}

	for _, seed := range decTraceSeeds() {
		t.Run("trace/"+seed.name, func(t *testing.T) {
			sum := checkAllTrace(t, seed.data)
			if sum.local < seed.minLocal {
				t.Errorf("%d removals replayed less than every survivor, want at least %d", sum.local, seed.minLocal)
			}
			if sum.compactions < seed.minCompactions {
				t.Errorf("the log compacted %d times, want at least %d", sum.compactions, seed.minCompactions)
			}
			if seed.events && sum.events == 0 {
				t.Error("no ELIMINATE victim or FORM-NEW-GROUP deferral was ever on record after a local replay")
			}
		})
	}
}

// An encoded trace is a byte string, so that the fuzzer can mutate it:
//
//	[0] dims = 1 + b%3
//	[1] overlap = b%3, metric = (b/3)%2, algorithm = (b/6)%4
//	[2] ε = {1, 0.1, 0.3}[b%3]
//	[3] seed
//
// and then operations until the bytes run out. An operation byte o with
// o%4 == 0 removes the 1 + (o/4)%16 oldest points, o%4 == 1 removes
// 1 + (o/4)%4 points whose live ids the next bytes give (mod Len), and
// anything else appends 1 + (o/4)%12 points of dims bytes each. A
// coordinate byte with the top bit set is (b&15)·ε — the lattice-aligned
// case the probe pad exists for — and (b&63)·ε/4 otherwise, so equal
// coordinates and distances of exactly ε are common.
type decTraceSeed struct {
	name           string
	data           []byte
	minLocal       int  // removals that must replay only part of the survivors
	minCompactions int  // times the point log must compact
	events         bool // some victim or deferral must outlive a local replay
}

type traceSummary struct{ local, compactions, events int }

func traceHeader(dims int, overlap Overlap, metric geom.Metric, algo, eps int, seed byte) []byte {
	m := 0
	if metric == geom.LInf {
		m = 1
	}
	return []byte{byte(dims - 1), byte(int(overlap) + 3*m + 6*algo), byte(eps), seed}
}

// traceAppend encodes one append of up to 12 points (dims bytes each).
func traceAppend(data []byte, coords []byte, dims int) []byte {
	n := len(coords) / dims
	data = append(data, byte(2+4*(n-1)))
	return append(data, coords...)
}

// traceEvict encodes the removal of the k (≤ 16) oldest points.
func traceEvict(data []byte, k int) []byte { return append(data, byte(4*(k-1))) }

// windowTrace slides a window of w points: steps times, evict the k
// oldest and append k new ones. coord draws one coordinate byte.
func windowTrace(head []byte, dims, w, k, steps int, coord func() byte) []byte {
	batch := func(n int) []byte {
		out := make([]byte, n*dims)
		for i := range out {
			out[i] = coord()
		}
		return out
	}
	data := head
	for done := 0; done < w; done += 12 {
		data = traceAppend(data, batch(min(12, w-done)), dims)
	}
	for s := 0; s < steps; s++ {
		data = traceEvict(data, k)
		data = traceAppend(data, batch(k), dims)
	}
	return data
}

func decTraceSeeds() []decTraceSeed {
	var seeds []decTraceSeed
	overlaps := []Overlap{JoinAny, Eliminate, FormNewGroup}
	// Sliding windows: 48 evict-then-append steps over 96 points, twelve
	// at a time, so tombstones pass the living (and the log compacts)
	// every ninth step. Fine coordinates, every clause, both metrics.
	for oi, ov := range overlaps {
		for dims := 2; dims <= 3; dims++ {
			metric := []geom.Metric{geom.L2, geom.LInf}[(oi+dims)%2]
			r := rand.New(rand.NewSource(int64(100*dims + oi)))
			seeds = append(seeds, decTraceSeed{
				name:     fmt.Sprintf("window/%v/%s/d=%d", ov, metric, dims),
				data:     windowTrace(traceHeader(dims, ov, metric, (oi+dims)%4, 0, 7), dims, 96, 12, 48, func() byte { return byte(r.Intn(64)) }),
				minLocal: 24, minCompactions: 2, events: ov != JoinAny && dims == 2,
			})
		}
	}
	// Duplicate coordinates: the same few positions over and over, so
	// equal points draw equal JOIN-ANY values and cells hold many ids.
	for oi, ov := range overlaps {
		r := rand.New(rand.NewSource(int64(200 + oi)))
		seeds = append(seeds, decTraceSeed{
			name:     fmt.Sprintf("duplicates/%v", ov),
			data:     windowTrace(traceHeader(2, ov, geom.LInf, 0, 0, 3), 2, 72, 8, 48, func() byte { return byte(4 * r.Intn(12)) }),
			minLocal: 12, minCompactions: 2,
		})
	}
	// Lattice-aligned: every coordinate a multiple of ε (so of 2ε every
	// other time) at an ε that binary floating point cannot represent,
	// under L∞ and, named .../L2/..., under L2, where a pair one lattice
	// step apart on one axis is exactly ε apart.
	for _, metric := range []geom.Metric{geom.LInf, geom.L2} {
		for oi, ov := range overlaps {
			for _, eps := range []int{1, 2} {
				name := fmt.Sprintf("lattice/%v/eps=%d", ov, eps)
				src := int64(300 + 10*eps + oi)
				if metric == geom.L2 {
					name = fmt.Sprintf("lattice/%v/%s/eps=%d", ov, metric, eps)
					src += 1000
				}
				r := rand.New(rand.NewSource(src))
				seeds = append(seeds, decTraceSeed{
					name:     name,
					data:     windowTrace(traceHeader(2, ov, metric, 0, eps, 5), 2, 72, 8, 48, func() byte { return byte(0x80 | r.Intn(16)) }),
					minLocal: 12, minCompactions: 2,
				})
			}
		}
	}
	// An appended point whose candidates are one re-created and one
	// untouched group, the re-created one older by creator and younger by
	// id. In units of ε/4 on a line: v=0 creates g0, a=3 joins it, u=11
	// (its own component) creates g1, b=6 is within ε of a but not of v
	// and creates g2. Evicting v replays a and b: a re-creates its group
	// on g2's recycled id, b joins it. p=7 is then within ε of a, b and
	// u: by creator the candidates read [a's group, u's], by id the other
	// way round, and under JOIN-ANY the two readings pick different
	// groups whatever the draw.
	mixed := traceHeader(1, JoinAny, geom.LInf, 0, 0, 1)
	mixed = traceAppend(mixed, []byte{0, 3, 11, 6}, 1)
	mixed = traceEvict(mixed, 1)
	mixed = traceAppend(mixed, []byte{7}, 1)
	seeds = append(seeds, decTraceSeed{name: "mixed-candidates", data: mixed, minLocal: 1})
	return seeds
}

// stateView is an evaluator's arbitration state in live ids: the groups
// in creation order and the ELIMINATE / FORM-NEW-GROUP event lists in
// event order — the deferred set included, which Result only shows
// through the recursion it feeds.
type stateView struct {
	Groups               [][]int
	Eliminated, Deferred []int
}

// retainedState is an evaluator's retained arbitration state in stored
// indices: the point log and its live order, the groups in creation
// order and the ELIMINATE / FORM-NEW-GROUP event lists.
type retainedState struct {
	Dims                 int
	Data                 []float64
	Live                 []int32
	Dead                 int
	Eliminated, Deferred []int32
	Groups               [][]int32
}

func retainedOf(e *AllEvaluator) retainedState {
	st := e.st
	if st == nil {
		return retainedState{} // no batch accepted yet
	}
	int32s := func(xs []int) []int32 {
		if xs == nil {
			return nil
		}
		out := make([]int32, len(xs))
		for i, x := range xs {
			out[i] = int32(x)
		}
		return out
	}
	s := retainedState{
		Dims:       st.dims,
		Data:       append([]float64(nil), st.points.Data()...),
		Live:       append([]int32(nil), e.live...),
		Dead:       e.dead,
		Eliminated: int32s(st.eliminated),
		Deferred:   int32s(st.deferred),
		Groups:     make([][]int32, 0, len(st.order)),
	}
	for _, id := range st.order {
		if g := st.groups[id]; g != nil {
			s.Groups = append(s.Groups, st.appendMembers(nil, g))
		}
	}
	return s
}

func viewOf(e *AllEvaluator) stateView {
	s := retainedOf(e)
	live := make(map[int32]int, e.Len())
	for k := 0; k < e.Len(); k++ {
		pos := int32(k)
		if s.Live != nil {
			pos = s.Live[k]
		}
		live[pos] = k
	}
	ids := func(stored []int32) []int {
		var out []int
		for _, m := range stored {
			out = append(out, live[m])
		}
		return out
	}
	v := stateView{Eliminated: ids(s.Eliminated), Deferred: ids(s.Deferred)}
	for _, g := range s.Groups {
		v.Groups = append(v.Groups, ids(g))
	}
	return v
}

// traceOp is one decoded trace operation: an appended batch, or the
// live ids a removal names.
type traceOp struct {
	batch []geom.Point
	ids   []int
}

// decodeTrace decodes an encoded trace (see decTraceSeed) into its
// dimensionality, options and operations. A removal of nothing is
// skipped; the trace ends early where its bytes cannot complete an
// operation.
func decodeTrace(data []byte) (int, Options, []traceOp) {
	if len(data) < 4 {
		return 0, Options{}, nil
	}
	dims := 1 + int(data[0])%3
	eps := []float64{1, 0.1, 0.3}[int(data[2])%3]
	opt := Options{
		Metric:    []geom.Metric{geom.L2, geom.LInf}[int(data[1])/3%2],
		Eps:       eps,
		Overlap:   Overlap(int(data[1]) % 3),
		Algorithm: []Algorithm{GridIndex, OnTheFlyIndex, AllPairs, BoundsCheck}[int(data[1])/6%4],
		Seed:      int64(data[3]), Parallelism: 1,
	}
	data = data[4:]
	coord := func(b byte) float64 {
		if b&0x80 != 0 {
			return float64(b&15) * eps
		}
		return float64(b&63) * eps / 4
	}
	var ops []traceOp
	for live := 0; len(data) > 0; {
		o := int(data[0])
		data = data[1:]
		switch {
		case o%4 >= 2:
			n := min(1+o/4%12, len(data)/dims)
			if n == 0 {
				return dims, opt, ops
			}
			batch := make([]geom.Point, n)
			for i := range batch {
				batch[i] = make(geom.Point, dims)
				for d := range batch[i] {
					batch[i][d] = coord(data[i*dims+d])
				}
			}
			data = data[n*dims:]
			ops = append(ops, traceOp{batch: batch})
			live += n
		case live == 0:
			continue
		default:
			var ids []int
			if o%4 == 0 {
				for id := 0; id < min(1+o/4%16, live); id++ {
					ids = append(ids, id)
				}
			} else {
				seen := map[int]bool{}
				for k := min(1+o/4%4, len(data)); k > 0; k-- {
					if id := int(data[0]) % live; !seen[id] {
						seen[id] = true
						ids = append(ids, id)
					}
					data = data[1:]
				}
				if len(ids) == 0 {
					return dims, opt, ops
				}
			}
			ops = append(ops, traceOp{ids: ids})
			live -= len(ids)
		}
	}
	return dims, opt, ops
}

// checkAllTrace decodes and runs a trace (see decTraceSeed), checking
// after every operation that the maintained evaluator's Result equals a
// one-shot SGBAll over the survivors and that its retained state —
// groups, victims and deferrals, each in order — equals that of a fresh
// evaluator fed the survivors.
func checkAllTrace(t testing.TB, data []byte) traceSummary {
	var sum traceSummary
	_, opt, ops := decodeTrace(data)
	if len(ops) == 0 {
		return sum
	}
	var stats Stats
	opt.Stats = &stats
	ev, err := NewAllEvaluator(opt)
	if err != nil {
		t.Fatal(err)
	}
	mirror := &mirrorSet{}
	for step, op := range ops {
		removed := op.batch == nil
		if !removed {
			if err := ev.Append(geom.FromPoints(op.batch)); err != nil {
				t.Fatalf("step %d: Append: %v", step, err)
			}
			mirror.appendBatch(op.batch)
		} else {
			before := stats.PointsReplayed
			if err := ev.Remove(op.ids); err != nil {
				t.Fatalf("step %d: Remove(%v): %v", step, op.ids, err)
			}
			mirror.remove(op.ids)
			if stats.PointsReplayed-before < int64(len(mirror.pts)) {
				sum.local++
				sum.events += len(ev.st.eliminated) + len(ev.st.deferred)
			}
			if ev.live == nil {
				sum.compactions++
			}
		}
		if ev.Len() != len(mirror.pts) {
			t.Fatalf("step %d: Len = %d, want %d", step, ev.Len(), len(mirror.pts))
		}
		oneshot := opt
		oneshot.Stats = nil
		want, err := SGBAll(mirror.pts, oneshot)
		if err != nil {
			t.Fatalf("step %d: one-shot: %v", step, err)
		}
		got := ev.Result()
		if !reflect.DeepEqual(normalizeRes(want), normalizeRes(got)) {
			t.Fatalf("step %d (n=%d, after a removal: %t): maintained grouping diverges\nfrom-scratch: %v elim %v\nmaintained:   %v elim %v",
				step, len(mirror.pts), removed, want.Groups, want.Eliminated, got.Groups, got.Eliminated)
		}
		fresh, err := NewAllEvaluator(oneshot)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Append(geom.FromPoints(mirror.pts)); err != nil {
			t.Fatalf("step %d: fresh evaluator: %v", step, err)
		}
		if w, g := viewOf(fresh), viewOf(ev); !reflect.DeepEqual(w, g) {
			t.Fatalf("step %d (n=%d): retained state diverges\nfresh:      %+v\nmaintained: %+v", step, len(mirror.pts), w, g)
		}
	}
	return sum
}

// TestRemoveErrors covers the id-validation surface shared by both
// evaluators.
func TestRemoveErrors(t *testing.T) {
	opt := Options{Metric: geom.L2, Eps: 1, Algorithm: GridIndex}
	any, err := NewAnyLevels([]float64{opt.Eps}, opt)
	if err != nil {
		t.Fatal(err)
	}
	all, err := NewAllEvaluator(opt)
	if err != nil {
		t.Fatal(err)
	}
	pts := geom.FromPoints([]geom.Point{{0, 0}, {0.5, 0.5}, {5, 5}})
	if err := any.Append(pts); err != nil {
		t.Fatal(err)
	}
	if err := all.Append(pts); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ids  []int
	}{
		{"negative", []int{-1}},
		{"out of range", []int{3}},
		{"duplicate", []int{1, 1}},
	} {
		if err := any.Remove(tc.ids); err == nil {
			t.Errorf("AnyEvaluator.Remove(%s %v): want error", tc.name, tc.ids)
		}
		if err := all.Remove(tc.ids); err == nil {
			t.Errorf("AllEvaluator.Remove(%s %v): want error", tc.name, tc.ids)
		}
	}
	// Empty batches are no-ops.
	if err := any.Remove(nil); err != nil {
		t.Fatal(err)
	}
	if err := all.Remove(nil); err != nil {
		t.Fatal(err)
	}
	if any.Len() != 3 || all.Len() != 3 {
		t.Fatalf("Len after no-op removes = %d/%d, want 3/3", any.Len(), all.Len())
	}
}

// TestRemoveSplitsComponent pins the canonical decremental scenario:
// deleting a bridge point splits its component in two, and LiveAt ids
// renumber compactly.
func TestRemoveSplitsComponent(t *testing.T) {
	opt := Options{Metric: geom.L2, Eps: 1.1, Algorithm: GridIndex}
	ev, err := NewAnyLevels([]float64{opt.Eps}, opt)
	if err != nil {
		t.Fatal(err)
	}
	// a--b--c chained: one component; deleting b splits {a} from {c}.
	if err := ev.Append(geom.FromPoints([]geom.Point{{0, 0}, {1, 0}, {2, 0}})); err != nil {
		t.Fatal(err)
	}
	if n := len(ev.Result().Groups); n != 1 {
		t.Fatalf("before delete: %d components, want 1", n)
	}
	if err := ev.Remove([]int{1}); err != nil {
		t.Fatal(err)
	}
	res := ev.Result()
	if len(res.Groups) != 2 {
		t.Fatalf("after deleting the bridge: %d components, want 2: %v", len(res.Groups), res.Groups)
	}
	if !reflect.DeepEqual(res.Groups[0].Members, []int32{0}) || !reflect.DeepEqual(res.Groups[1].Members, []int32{1}) {
		t.Fatalf("ids did not renumber compactly: %v", res.Groups)
	}
	if got := ev.LiveAt(1); got[0] != 2 || got[1] != 0 {
		t.Fatalf("LiveAt(1) = %v, want (2, 0)", got)
	}
}
