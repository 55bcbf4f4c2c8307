package core

import (
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
	"github.com/sgb-db/sgb/internal/rtree"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// SGBAny evaluates the SGB-Any (DISTANCE-TO-ANY) operator: every output
// group is a maximal connected component of the ε-similarity graph — a
// point belongs to a group if it is within ε of at least one member.
// Overlapping groups merge (Figure 8), so no ON-OVERLAP clause exists
// and opt.Overlap is ignored.
//
// Supported algorithms: AllPairs (naive; evaluates the predicate
// against every processed point), OnTheFlyIndex (Procedures 7–8: an
// R-tree over the processed points plus a Union-Find over group
// membership), and GridIndex (processed points live in their ε-sized
// home cell; neighbors are found by scanning the 3^d adjacent cells).
// BoundsCheck is rejected: the paper shows ε-rectangle bounds
// degenerate into chain-like regions under distance-to-any semantics,
// and the convex-hull refinement is unsound there (its diameter may
// exceed ε), so no bounds-checking variant exists.
func SGBAny(points []geom.Point, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if _, err := checkInput(points); err != nil {
		return nil, err
	}
	return sgbAnySet(geom.FromPoints(points), opt)
}

// SGBAnySet is SGBAny over flat point storage (see SGBAllSet).
func SGBAnySet(ps *geom.PointSet, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return sgbAnySet(ps, opt)
}

func sgbAnySet(ps *geom.PointSet, opt Options) (*Result, error) {
	if opt.Algorithm == BoundsCheck {
		return nil, ErrBoundsCheckAny
	}
	res := &Result{}
	if ps == nil || ps.Len() == 0 {
		return res, nil
	}
	if err := checkCoords(ps, opt.Eps); err != nil {
		return nil, err
	}
	res.Groups = sgbAnyLevels(ps, opt, []float64{opt.Metric.EpsKey(opt.Eps)}, opt.workers(ps.Len()))[0]
	return res, nil
}

// SweepAny answers SGB-Any at every ε level of epsList in one
// evaluation: one probe pass at the largest level feeds one Union-Find
// per level, each pair joining the levels its distance reaches
// (anyForests). Results align with epsList's order, each member for
// member equal to SGBAny at that level. opt.Eps is ignored (the list's
// largest level is the probe radius). The evaluation runs on the ε-grid
// whatever opt.Algorithm names, BoundsCheck apart, which is rejected as
// SGBAny rejects it; Parallelism resolves as it does for SGBAny under
// the named Algorithm. A cached sweep, whose later ε lists are unknown,
// keeps the same level forests maintained instead (NewAnyLevels) and
// adds a level when one is asked for (AnyEvaluator.AddLevel).
func SweepAny(points []geom.Point, epsList []float64, opt Options) ([]*Result, error) {
	if _, err := checkInput(points); err != nil {
		return nil, err
	}
	return SweepAnySet(geom.FromPoints(points), epsList, opt)
}

// SweepAnySet is SweepAny over flat point storage.
func SweepAnySet(ps *geom.PointSet, epsList []float64, opt Options) ([]*Result, error) {
	order, err := ascendingLevels(epsList)
	if err != nil {
		return nil, err
	}
	opt.Eps = epsList[order[len(order)-1]]
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Algorithm == BoundsCheck {
		return nil, ErrBoundsCheckAny
	}
	out := make([]*Result, len(epsList))
	if ps == nil || ps.Len() == 0 {
		for i := range out {
			out[i] = &Result{} // as an empty SGBAny has it
		}
		return out, nil
	}
	if err := checkCoords(ps, opt.Eps); err != nil {
		return nil, err
	}
	keys := make([]float64, len(order))
	for l, i := range order {
		keys[l] = opt.Metric.EpsKey(epsList[i])
	}
	workers := opt.workers(ps.Len())
	opt.Algorithm = GridIndex
	for l, groups := range sgbAnyLevels(ps, opt, keys, workers) {
		out[order[l]] = &Result{Groups: groups}
	}
	return out, nil
}

// sgbAnyLevels is SGB-Any's one evaluation pipeline, behind the
// single-ε operator (one level) and the one-shot ε sweep alike. keys are
// the levels' thresholds in DistKey space, ascending; opt.Eps is the top
// level's ε, the radius every probe uses. It returns each level's
// groups in keys' order.
func sgbAnyLevels(ps *geom.PointSet, opt Options, keys []float64, workers int) [][]Group {
	// Morton preprocessing: reorder the input along the Z-curve of its
	// ε-cells so consecutive probes touch neighboring grid cells (the
	// id slabs stay cache-resident). Sound for SGB-Any only — connected
	// components are order-independent — and transparent to callers:
	// output member ids are remapped back to input order. SGB-All never
	// reorders; its arbitration semantics are input-order sensitive.
	perm := mortonPermFor(ps, opt)
	eval := ps
	if perm != nil {
		eval = ps.Gather(perm)
	}

	// Pipeline dispatch: with more than one worker the evaluation runs
	// as partition → shard-local evaluate → Union-Find merge (see
	// parallel.go); otherwise (or when the input spans too few ε-cells
	// to cut) the whole input is one shard evaluated inline.
	f := newAnyForests(keys, eval.Len())
	if workers < 2 || !sgbAnyParallel(eval, opt, f, workers) {
		sgbAnyLocal(eval, opt, f)
	}
	inv := invertPerm(perm)
	out := make([][]Group, len(keys))
	for l, uf := range f.ufs {
		out[l] = groupsFromUF(uf, inv)
	}
	return out
}

// anyForests is the Union-Find state of one SGB-Any evaluation: one
// forest per ε level over the same points, levels ascending, keys[l]
// being level l's threshold in DistKey space. An ε-edge of one level is
// an edge of every level above it, so each level's partition refines
// the next one's; union keeps that true and relies on it.
type anyForests struct {
	keys []float64
	ufs  []*unionfind.UF
	// trees, when set, keeps a spanning tree of every set of every level
	// beside its partition (anyTree): the state a maintained evaluator
	// repairs on Remove. One-shot evaluations leave it nil.
	trees []anyTree
}

func newAnyForests(keys []float64, n int) *anyForests {
	f := &anyForests{keys: keys, ufs: make([]*unionfind.UF, len(keys))}
	for l := range f.ufs {
		f.ufs[l] = unionfind.New(n)
	}
	return f
}

// union records the edge (i, j) of comparison key key, which must not
// exceed the top level's: i and j join at the lowest level whose
// threshold the key does not exceed and at each level above it, up to
// the first where they already share a set — they share one at every
// higher level too, as each level refines the next. It returns the
// number of merges.
func (f *anyForests) union(i, j int, key float64) int64 {
	b := 0
	for key > f.keys[b] {
		b++
	}
	var merged int64
	for l := b; l < len(f.ufs); l++ {
		uf := f.ufs[l]
		sets := uf.Count()
		if uf.Union(i, j); uf.Count() == sets {
			break
		}
		if f.trees != nil {
			f.trees[l].link(i, j)
		}
		merged++
	}
	return merged
}

// anyTree is the spanning forest of one level's partition: every pair
// whose union merged two sets is an edge, kept in a list of one of its
// endpoints, and the members of each set form one cycle of ring. The
// ring lists a set without a scan, and the edges say how it falls apart
// when points leave (AnyEvaluator.Remove).
type anyTree struct {
	ring  []int32 // stored position → next member of its set
	head  []int32 // stored position → first edge it keeps, -1 for none
	edges []anyEdge
	free  int32 // first unused slot of edges, -1 for none; chained by next
}

// anyEdge is one forest edge in its keeper's list: the other endpoint
// and the keeper's next edge (-1 ends the list).
type anyEdge struct{ to, next int32 }

// newAnyTree returns the edgeless forest over n positions.
func newAnyTree(n int) anyTree {
	t := anyTree{ring: make([]int32, n), head: make([]int32, n), free: -1}
	for i := range t.ring {
		t.ring[i], t.head[i] = int32(i), -1
	}
	return t
}

// grow adds one position, a singleton.
func (t *anyTree) grow() {
	t.ring = append(t.ring, int32(len(t.ring)))
	t.head = append(t.head, -1)
}

// splice joins the cycles of i and j, which must be two.
func (t *anyTree) splice(i, j int) { t.ring[i], t.ring[j] = t.ring[j], t.ring[i] }

// link records the edge (i, j), kept by i, that just merged their sets.
func (t *anyTree) link(i, j int) {
	t.splice(i, j)
	e := anyEdge{to: int32(j), next: t.head[i]}
	if k := t.free; k >= 0 {
		t.free, t.edges[k] = t.edges[k].next, e
		t.head[i] = k
		return
	}
	t.head[i] = int32(len(t.edges))
	t.edges = append(t.edges, e)
}

// appendSet appends the members of x's set to dst, x first.
func (t *anyTree) appendSet(dst []int32, x int32) []int32 {
	for y := x; ; {
		dst = append(dst, y)
		if y = t.ring[y]; y == x {
			return dst
		}
	}
}

// mortonMinPoints is the input size below which Morton preprocessing is
// skipped: the sort + gather cannot pay for itself on a handful of
// points.
const mortonMinPoints = 32

// mortonPermFor decides whether to Z-order an SGB-Any input and returns
// the permutation (nil = evaluate in input order). Only the grid
// strategy profits — its probe locality is exactly cell adjacency — so
// the explicitly named comparison strategies keep their evaluation
// shape. AnyEvaluator.Append applies the same rule per batch: stored
// order, and so checkpoint bytes, are a function of the options alone.
func mortonPermFor(ps *geom.PointSet, opt Options) []int32 {
	if opt.Algorithm != GridIndex || ps.Len() < mortonMinPoints {
		return nil
	}
	return geom.MortonPerm(ps, opt.Eps)
}

// ErrBoundsCheckAny rejects the one strategy × semantics combination
// that does not exist; exported so callers configuring SGB-Any (the
// incremental handle, the planner) can reject it eagerly with the same
// error.
var ErrBoundsCheckAny error = errValue("core: SGB-Any has no Bounds-Checking variant (see Section 7.1); use AllPairs, OnTheFlyIndex, or GridIndex")

type errValue string

func (e errValue) Error() string { return string(e) }

// anyIndex is one Points_IX strategy of the one-shot strategy
// comparison: step absorbs point i — it finds i's within-ε neighbors
// among the points absorbed before it, merges their components in uf,
// and registers i for future probes. Maintained evaluation
// (AnyEvaluator) always runs on the concrete *anyGrid, which drives the
// very same step, so appending batches cannot drift from a one-shot run.
type anyIndex interface {
	step(ps *geom.PointSet, i int, opt Options, uf *unionfind.UF)
}

// newAnyIndex instantiates the Points_IX strategy selected by the
// options (BoundsCheck is rejected earlier; see errBoundsCheckAny).
// sizeHint presizes the grid directory to the input size.
func newAnyIndex(dims, sizeHint int, opt Options) anyIndex {
	switch opt.Algorithm {
	case AllPairs:
		return anyAllPairs{}
	case OnTheFlyIndex:
		return &anyRTree{ix: rtree.New(dims)}
	case GridIndex:
		return newAnyGrid(dims, sizeHint, opt.Eps)
	default:
		panic("core: unknown SGB-Any algorithm")
	}
}

// anyAllPairs is the naive baseline: every prior point is tested
// against the incoming point (O(n²) distance computations over a full
// run).
type anyAllPairs struct{}

func (anyAllPairs) step(ps *geom.PointSet, i int, opt Options, uf *unionfind.UF) {
	metric, eps := opt.Metric, opt.Eps
	p := ps.At(i)
	for j := 0; j < i; j++ {
		opt.Stats.addDist(1)
		if metric.Within(p, ps.At(j), eps) {
			if uf.Find(i) != uf.Find(j) {
				opt.Stats.addMerge(1)
			}
			uf.Union(i, j)
		}
	}
}

// anyRTree is Procedure 7/8: Points_IX maintains the processed points
// in an R-tree; for each incoming point a window query retrieves the
// points inside its ε-box, VerifyPoints confirms each by its distance,
// and GetGroups/MergeGroupsInsert collapse the candidate groups through
// the Union-Find forest.
type anyRTree struct {
	ix *rtree.Tree
	// ids stores point ids pre-boxed so the per-point index insert does
	// not allocate an interface value.
	ids  []any
	pBox geom.Rect
}

func (a *anyRTree) step(ps *geom.PointSet, i int, opt Options, uf *unionfind.UF) {
	for len(a.ids) <= i {
		a.ids = append(a.ids, len(a.ids))
	}
	p := ps.At(i)
	geom.EpsBoxInto(&a.pBox, p, opt.Eps)
	opt.Stats.addProbe(1)
	a.ix.Visit(a.pBox, func(_ geom.Rect, data any) bool {
		j := data.(int)
		// VerifyPoints under both metrics: the ε-box over-approximates
		// the ε-ball under L2, and under L∞ its rounded corners p ± ε
		// can admit a point whose distance rounds past ε.
		opt.Stats.addDist(1)
		if !ps.Within(opt.Metric, i, j, opt.Eps) {
			return true
		}
		if uf.Find(i) != uf.Find(j) {
			opt.Stats.addMerge(1)
			uf.Union(i, j)
		}
		return true
	})
	opt.Stats.addUpdate(1)
	a.ix.Insert(geom.PointRect(p), a.ids[i])
}

// anyGrid is the ε-grid Points_IX: each processed point is registered
// in its home cell, and the neighbors of an incoming point are found by
// scanning the 3^d cells its ε-box covers. The cell neighborhood
// over-approximates the ε-ball under both metrics, so every hit is
// verified by an exact distance test. Union-Find merging is
// order-independent, so the resulting components are identical to the
// other strategies — and, unlike the SGB-All finder, the probe needs no
// sort or dedup: each point lives in exactly one cell, and merge order
// cannot influence the components.
//
// It is also the one index under maintained evaluation: stepLevels
// absorbs an appended point at every level, remove unregisters a
// deleted point, and add registers one without probing (the compaction
// and restore rebuilds, where components are already known).
type anyGrid struct {
	tab *grid.Table
	cur grid.Cursor
	buf []int32
}

// newAnyGrid presizes the directory for sizeHint points (0: grow).
func newAnyGrid(dims, sizeHint int, eps float64) *anyGrid {
	return &anyGrid{tab: grid.NewCap(dims, eps, sizeHint)}
}

func (a *anyGrid) step(ps *geom.PointSet, i int, opt Options, uf *unionfind.UF) {
	metric, eps := opt.Metric, opt.Eps
	p := ps.At(i)
	opt.Stats.addProbe(1)
	a.buf = a.tab.CollectBox(&a.cur, p, eps, a.buf[:0])
	for _, j32 := range a.buf {
		j := int(j32)
		opt.Stats.addDist(1)
		if !metric.Within(p, ps.At(j), eps) {
			continue
		}
		if uf.Find(i) != uf.Find(j) {
			opt.Stats.addMerge(1)
			uf.Union(i, j)
		}
	}
	opt.Stats.addUpdate(1)
	a.tab.AddPoint(p, int32(i))
}

// stepLevels is step over every level of f at once: point i probes at
// the top level's ε (opt.Eps), and each candidate within it joins i at
// the levels its key reaches (anyForests.union).
func (a *anyGrid) stepLevels(ps *geom.PointSet, i int, opt Options, f *anyForests) {
	metric, top := opt.Metric, f.keys[len(f.keys)-1]
	p := ps.At(i)
	opt.Stats.addProbe(1)
	a.buf = a.tab.CollectBox(&a.cur, p, opt.Eps, a.buf[:0])
	for _, j32 := range a.buf {
		j := int(j32)
		opt.Stats.addDist(1)
		if key := ps.DistKey(metric, i, j); key <= top {
			opt.Stats.addMerge(f.union(i, j, key))
		}
	}
	opt.Stats.addUpdate(1)
	a.tab.AddPoint(p, int32(i))
}

func (a *anyGrid) remove(ps *geom.PointSet, i int, opt Options) {
	opt.Stats.addUpdate(1)
	a.tab.RemovePoint(ps.At(i), int32(i))
}

func (a *anyGrid) add(ps *geom.PointSet, i int, opt Options) {
	opt.Stats.addUpdate(1)
	a.tab.AddPoint(ps.At(i), int32(i))
}

// groupsFromUF extracts the partition of the stored positions live
// (nil: every position of uf, in order), reporting each point by its
// index in live (live[id] = stored position of the point with output
// id): groups ordered by smallest output id, members ascending. The
// one-shot run (nil), the Morton-permuted one (the inverse permutation)
// and the decremental evaluator (surviving positions in arrival order)
// all extract here, the first two for every level of a sweep. Two
// passes: the first gives each point its group's slot and counts group
// sizes, the second fills one backing array carved into exact-capacity
// member slices — no per-member append regrowth, and appending to one
// group's Members reallocates it rather than overwriting a neighbour's.
func groupsFromUF(uf *unionfind.UF, live []int32) []Group {
	n := len(live)
	if live == nil {
		n = uf.Len()
	}
	slot := make([]int32, uf.Len()) // root → its group's slot + 1
	of := make([]int32, n)          // output id → its group's slot
	sizes := make([]int, 0, min(n, uf.Count()))
	for o := range of {
		pos := o
		if live != nil {
			pos = int(live[o])
		}
		r := uf.Find(pos)
		if slot[r] == 0 {
			sizes = append(sizes, 0)
			slot[r] = int32(len(sizes))
		}
		s := slot[r] - 1
		sizes[s]++
		of[o] = s
	}
	if len(sizes) == 0 {
		return nil // as an empty one-shot Result has it
	}
	backing := make([]int, n)
	groups := make([]Group, len(sizes))
	off := 0
	for s, sz := range sizes {
		groups[s].Members = backing[off : off : off+sz]
		off += sz
	}
	for o, s := range of {
		groups[s].Members = append(groups[s].Members, o)
	}
	return groups
}

// invertPerm returns the inverse of a Morton permutation (perm[pos] =
// original input index; nil stays nil). Passed to groupsFromUF as live,
// it reports components over permuted positions as an unpermuted run
// would: groups ordered by smallest original member, members ascending
// in original input order.
func invertPerm(perm []int32) []int32 {
	if perm == nil {
		return nil
	}
	inv := make([]int32, len(perm))
	for pos, orig := range perm {
		inv[orig] = int32(pos)
	}
	return inv
}
