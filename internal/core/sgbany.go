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
	if err := CheckPoints(points); err != nil {
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
	res.Groups = sgbAnyLevels(ps, opt, []float64{opt.Eps}, opt.workers(ps.Len()))[0]
	return res, nil
}

// SweepAny answers SGB-Any at every ε level of epsList in one
// evaluation with one Union-Find per level (anyForests): under the grid
// each level starts from the one below and links ε-cells (cellGraph);
// under All-Pairs and the R-tree one probe pass at the largest level
// joins each pair at the levels its distance reaches. Results align
// with epsList's order, each member for member equal to SGBAny at that
// level. opt.Eps is ignored (the list's
// largest level is the probe radius). The evaluation runs the finder
// opt.Algorithm names, and Parallelism resolves, as for SGBAny; like
// SGBAny it rejects BoundsCheck. A cached sweep, whose later ε lists
// are unknown, keeps the same level forests maintained instead
// (NewAnyLevels) and adds a level when one is asked for
// (AnyEvaluator.AddLevel).
func SweepAny(points []geom.Point, epsList []float64, opt Options) ([]*Result, error) {
	if err := CheckPoints(points); err != nil {
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
	// Every level obeys the rule a single ε does: its ε is validated,
	// and the coordinates are checked against the smallest, whose cells
	// are the most.
	for _, i := range order {
		opt.Eps = epsList[i]
		if err := opt.Validate(); err != nil {
			return nil, err
		}
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
	if err := checkCoords(ps, epsList[order[0]]); err != nil {
		return nil, err
	}
	eps := make([]float64, len(order))
	for l, i := range order {
		eps[l] = epsList[i]
	}
	for l, groups := range sgbAnyLevels(ps, opt, eps, opt.workers(ps.Len())) {
		out[order[l]] = &Result{Groups: groups}
	}
	return out, nil
}

// sgbAnyLevels is SGB-Any's one-shot evaluation, behind the single-ε
// operator (one level) and the one-shot ε sweep alike. eps are the
// levels, ascending; opt.Eps is ignored. It returns each level's groups
// in eps' order. With more than one worker and more than one level the
// levels are split into contiguous ranges evaluated in parallel
// (sgbAnyByLevel); otherwise they are evaluated inline, the grid
// starting each level from the one below (cellGraph).
func sgbAnyLevels(ps *geom.PointSet, opt Options, eps []float64, workers int) [][]Group {
	out := make([][]Group, len(eps))
	if w := min(workers, len(eps)); w > 1 {
		sgbAnyByLevel(ps, opt, eps, out, w)
	} else {
		anyRange(ps, opt, eps, out)
	}
	return out
}

// anyForests is the Union-Find state of one SGB-Any evaluation: one
// forest per ε level over the same points, levels ascending, keys[l]
// being level l's threshold in DistKey space. An ε-edge of one level is
// an edge of every level above it, so each level's partition refines
// the next one's; anyJoin.link keeps that true and relies on it.
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

// level returns the lowest level whose threshold is at least key, which
// must not exceed the top level's: the one rule for "at which levels
// does this pair join". The scan starts at the top, where most pairs a
// top-ε probe finds land — they fill the outer rings of its ball.
func (f *anyForests) level(key float64) int {
	b := len(f.keys) - 1
	for b > 0 && key <= f.keys[b-1] {
		b--
	}
	return b
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

// mortonPermFor decides whether AnyEvaluator.Append absorbs a batch in
// the Z-order of its ε-cells and returns the permutation (nil = in
// arrival order): consecutive probes of its ε-grid then touch
// neighbouring cells. Only the grid strategy profits, its probe
// locality being exactly cell adjacency, so the rule follows the
// options alone and so does stored order. (A one-shot grid run orders
// points by cell itself, cellGraph.)
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

// anyIndex is a Points_IX of SGB-Any, a source of candidates: collect
// appends to buf the ids of the points added before point i that may lie
// within opt.Eps of it — a superset, which the join verifies by key —
// and add registers point i for later probes. All-Pairs, the R-tree and
// the ε-grid differ only here: a one-shot evaluation under the first
// two, single-ε or sweep, absorbs its points through one join
// (anyJoin.step), as a maintained evaluator (AnyEvaluator) does on the
// grid, its one index. A one-shot grid evaluation links ε-cells instead
// (cellGraph); components do not depend on how their edges were found.
type anyIndex interface {
	collect(ps *geom.PointSet, i int, opt Options, buf []int32) []int32
	add(ps *geom.PointSet, i int, opt Options)
}

// newAnyIndex instantiates the point-probing index the options name:
// All-Pairs or the R-tree (BoundsCheck is rejected earlier, see
// ErrBoundsCheckAny; a one-shot grid run links cells instead,
// cellGraph, and a maintained one keeps its own anyGrid).
func newAnyIndex(dims int, opt Options) anyIndex {
	switch opt.Algorithm {
	case AllPairs:
		return anyAllPairs{}
	case OnTheFlyIndex:
		return &anyRTree{ix: rtree.New(dims)}
	default:
		panic("core: unknown SGB-Any algorithm")
	}
}

// anyAllPairs is the naive baseline: every prior point is a candidate
// (O(n²) distance computations over a full run), and it keeps no index,
// so it counts neither probes nor updates.
type anyAllPairs struct{}

func (anyAllPairs) collect(_ *geom.PointSet, i int, _ Options, buf []int32) []int32 {
	for j := 0; j < i; j++ {
		buf = append(buf, int32(j))
	}
	return buf
}

func (anyAllPairs) add(*geom.PointSet, int, Options) {}

// anyRTree is Procedure 7/8's Points_IX: the processed points live in an
// R-tree, and a window query over an incoming point's ε-box retrieves its
// candidates. The box over-approximates the ε-ball under L2, and under
// L∞ its rounded corners p ± ε can admit a point whose distance rounds
// past ε, so the join's key check (VerifyPoints) is needed under both.
type anyRTree struct {
	ix *rtree.Tree
	// ids stores point ids pre-boxed so the per-point index insert does
	// not allocate an interface value.
	ids  []any
	pBox geom.Rect
}

func (a *anyRTree) collect(ps *geom.PointSet, i int, opt Options, buf []int32) []int32 {
	geom.EpsBoxInto(&a.pBox, ps.At(i), opt.Eps)
	opt.Stats.addProbe(1)
	a.ix.Visit(a.pBox, func(_ geom.Rect, data any) bool {
		buf = append(buf, int32(data.(int)))
		return true
	})
	return buf
}

func (a *anyRTree) add(ps *geom.PointSet, i int, opt Options) {
	for len(a.ids) <= i {
		a.ids = append(a.ids, len(a.ids))
	}
	opt.Stats.addUpdate(1)
	a.ix.Insert(geom.PointRect(ps.At(i)), a.ids[i])
}

// anyGrid is the ε-grid Points_IX: each processed point is registered
// in its home cell, and the candidates of an incoming point are the
// points of the 3^d cells its ε-box covers. The cell neighborhood
// over-approximates the ε-ball under both metrics; each point lives in
// exactly one cell, so the probe needs no sort or dedup. Besides
// collect and add, a maintained evaluator unregisters a deleted point
// (remove) and registers points without probing (add, in the compaction
// rebuild, where components are already known).
type anyGrid struct {
	tab *grid.Table
	cur grid.Cursor
}

// newAnyGrid presizes the directory for sizeHint points (0: grow).
func newAnyGrid(dims, sizeHint int, eps float64) *anyGrid {
	return &anyGrid{tab: grid.NewCap(dims, eps, sizeHint)}
}

func (a *anyGrid) collect(ps *geom.PointSet, i int, opt Options, buf []int32) []int32 {
	opt.Stats.addProbe(1)
	return a.tab.CollectBox(&a.cur, ps.At(i), opt.Eps, buf)
}

func (a *anyGrid) remove(ps *geom.PointSet, i int, opt Options) {
	opt.Stats.addUpdate(1)
	a.tab.RemovePoint(ps.At(i), int32(i))
}

func (a *anyGrid) add(ps *geom.PointSet, i int, opt Options) {
	opt.Stats.addUpdate(1)
	a.tab.AddPoint(ps.At(i), int32(i))
}

// anyJoin is SGB-Any's one join: VerifyPoints and MergeGroupsInsert for
// every index, every number of levels, and a maintained evaluator's
// appends and probe passes. It holds the scratch of one probe: the
// candidates, their comparison keys, and the probing point's root at
// each level.
type anyJoin struct {
	ids   []int32
	keys  []float64
	roots []int
}

// step absorbs point i at every level of f: ix collects its candidates
// at the top level's ε (opt.Eps), each within it joins i at the levels
// its key reaches (join), and i registers for later probes.
func (j *anyJoin) step(ix anyIndex, ps *geom.PointSet, i int, opt Options, f *anyForests) {
	j.ids = ix.collect(ps, i, opt, j.ids[:0])
	j.join(ps, i, opt, f)
	ix.add(ps, i, opt)
}

// join keys the candidates in j.ids from point i in one kernel call and
// links them (link). Every candidate counts as a distance computation.
func (j *anyJoin) join(ps *geom.PointSet, i int, opt Options, f *anyForests) {
	opt.Stats.addDist(int64(len(j.ids)))
	j.keys = ps.AppendDistKeys(j.keys[:0], opt.Metric, ps.At(i), j.ids)
	opt.Stats.addMerge(j.link(i, j.ids, j.keys, f))
}

// link joins point i to each of ids whose key (keys, in DistKey space)
// is within f's top level, at the lowest level the key reaches and each
// level above it up to the first where the two already share a set —
// they share one at every higher level too, as each level refines the
// next. A candidate costs one Find: i's root at each level is read once
// and kept current across its merges. It returns the number of merges.
func (j *anyJoin) link(i int, ids []int32, keys []float64, f *anyForests) int64 {
	j.roots = j.roots[:0]
	for _, uf := range f.ufs {
		j.roots = append(j.roots, uf.Find(i))
	}
	top := f.keys[len(f.keys)-1]
	var merged int64
	for k, key := range keys {
		if key > top {
			continue
		}
		c := int(ids[k])
		for l := f.level(key); l < len(f.ufs); l++ {
			uf := f.ufs[l]
			rc := uf.Find(c)
			if rc == j.roots[l] {
				break
			}
			j.roots[l] = uf.Link(j.roots[l], rc)
			if f.trees != nil {
				f.trees[l].link(i, c)
			}
			merged++
		}
	}
	return merged
}

// groupsFromUF extracts the partition of the stored positions live
// (nil: every position of uf, in order), reporting each point by its
// index in live (live[id] = stored position of the point with output
// id): groups ordered by smallest output id, members ascending. The
// one-shot run (nil), for every level of a sweep, and the maintained
// evaluator (surviving positions in arrival order) both extract here. Two
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

// invertPerm returns the inverse of a batch's Z-order permutation
// (perm[pos] = the batch index stored at pos).
func invertPerm(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	for pos, orig := range perm {
		inv[orig] = int32(pos)
	}
	return inv
}
