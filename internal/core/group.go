package core

import (
	"math"
	"slices"

	"github.com/sgb-db/sgb/internal/convexhull"
	"github.com/sgb-db/sgb/internal/geom"
)

// group is the runtime state of one SGB-All group (the paper's
// AggHashEntry extension: a tuple store plus the bounding rectangle its
// ε-All rectangle of Definition 5 is derived from, plus the cached
// convex hull used by the L2 refinement of Procedure 6). It holds no
// pointer: the members are a list threaded through the state's next
// array, the member MBR is the state's rect row of id, and the hull a
// slot of the state's hull table, so the blocks groups live in cost the
// collector no scan and their stores no write barrier.
type group struct {
	// stamp places the group in creation order as a from-scratch run
	// numbers it: the stored index of the creating point at stage 0
	// (arrival order IS processing order there), its id at a
	// FORM-NEW-GROUP recursion stage (S′ is in deferral order, but a
	// stage starts from an empty group set and recycles no id).
	// Candidate enumeration and Result order by it, not by id: after a
	// decremental splice (decremental.go) a re-created group holds a
	// recycled or fresh id while its creator may precede an untouched
	// group's.
	stamp int

	id int32
	// head and tail are the first and last member (stored indices) in
	// join order, size the member count; st.next[m] follows member m
	// and is -1 at the tail.
	head, tail, size int32

	// hull is 1 + the slot in st.hulls of the cached 2-D convex hull
	// for the L2 refinement (0: none built yet); it is rebuilt lazily
	// after membership changes.
	hull      int32
	hullDirty bool
}

// sgbAllState carries the evolving group set of one SGB-All pass plus
// the evaluation context shared by all SGB-All strategies.
type sgbAllState struct {
	points *geom.PointSet
	opt    Options
	dims   int
	key    float64 // opt.Metric.EpsKey(opt.Eps): see near

	groups []*group // live groups by id (nil = deleted)
	finder finder   // strategy: populates candidate & overlap sets
	rand   rng
	cur    int // the point processOne is arbitrating

	// order lists the group ids by stamp, the order result reports them
	// in (ids stop being creation order at an AllEvaluator's first splice,
	// decremental.go; an emptied group's id lingers until the next one).
	// elimCause and deferCause hold, per entry of eliminated and
	// deferred, the stored index of the point whose arbitration caused it,
	// and free holds the retired groups newGroupFor recycles, id and rect
	// row included, so a sliding window does not grow the id space.
	order      []int32
	elimCause  []int32
	deferCause []int32
	free       []*group

	// rects is the flat structure-of-arrays store of the group member
	// MBRs: group id g owns the row rects[g*2d : (g+1)*2d] = [lo | hi]
	// (mbrOf). In-place maintenance writes the flat array directly,
	// while classify's filter step scans rows by id without
	// dereferencing group structs — the probe loop's former cache-miss
	// hot spot. Rows of removed groups are poisoned with +Inf so no
	// rectangle test can pass them. Only a finder that reads the rows
	// gets them (keepRects, decided by readsRects): under All-Pairs and
	// the grid's member count rects stays empty.
	rects     []float64
	keepRects bool

	// groupBlocks backs allocGroup: group structs in fixed-size blocks
	// (stable addresses, one allocation per block), the first blocksUsed
	// of them handed out; a pooled state hands its blocks out again.
	groupBlocks [][]group
	blocksUsed  int

	// depth is the FORM-NEW-GROUP recursion stage the groups belong to
	// (0 at the main pass), by which newGroupFor stamps them; outMembers
	// and outEnds are the member run of the stages before it, in the
	// layout of Result, which the stage's groups follow (run, result).
	depth               int
	outMembers, outEnds []int32

	eliminated []int // points dropped by ELIMINATE
	deferred   []int // S′: points deferred by FORM-NEW-GROUP

	// pointGroup maps each placed input index to the id of the group
	// currently holding it (-1 while unplaced, eliminated, or
	// deferred). Maintenance is one store per placement. A point is in
	// at most one group, so one next array over stored indices threads
	// every group's member list.
	pointGroup []int32
	next       []int32

	hulls       []convexhull.Hull  // the groups' cached hulls (group.hull)
	hullPts     []geom.Point       // scratch member-point views for hull rebuilds
	hullScratch convexhull.Scratch // reusable sort/chain buffers for hull rebuilds

	// Scratch reused across probes: the candidate and overlap lists,
	// processOverlap's per-member victim marks, and per group id the
	// probing point's members within ε (the grid's count; zero between
	// probes).
	cands, ovs []*group
	victim     []bool
	hits       []int32

	// scratch is the pass scratch a one-shot run or an AllEvaluator's
	// FORM-NEW-GROUP recursion was taken from (passScratch: this state
	// is its all, and run's stages use its sorted cells and grid
	// finder); nil for an AllEvaluator's retained state, which never
	// runs a whole-set pass.
	// spare is the order buffer run hands back when its stages end.
	scratch *passScratch
	spare   []int
}

// reset readies st for an empty arbitration over pts (none of them
// placed yet), keeping every buffer st already has: a pooled pass
// state's, and a new AllEvaluator state.
// pointGroup and next are sized to pts, every point unplaced. The
// finder is the caller's: run starts one per whole-set pass, and an
// AllEvaluator keeps its own for appends (newFinder).
func (st *sgbAllState) reset(pts *geom.PointSet, opt Options) {
	n := pts.Len()
	*st = sgbAllState{
		points:      pts,
		opt:         opt,
		dims:        pts.Dims(),
		key:         opt.Metric.EpsKey(opt.Eps),
		rand:        newRNG(opt.Seed),
		keepRects:   readsRects(opt),
		groups:      st.groups[:0],
		order:       st.order[:0],
		elimCause:   st.elimCause[:0],
		deferCause:  st.deferCause[:0],
		free:        st.free[:0],
		rects:       st.rects[:0],
		groupBlocks: st.groupBlocks,
		eliminated:  st.eliminated[:0],
		deferred:    st.deferred[:0],
		pointGroup:  resized(st.pointGroup, n),
		next:        resized(st.next, n),
		hullPts:     st.hullPts[:0],
		cands:       st.cands[:0],
		ovs:         st.ovs[:0],
		victim:      st.victim[:0],
		hits:        st.hits[:0],
		outMembers:  st.outMembers[:0],
		outEnds:     st.outEnds[:0],
		scratch:     st.scratch,
		spare:       st.spare,
	}
	for i := range st.pointGroup {
		st.pointGroup[i] = -1
	}
}

// readsRects reports whether the finder opt selects reads the member
// MBRs: Bounds-Checking, the R-tree and the grid under JOIN-ANY hand
// group ids to classify; All-Pairs scans members, and the grid under
// ELIMINATE and FORM-NEW-GROUP counts the members within ε.
func readsRects(opt Options) bool {
	switch opt.Algorithm {
	case BoundsCheck, OnTheFlyIndex:
		return true
	case GridIndex:
		return opt.Overlap == JoinAny
	}
	return false
}

// eliminatePoint records m as dropped by ELIMINATE.
func (st *sgbAllState) eliminatePoint(m int) {
	st.eliminated = append(st.eliminated, m)
	st.elimCause = append(st.elimCause, int32(st.cur))
}

// deferPoint records m as deferred into the FORM-NEW-GROUP set S′.
func (st *sgbAllState) deferPoint(m int) {
	st.deferred = append(st.deferred, m)
	st.deferCause = append(st.deferCause, int32(st.cur))
}

// finder abstracts FindCloseGroups over the strategies. Every
// whole-set pass — a one-shot run and each FORM-NEW-GROUP recursion
// stage — starts a fresh one on an empty group set (run).
type finder interface {
	// findCloseGroups fills candidates with groups pi may join (the
	// similarity predicate holds against every member) and, when the
	// overlap clause requires it, overlaps with groups where the
	// predicate holds for at least one but not all members. The
	// returned slices are only valid until the next findCloseGroups
	// call (they are reused across probes).
	findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group)
	// placed reports m joining g once g's MBR covers it (its first
	// member when g.size is 1), left one leaving g before g's member
	// list changes, and changed g after members left it, with its MBR
	// rebuilt, or after it was dropped (st.groups[g.id] is nil). The
	// grid registers members or anchors by placed and left, the R-tree
	// indexes groups by placed and changed.
	placed(st *sgbAllState, g *group, m int)
	left(st *sgbAllState, g *group, m int)
	changed(st *sgbAllState, g *group)
}

// noHooks is the finder hooks of a finder that keeps nothing for an
// event; each finder embeds it and overrides what it keeps.
type noHooks struct{}

func (noHooks) placed(*sgbAllState, *group, int) {}
func (noHooks) left(*sgbAllState, *group, int)   {}
func (noHooks) changed(*sgbAllState, *group)     {}

// mbrOf returns the views of group id's MBR corners in its row of the
// flat store, [lo | hi].
func (st *sgbAllState) mbrOf(id int32) geom.Rect {
	d := st.dims
	base := int(id) * 2 * d
	return geom.Rect{Min: geom.Point(st.rects[base : base+d : base+d]), Max: geom.Point(st.rects[base+d : base+2*d : base+2*d])}
}

// newRectRow appends group id's row to the flat store, when the finder
// reads rows, and initializes it for the singleton {p}. The first
// allocation is sized from the point count known when the first group
// forms: every point may end a singleton, and on sparse inputs most
// do, so the doubling is skipped where it would run longest; the clamp
// keeps a huge dense input from reserving rows it will never use.
func (st *sgbAllState) newRectRow(id int32, p geom.Point) {
	if !st.keepRects {
		return
	}
	stride := 2 * st.dims
	if cap(st.rects) == 0 {
		st.rects = make([]float64, 0, max(64, min(st.points.Len(), 1<<14))*stride)
	}
	st.rects = slices.Grow(st.rects, stride)[:len(st.rects)+stride]
	st.initRectRow(id, p)
}

// initRectRow resets group id's MBR to the singleton {p}.
func (st *sgbAllState) initRectRow(id int32, p geom.Point) {
	if st.keepRects {
		r := st.mbrOf(id)
		copy(r.Min, p)
		copy(r.Max, p)
	}
}

// extendRectRow grows group id's MBR to cover p.
func (st *sgbAllState) extendRectRow(id int32, p geom.Point) {
	if st.keepRects {
		r := st.mbrOf(id)
		r.ExtendPoint(p)
	}
}

// poisonRectRow makes every rectangle test fail for a removed group
// (hi − p and lo − p are +Inf), so a stale id never survives the filter.
func (st *sgbAllState) poisonRectRow(id int32) {
	if st.keepRects {
		r := st.mbrOf(id)
		r.Min[0], r.Max[0] = math.Inf(1), math.Inf(1)
	}
}

// allocGroup hands out group structs from fixed-size blocks: one
// allocation per groupBlockSize groups instead of one each (none once a
// pooled state's blocks are warm), and blocks never move, so the
// *group pointers held in st.groups and the probe buffers stay valid
// until endStage hands the blocks out again.
func (st *sgbAllState) allocGroup() *group {
	const groupBlockSize = 256
	if n := st.blocksUsed; n == 0 || len(st.groupBlocks[n-1]) == groupBlockSize {
		if n == len(st.groupBlocks) {
			st.groupBlocks = append(st.groupBlocks, make([]group, 0, groupBlockSize))
		}
		st.groupBlocks[n] = st.groupBlocks[n][:0]
		st.blocksUsed++
	}
	blk := &st.groupBlocks[st.blocksUsed-1]
	*blk = append(*blk, group{})
	return &(*blk)[len(*blk)-1]
}

// appendMember links m behind g's last member.
func (st *sgbAllState) appendMember(g *group, m int) {
	st.next[m] = -1
	if g.size == 0 {
		g.head = int32(m)
	} else {
		st.next[g.tail] = int32(m)
	}
	g.tail = int32(m)
	g.size++
}

// appendMembers appends g's members, in join order, to dst.
func (st *sgbAllState) appendMembers(dst []int32, g *group) []int32 {
	for m := g.head; m >= 0; m = st.next[m] {
		dst = append(dst, m)
	}
	return dst
}

// appendGroups appends the groups, in creation order (the order list),
// to a member run and its ends, as Result lays them out.
func (st *sgbAllState) appendGroups(members, ends []int32) ([]int32, []int32) {
	for _, id := range st.order {
		if g := st.groups[id]; g != nil {
			members = st.appendMembers(members, g)
			ends = append(ends, int32(len(members)))
		}
	}
	return members, ends
}

// endStage closes a FORM-NEW-GROUP stage: its groups are final, so they
// join the member run (outMembers) and are dropped — their members
// unplaced, their group blocks, rect rows and hull slots handed out
// again by the next stage, which starts from an empty group set.
func (st *sgbAllState) endStage() {
	from := len(st.outMembers)
	st.outMembers, st.outEnds = st.appendGroups(st.outMembers, st.outEnds)
	for _, m := range st.outMembers[from:] {
		st.pointGroup[m] = -1
	}
	st.groups, st.order, st.rects, st.hulls = st.groups[:0], st.order[:0], st.rects[:0], st.hulls[:0]
	st.blocksUsed = 0
}

// newGroupFor creates a fresh singleton group for point pi, on a
// retired group's id and storage when the decremental splice left one.
func (st *sgbAllState) newGroupFor(pi int) *group {
	p := st.points.At(pi)
	var g *group
	if n := len(st.free); n > 0 {
		g, st.free = st.free[n-1], st.free[:n-1]
		st.initRectRow(g.id, p)
		st.groups[g.id] = g
	} else {
		g = st.allocGroup()
		g.id = int32(len(st.groups))
		st.newRectRow(g.id, p)
		st.groups = append(st.groups, g)
	}
	g.size = 0
	st.appendMember(g, pi)
	g.stamp = pi
	if st.depth > 0 { // a recursion stage: see group.stamp
		g.stamp = int(g.id)
	}
	g.hullDirty = true
	st.pointGroup[pi] = g.id
	st.order = append(st.order, g.id)
	st.opt.Stats.addCreated(1)
	st.finder.placed(st, g, pi)
	return g
}

// retireGroup drops a whole group ahead of a local replay: its members
// become unplaced, the finder forgets it, and its id and storage go to
// the free list.
func (st *sgbAllState) retireGroup(g *group) {
	for m := g.head; m >= 0; m = st.next[m] {
		st.finder.left(st, g, int(m))
		st.pointGroup[m] = -1
	}
	st.groups[g.id] = nil
	st.poisonRectRow(g.id)
	st.finder.changed(st, g)
	st.free = append(st.free, g)
}

// sortByStamp puts a probe's candidate or overlap list into creation
// order, the order every strategy must enumerate in: JOIN-ANY draws an
// index into the candidate list, and ELIMINATE / FORM-NEW-GROUP emit
// victims overlap group by overlap group. The lists hold a handful of
// groups and arrive sorted or nearly so.
func sortByStamp(gs []*group) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && gs[j].stamp < gs[j-1].stamp; j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}

// insert adds pi to g and extends the member MBR to it in place — no
// allocation on the per-point hot path. The ε-All rectangle derived
// from it shrinks to the intersection with pi's ε-box (Figures 5c–5e);
// maintenance is O(d) per insert, as the paper notes.
func (st *sgbAllState) insert(pi int, g *group) {
	p := st.points.At(pi)
	st.appendMember(g, pi)
	st.pointGroup[pi] = g.id
	st.extendRectRow(g.id, p)
	st.finder.placed(st, g, pi)
	// The cached convex hull stays valid when the new member lies
	// inside it — the common case in dense groups, and the reason the
	// hull refinement's amortized cost stays near the paper's
	// O(log log k) per test instead of an O(k log k) rebuild per insert.
	if !g.hullDirty && (g.hull == 0 || len(p) != 2 || !st.hulls[g.hull-1].Contains(p)) {
		g.hullDirty = true
	}
}

// removeMembers deletes from g the members whose victims mark is set
// (victims is aligned with g's members in join order), rebuilding the
// group's MBR from the survivors. Empty groups are dropped. Used by
// ELIMINATE and FORM-NEW-GROUP overlap processing.
func (st *sgbAllState) removeMembers(g *group, victims []bool) {
	k := 0
	for m := g.head; m >= 0; m = st.next[m] {
		if victims[k] {
			st.finder.left(st, g, int(m))
			st.pointGroup[m] = -1
		}
		k++
	}
	prev := int32(-1)
	k = 0
	for m := g.head; m >= 0; k++ {
		nx := st.next[m]
		switch {
		case !victims[k]:
			prev = m
		case prev < 0:
			g.head = nx
		default:
			st.next[prev] = nx
		}
		if victims[k] {
			g.size--
		}
		m = nx
	}
	g.tail = prev
	if g.size == 0 {
		st.groups[g.id] = nil
		st.poisonRectRow(g.id)
	} else if st.keepRects {
		st.initRectRow(g.id, st.points.At(int(g.head)))
		for m := st.next[g.head]; m >= 0; m = st.next[m] {
			st.extendRectRow(g.id, st.points.At(int(m)))
		}
	}
	g.hullDirty = true
	st.finder.changed(st, g)
}

// hullOf returns the cached convex hull of g, rebuilding it if stale.
// Only meaningful in two dimensions. The hull is valid until the next
// hullOf call (a new slot may move the table).
func (st *sgbAllState) hullOf(g *group) *convexhull.Hull {
	if g.hull == 0 {
		st.hulls = slices.Grow(st.hulls, 1)[:len(st.hulls)+1] // a dropped stage's slot keeps its storage
		g.hull = int32(len(st.hulls))
		g.hullDirty = true
	}
	h := &st.hulls[g.hull-1]
	if g.hullDirty {
		pts := st.hullPts[:0]
		for m := g.head; m >= 0; m = st.next[m] {
			pts = append(pts, st.points.At(int(m)))
		}
		st.hullPts = pts
		// Rebuild in place: the group's vertex storage and the state's
		// sort/chain scratch are both reused, so large-group rebuilds
		// stop allocating once the buffers have grown.
		st.hullScratch.ComputeInto(h, pts)
		g.hullDirty = false
	}
	return h
}

// classify is the filter-and-verify step of Procedures 4–6, shared by
// every rectangle finder (Bounds-Checking, the R-tree, and the ε-grid
// under JOIN-ANY) so the strategies cannot drift apart: they differ
// only in which group ids they hand it. One pass over the flat MBR rows
// [lo | hi] by id runs the PointInRectangleTest (p inside the ε-All
// rectangle), hi − p ≤ ε ∧ p − lo ≤ ε on every axis, and when the
// overlap clause needs it the OverlapRectangleTest (p's ε-box meets the
// MBR), lo − p ≤ ε ∧ p − hi ≤ ε. Rounding is monotone, so hi − p is the
// largest member − p: under L∞ the first test is All-Pairs' DistKey ≤
// EpsKey against every member, exactly; under L2 a pair within ε by the
// key is within ε on every axis (geom's TestDistKeyBoundsEveryAxis), so
// both tests are conservative. A row that passes the first passes the
// second (lo ≤ hi, and rounding is monotone), so with overlaps the
// second runs first and a rejected id costs one test. Rows are read
// without dereferencing group structs. A survivor is kept in ids as
// id<<1, with the low bit set when only the overlap test passed. Then
// refine decides candidacy by the key, and a member scan
// (overlapsWith) decides overlap for the rest. ids is overwritten; the
// returned lists are valid until the next call.
func (st *sgbAllState) classify(pi int, ids []int32) (candidates, overlaps []*group) {
	p := st.points.At(pi)
	needOverlap := st.opt.Overlap != JoinAny
	eps := st.opt.Eps
	d := st.dims
	stride := 2 * d
	rects := st.rects
	kept := ids[:0]
	for _, id := range ids {
		lo, hi := rects[int(id)*stride:], rects[int(id)*stride+d:]
		st.opt.Stats.addRect(1)
		if needOverlap {
			if !within(lo, hi, p, eps) {
				continue
			}
			st.opt.Stats.addRect(1)
			if !within(hi, lo, p, eps) {
				kept = append(kept, id<<1|1)
				continue
			}
		} else if !within(hi, lo, p, eps) {
			continue
		}
		kept = append(kept, id<<1)
	}
	st.cands, st.ovs = st.cands[:0], st.ovs[:0]
	for _, k := range kept {
		gj := st.groups[k>>1]
		if k&1 == 0 && st.refine(pi, gj) {
			st.cands = append(st.cands, gj)
		} else if needOverlap && st.overlapsWith(pi, gj) {
			st.ovs = append(st.ovs, gj)
		}
	}
	return st.cands, st.ovs
}

// within reports a − p ≤ r and p − b ≤ r on every axis: for an MBR row
// [lo | hi], within(hi, lo, …) is classify's PointInRectangleTest and
// within(lo, hi, …) its OverlapRectangleTest. A poisoned row (+Inf)
// fails both.
func within(a, b []float64, p geom.Point, r float64) bool {
	a, b = a[:len(p)], b[:len(p)]
	for i, v := range p {
		if a[i]-v > r || v-b[i] > r {
			return false
		}
	}
	return true
}

// near is the similarity predicate ξδ,ε between stored points i and j,
// the one membership test of SGB-All: their distance key against ε's
// (Metric.DistKey ≤ Metric.EpsKey; squares under L2, so no square root
// can round a distance onto ε). The hull refinement compares against
// the same key.
func (st *sgbAllState) near(i, j int) bool {
	return st.points.DistKey(st.opt.Metric, i, j) <= st.key
}

// isCandidate reports whether pi may join g: the similarity predicate
// must hold against every member. The strategy-independent exact check;
// bounds-based strategies call it only for refinement.
func (st *sgbAllState) isCandidate(pi int, g *group) bool {
	for m := g.head; m >= 0; m = st.next[m] {
		st.opt.Stats.addDist(1)
		if !st.near(pi, int(m)) {
			return false
		}
	}
	return true
}

// overlapsWith reports whether pi is within ε of at least one member of
// g (the OverlapGroups membership criterion, given pi is not a
// candidate).
func (st *sgbAllState) overlapsWith(pi int, g *group) bool {
	for m := g.head; m >= 0; m = st.next[m] {
		st.opt.Stats.addDist(1)
		if st.near(pi, int(m)) {
			return true
		}
	}
	return false
}
