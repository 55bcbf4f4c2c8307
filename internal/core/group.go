package core

import (
	"math"

	"github.com/sgb-db/sgb/internal/convexhull"
	"github.com/sgb-db/sgb/internal/geom"
)

// group is the runtime state of one SGB-All group (the paper's
// AggHashEntry extension: a tuple store plus the bounding rectangle its
// ε-All rectangle of Definition 5 is derived from, plus the cached
// convex hull used by the L2 refinement of Procedure 6).
type group struct {
	id      int
	members []int // input indices in join order

	// stamp places the group in creation order as a from-scratch run
	// numbers it: the stored index of the creating point at stage 0
	// (arrival order IS processing order there), points.Len() + id at a
	// FORM-NEW-GROUP recursion stage (later than every stage-0 stamp,
	// and ids only grow within a recursion). Candidate enumeration and
	// Result order by it, not by id: after a decremental splice
	// (decremental.go) a re-created group holds a recycled or fresh id
	// while its creator may precede an untouched group's.
	stamp int

	// mbr is the minimum bounding rectangle [lo, hi] of the members,
	// the one rectangle a group keeps: its ε-All rectangle R_{ε-All}
	// (Definition 5, the intersection of the members' ε-boxes) is
	// [hi − ε, lo + ε], which classify tests and the R-tree indexes.
	// The corners view the state's flat rect-row store (rects).
	mbr geom.Rect

	// hull caches the 2-D convex hull for the L2 refinement; it is
	// rebuilt lazily after membership changes.
	hull      *convexhull.Hull
	hullDirty bool
}

// sgbAllState carries the evolving group set plus the evaluation
// context shared by all SGB-All strategies.
type sgbAllState struct {
	points *geom.PointSet
	opt    Options
	dims   int
	key    float64 // opt.Metric.EpsKey(opt.Eps): see near

	groups []*group // live groups by id (nil = deleted)
	finder finder   // strategy: populates candidate & overlap sets
	rand   *rng
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
	// MBRs: group id g owns the row rects[g*2d : (g+1)*2d] = [lo | hi].
	// Each group's mbr corners are views into its row, so the in-place
	// maintenance (ExtendPoint) writes the flat array directly, while
	// classify's filter step scans rows by id without dereferencing
	// group structs — the probe loop's former cache-miss hot spot. Rows
	// of removed groups are poisoned with +Inf so no rectangle test can
	// pass them.
	rects []float64

	// groupBlocks backs allocGroup: group structs pooled in fixed-size
	// blocks (stable addresses, one allocation per block).
	groupBlocks [][]group

	// stageFloor is the first group id of the current FORM-NEW-GROUP
	// recursion stage (0 at the main pass): points of the deferred set
	// S′ form new groups among themselves only (Example 1 puts the
	// overlapping point a5 into a fresh singleton group g3 even though
	// it is within ε of g1 and g2). Bounds-Checking and All-Pairs start
	// their scans there, the index-backed finders, fresh at each stage
	// (run), number their per-group state from it, and newGroupFor
	// stamps a stage's groups by it.
	stageFloor int

	eliminated []int // points dropped by ELIMINATE
	deferred   []int // S′: points deferred by FORM-NEW-GROUP

	// pointGroup maps each placed input index to the id of the group
	// currently holding it (-1 while unplaced, eliminated, or
	// deferred). Maintenance is one store per placement.
	pointGroup []int32

	hullPts     []geom.Point       // scratch member-point views for hull rebuilds
	hullScratch convexhull.Scratch // reusable sort/chain buffers for hull rebuilds

	// Scratch reused across probes: the candidate and overlap lists,
	// processOverlap's per-member victim marks, and per group id the
	// probing point's members within ε (the grid's count; zero between
	// probes).
	cands, ovs []*group
	victim     []bool
	hits       []int32

	// sorted is the GridIndex cell index of the whole-set passes, kept
	// from stage to stage so that a run sizes it once (nil until the
	// first such pass).
	sorted *sortedCells
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
// stage — starts a fresh one (run), so the groups an index-backed
// finder answers with are its own pass's; the Bounds-Checking and
// All-Pairs scans start at the stage floor.
type finder interface {
	// findCloseGroups fills candidates with groups pi may join (the
	// similarity predicate holds against every member) and, when the
	// overlap clause requires it, overlaps with groups where the
	// predicate holds for at least one but not all members. The
	// returned slices are only valid until the next findCloseGroups
	// call (they are reused across probes).
	findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group)
	// placed and left report a member joining g (its first when g is
	// new) and, before g's member list changes, one leaving it; the
	// grid registers members or anchors by them. groupCreated /
	// groupChanged / groupRemoved report whole-group mutations, which
	// the R-tree indexes.
	placed(st *sgbAllState, g *group, m int)
	left(st *sgbAllState, g *group, m int)
	groupCreated(st *sgbAllState, g *group)
	groupChanged(st *sgbAllState, g *group)
	groupRemoved(st *sgbAllState, g *group)
}

// noHooks is the finder hooks of a finder that keeps nothing for an
// event; each finder embeds it and overrides what it keeps.
type noHooks struct{}

func (noHooks) placed(*sgbAllState, *group, int)  {}
func (noHooks) left(*sgbAllState, *group, int)    {}
func (noHooks) groupCreated(*sgbAllState, *group) {}
func (noHooks) groupChanged(*sgbAllState, *group) {}
func (noHooks) groupRemoved(*sgbAllState, *group) {}

// rectStride is the flat rect-row width: one rectangle of two corners.
func (st *sgbAllState) rectStride() int { return 2 * st.dims }

// bindRectRow points g's MBR views at its row of the flat store.
func (st *sgbAllState) bindRectRow(g *group) {
	d := st.dims
	base := g.id * st.rectStride()
	row := st.rects[base : base+2*d : base+2*d]
	g.mbr.Min = geom.Point(row[0*d : 1*d : 1*d])
	g.mbr.Max = geom.Point(row[1*d : 2*d : 2*d])
}

// newRectRow appends g's row to the flat store and initializes it for
// the singleton {p}. When the append would move the backing array,
// every live group's views are rebound first — amortized O(1) per
// group over the geometric growth. The first allocation is sized from
// the point count known when the first group forms: every point may
// end a singleton, and on sparse inputs most do, so the doubling (and
// its rebinds) is skipped where it would run longest; the clamp keeps
// a huge dense input from reserving rows it will never use.
func (st *sgbAllState) newRectRow(g *group, p geom.Point) {
	stride := st.rectStride()
	if len(st.rects)+stride > cap(st.rects) {
		newCap := 2 * cap(st.rects)
		if newCap == 0 {
			newCap = max(64, min(st.points.Len(), 1<<14)) * stride
		}
		grown := make([]float64, len(st.rects), newCap)
		copy(grown, st.rects)
		st.rects = grown
		for _, og := range st.groups {
			if og != nil {
				st.bindRectRow(og)
			}
		}
	}
	st.rects = st.rects[:len(st.rects)+stride]
	st.bindRectRow(g)
	st.initRectRow(g, p)
}

// initRectRow resets g's MBR to the singleton {p}.
func (st *sgbAllState) initRectRow(g *group, p geom.Point) {
	copy(g.mbr.Min, p)
	copy(g.mbr.Max, p)
}

// poisonRectRow makes every rectangle test fail for a removed group
// (hi − p and lo − p are +Inf), so a stale id never survives the filter.
func (st *sgbAllState) poisonRectRow(g *group) {
	g.mbr.Min[0] = math.Inf(1)
	g.mbr.Max[0] = math.Inf(1)
}

// allocGroup hands out group structs from fixed-size blocks: one
// allocation per groupBlockSize groups instead of one each, and blocks
// never move, so the *group pointers held in st.groups and the probe
// buffers stay valid for the state's lifetime.
func (st *sgbAllState) allocGroup() *group {
	const groupBlockSize = 128
	if n := len(st.groupBlocks); n == 0 || len(st.groupBlocks[n-1]) == cap(st.groupBlocks[n-1]) {
		st.groupBlocks = append(st.groupBlocks, make([]group, 0, groupBlockSize))
	}
	blk := &st.groupBlocks[len(st.groupBlocks)-1]
	*blk = append(*blk, group{})
	return &(*blk)[len(*blk)-1]
}

// newGroupFor creates a fresh singleton group for point pi, on a
// retired group's id and storage when the decremental splice left one.
func (st *sgbAllState) newGroupFor(pi int) *group {
	p := st.points.At(pi)
	var g *group
	if n := len(st.free); n > 0 {
		g, st.free = st.free[n-1], st.free[:n-1]
		g.members = append(g.members[:0], pi)
		st.initRectRow(g, p)
		st.groups[g.id] = g
	} else {
		g = st.allocGroup()
		g.id = len(st.groups)
		g.members = append(g.members, pi)
		st.newRectRow(g, p)
		st.groups = append(st.groups, g)
	}
	g.stamp = pi
	if st.stageFloor > 0 { // a recursion stage: see group.stamp
		g.stamp = st.points.Len() + g.id
	}
	g.hullDirty = true
	st.pointGroup[pi] = int32(g.id)
	st.order = append(st.order, int32(g.id))
	st.opt.Stats.addCreated(1)
	st.finder.groupCreated(st, g)
	st.finder.placed(st, g, pi)
	return g
}

// retireGroup drops a whole group ahead of a local replay: its members
// become unplaced, the finder forgets it, and its id and storage go to
// the free list.
func (st *sgbAllState) retireGroup(g *group) {
	for _, m := range g.members {
		st.finder.left(st, g, m)
		st.pointGroup[m] = -1
	}
	st.groups[g.id] = nil
	st.poisonRectRow(g)
	st.finder.groupRemoved(st, g)
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
	g.members = append(g.members, pi)
	st.pointGroup[pi] = int32(g.id)
	g.mbr.ExtendPoint(p)
	st.finder.placed(st, g, pi)
	// The cached convex hull stays valid when the new member lies
	// inside it — the common case in dense groups, and the reason the
	// hull refinement's amortized cost stays near the paper's
	// O(log log k) per test instead of an O(k log k) rebuild per insert.
	if g.hullDirty || g.hull == nil || len(p) != 2 || !g.hull.Contains(p) {
		g.hullDirty = true
	}
	st.finder.groupChanged(st, g)
}

// removeMembers deletes from g the members whose victims mark is set
// (victims is aligned with g.members), rebuilding the group's MBR from
// the survivors. Empty groups are dropped. Used by ELIMINATE and
// FORM-NEW-GROUP overlap processing.
func (st *sgbAllState) removeMembers(g *group, victims []bool) {
	for k, m := range g.members {
		if victims[k] {
			st.finder.left(st, g, m)
			st.pointGroup[m] = -1
		}
	}
	kept := g.members[:0]
	for k, m := range g.members {
		if !victims[k] {
			kept = append(kept, m)
		}
	}
	g.members = kept
	if len(g.members) == 0 {
		st.groups[g.id] = nil
		st.poisonRectRow(g)
		st.finder.groupRemoved(st, g)
		return
	}
	st.initRectRow(g, st.points.At(g.members[0]))
	for _, m := range g.members[1:] {
		g.mbr.ExtendPoint(st.points.At(m))
	}
	g.hullDirty = true
	st.finder.groupChanged(st, g)
}

// hullOf returns the cached convex hull of g, rebuilding it if stale.
// Only meaningful in two dimensions.
func (st *sgbAllState) hullOf(g *group) *convexhull.Hull {
	if g.hullDirty || g.hull == nil {
		pts := st.hullPts[:0]
		for _, m := range g.members {
			pts = append(pts, st.points.At(m))
		}
		st.hullPts = pts
		if g.hull == nil {
			g.hull = &convexhull.Hull{}
		}
		// Rebuild in place: the group's vertex storage and the state's
		// sort/chain scratch are both reused, so large-group rebuilds
		// stop allocating once the buffers have grown.
		st.hullScratch.ComputeInto(g.hull, pts)
		g.hullDirty = false
	}
	return g.hull
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
	for _, m := range g.members {
		st.opt.Stats.addDist(1)
		if !st.near(pi, m) {
			return false
		}
	}
	return true
}

// overlapsWith reports whether pi is within ε of at least one member of
// g (the OverlapGroups membership criterion, given pi is not a
// candidate).
func (st *sgbAllState) overlapsWith(pi int, g *group) bool {
	for _, m := range g.members {
		st.opt.Stats.addDist(1)
		if st.near(pi, m) {
			return true
		}
	}
	return false
}
