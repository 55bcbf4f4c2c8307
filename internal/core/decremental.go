package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file holds the decremental arm of the resumable operators:
// point deletion for AnyEvaluator and AllEvaluator, the other half of
// the sliding-window workloads (MANET traces, geosocial check-ins,
// streaming eviction) the incremental subsystem exists for.
//
// Both operators delete locally, and for the same reason: what a
// point's removal can change lies inside its own ε-connected component.
// The companion work on order-independent SGB semantics (PAPERS.md:
// "On Order-independent Semantics of the Similarity Group-By Relational
// Database Operator", arXiv 1412.4303) says what each has to redo
// there:
//
//   - SGB-Any groups ARE the connected components of the ε-similarity
//     graph — order-independent, so removing a point can only SPLIT its
//     own component, never merge or perturb others. AnyEvaluator keeps a
//     spanning tree of every component at every level, and Remove
//     repairs each level's forest: the tree edges at a
//     victim are cut, what is left of each touched tree falls into
//     pieces, and only the pieces are re-probed — smallest first, never
//     the largest, and no further once the tree is one set again. An
//     ε-pair between two pieces has an endpoint outside the largest, so
//     the probes see every pair that can join them, and a removal that
//     splits nothing probes nothing.
//
//   - SGB-All arbitration (JOIN-ANY draws, ELIMINATE victims,
//     FORM-NEW-GROUP deferrals) depends on which points were present
//     and in what order. No group surgery can reconstruct, say, a
//     point that was eliminated because of a now-deleted neighbor —
//     the retained state no longer holds that information — so the
//     touched part has to be arbitrated again, in arrival order. But
//     only the touched part: arbitration decomposes over the
//     ε-components (ARCHITECTURE.md, "SGB-All decomposes over
//     ε-components"), and since the JOIN-ANY draw is keyed by the
//     drawing point's coordinates a survivor elsewhere draws what it
//     drew before. AllEvaluator.Remove therefore finds a set of
//     survivors that holds the victims' components and is closed under
//     ε-adjacency (a BFS over the occupied cells of a point grid, no
//     distance test), retires the groups and events of that set,
//     replays its survivors, and splices the outcome back by creation
//     stamp — bit-identical to a from-scratch run over all survivors.
//     Once tombstones outnumber the living the log compacts and the
//     same routine runs with the set taken to be everything.
//
// In both cases ids are LIVE ids: Result numbers the surviving points
// 0..Len()-1 in arrival order, Remove accepts those numbers, and after
// a removal the survivors renumber compactly — so at every step the
// evaluator's id space matches a from-scratch evaluation of the
// surviving points (and, at the SQL layer, the row numbering of a
// table after DELETE compacts it).

// checkRemoveIDs validates a Remove id batch against n live points and
// returns it sorted. Already-sorted batches — every Window eviction,
// every SQL DELETE — are used as-is (the callers only read them);
// unsorted input is copied and sorted.
func checkRemoveIDs(ids []int, n int) ([]int, error) {
	sorted := ids
	if !sort.IntsAreSorted(sorted) {
		sorted = append([]int(nil), ids...)
		sort.Ints(sorted)
	}
	if sorted[0] < 0 || sorted[len(sorted)-1] >= n {
		return nil, fmt.Errorf("core: Remove id out of range [0, %d)", n)
	}
	for k := 1; k < len(sorted); k++ {
		if sorted[k] == sorted[k-1] {
			return nil, fmt.Errorf("core: duplicate Remove id %d", sorted[k])
		}
	}
	return sorted, nil
}

// anyRemoval is AnyEvaluator.Remove's scratch, retained across calls.
// The per-position arrays are epoch-stamped, so a Remove reads and
// writes only the entries of the trees it repairs and the points it
// re-probes.
type anyRemoval struct {
	victims []int32 // stored positions removed by this call

	stamp []uint32 // position → the mark it last got (tree or piece root)
	epoch uint32
	size  []int32 // piece root → its surviving members

	trees   []int32 // one level's touched trees, by root
	members []int32 // their members, tree after tree
	ends    []int32 // where each tree's members end
	pieces  []int32 // one tree's pieces, by root
	queue   []int32 // the members of the pieces to re-probe

	// A point re-probed at several levels probes once (neighbours):
	// seen[u] == call says that u's neighbours a lower level can use are
	// the nb entries from at[u] on (a count, then the entries). One-level
	// evaluators never reuse a probe and leave these empty. probePos and
	// probeKey hold the probe being read.
	seen            []uint32
	call            uint32
	at              []int32
	nbPos, probePos []int32
	nbKey, probeKey []float64
}

// nextEpoch advances an epoch counter over its stamp array; on wrap the
// stale stamps are cleared.
func nextEpoch(epoch *uint32, stamps []uint32) uint32 {
	if *epoch++; *epoch == 0 {
		clear(stamps)
		*epoch = 1
	}
	return *epoch
}

// begin readies the scratch for one Remove over n stored positions and
// the given number of levels.
func (rm *anyRemoval) begin(n, levels int) {
	if grow := n - len(rm.stamp); grow > 0 {
		rm.stamp = append(rm.stamp, make([]uint32, grow)...)
		rm.size = append(rm.size, make([]int32, grow)...)
	}
	if grow := n - len(rm.seen); levels > 1 && grow > 0 {
		rm.seen = append(rm.seen, make([]uint32, grow)...)
		rm.at = append(rm.at, make([]int32, grow)...)
	}
	nextEpoch(&rm.call, rm.seen)
	rm.nbPos, rm.nbKey = rm.nbPos[:0], rm.nbKey[:0]
	rm.victims = rm.victims[:0]
}

// Remove deletes the points with the given live ids and repairs every
// level's partition and forest (repair): only the trees the victims were
// in are touched, and only the pieces a removal splits off them are
// re-probed, each point once whatever number of levels asks for it. The
// repaired partition is exactly the components of the surviving points.
// Ids compact after the call (see Result); cost follows the touched
// trees and the re-probed pieces (plus a memmove of the live order),
// not the retained set.
func (e *AnyEvaluator) Remove(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	sorted, err := checkRemoveIDs(ids, e.Len())
	if err != nil {
		return err
	}
	full := e.dueAfter(len(sorted))
	rm := &e.rm
	rm.begin(e.points.Len(), len(e.f.ufs))
	rm.victims = e.remove(sorted, rm.victims)
	for _, pos := range rm.victims {
		e.ix.remove(e.points, int(pos), e.opt)
	}
	for l := len(e.f.ufs) - 1; l >= 0; l-- {
		e.repair(l)
	}
	if full {
		e.compact()
	}
	return nil
}

// repair restores level l once the victims are gone. The trees they
// were in dissolve, and their surviving edges union again into pieces;
// an edge at a victim is cut. Then each tree's pieces but the largest
// are re-probed, smallest first, and each ε-pair at this level between
// two of its sets joins them with a new edge — until the tree is one set
// again, or every piece but the largest is probed.
func (e *AnyEvaluator) repair(l int) {
	rm, uf, tr := &e.rm, e.f.ufs[l], &e.f.trees[l]
	key, alive := e.f.keys[l], e.alive

	// The touched trees, each listed once, and their members.
	mark := nextEpoch(&rm.epoch, rm.stamp)
	rm.trees = rm.trees[:0]
	for _, v := range rm.victims {
		if r := int32(uf.Find(int(v))); rm.stamp[r] != mark {
			rm.stamp[r] = mark
			rm.trees = append(rm.trees, r)
		}
	}
	rm.members, rm.ends = rm.members[:0], rm.ends[:0]
	for _, r := range rm.trees {
		rm.members = tr.appendSet(rm.members, r)
		rm.ends = append(rm.ends, int32(len(rm.members)))
	}

	// Dissolve them (Reset's batch discipline: whole sets) and union the
	// surviving edges again; the cut ones go back to the free list.
	uf.DropSets(len(rm.trees))
	for _, m := range rm.members {
		uf.Reset(int(m))
		tr.ring[m] = m
	}
	for _, m := range rm.members {
		for p := &tr.head[m]; *p >= 0; {
			k := *p
			ed := &tr.edges[k]
			if alive[m] && alive[ed.to] {
				uf.Union(int(m), int(ed.to))
				tr.splice(int(m), int(ed.to))
				p = &ed.next
				continue
			}
			*p = ed.next
			ed.next, tr.free = tr.free, k
		}
	}

	from := int32(0)
	for _, end := range rm.ends {
		tree := rm.members[from:end]
		from = end
		seen := nextEpoch(&rm.epoch, rm.stamp)
		rm.pieces = rm.pieces[:0]
		for _, m := range tree {
			if !alive[m] {
				continue
			}
			r := int32(uf.Find(int(m)))
			if rm.stamp[r] != seen {
				rm.stamp[r], rm.size[r] = seen, 0
				rm.pieces = append(rm.pieces, r)
			}
			rm.size[r]++
		}
		if len(rm.pieces) < 2 {
			continue
		}
		slices.SortFunc(rm.pieces, func(a, b int32) int {
			if c := cmp.Compare(rm.size[a], rm.size[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		// The members to re-probe are read off the rings before any of
		// the pieces joins another.
		rm.queue = rm.queue[:0]
		for _, r := range rm.pieces[:len(rm.pieces)-1] {
			rm.queue = tr.appendSet(rm.queue, r)
		}
		sets := len(rm.pieces)
	reprobe:
		for _, u := range rm.queue {
			nbs, keys := e.neighbours(u, l)
			for k, w := range nbs {
				if keys[k] > key || uf.Find(int(u)) == uf.Find(int(w)) {
					continue
				}
				uf.Union(int(u), int(w))
				tr.link(int(u), int(w))
				e.opt.Stats.addMerge(1)
				if sets--; sets == 1 {
					break reprobe
				}
			}
		}
	}
}

// neighbours returns the live points within the ε of level l of stored
// position u, and their comparison keys; the slices are valid until the
// next call. A point probes once per Remove: levels are repaired
// top-down, so the first level to ask for u is the highest that
// re-probes it, and it keeps the pairs within the next level down for
// the levels below.
func (e *AnyEvaluator) neighbours(u int32, l int) ([]int32, []float64) {
	rm := &e.rm
	if len(rm.seen) > 0 && rm.seen[u] == rm.call {
		at := rm.at[u] + 1
		end := at + rm.nbPos[at-1]
		return rm.nbPos[at:end], rm.nbKey[at:end]
	}
	ps, opt, g, j := e.points, e.opt, e.ix, &e.join
	key, p := e.f.keys[l], ps.At(int(u))
	opt.Stats.addProbe(1)
	j.ids = g.tab.CollectBox(p, e.probeRadius(p, e.eps[l]), j.ids[:0])
	n := 0
	for _, w := range j.ids {
		if w != u {
			j.ids[n] = w
			n++
		}
	}
	j.ids = j.ids[:n]
	opt.Stats.addDist(int64(n))
	j.keys = ps.AppendDistKeys(j.keys[:0], opt.Metric, p, j.ids)
	rm.probePos, rm.probeKey = rm.probePos[:0], rm.probeKey[:0]
	for k, w := range j.ids {
		if j.keys[k] <= key {
			rm.probePos, rm.probeKey = append(rm.probePos, w), append(rm.probeKey, j.keys[k])
		}
	}
	if l > 0 {
		at := int32(len(rm.nbPos))
		rm.seen[u], rm.at[u] = rm.call, at
		rm.nbPos, rm.nbKey = append(rm.nbPos, 0), append(rm.nbKey, 0)
		for i, k := range rm.probeKey {
			if k <= e.f.keys[l-1] {
				rm.nbPos, rm.nbKey = append(rm.nbPos, rm.probePos[i]), append(rm.nbKey, k)
			}
		}
		rm.nbPos[at] = int32(len(rm.nbPos)) - at - 1
	}
	return rm.probePos, rm.probeKey
}

// probeRadius is the radius of a probe from p that must see every point
// within eps of it. At the top level it is the top level's ε, the radius
// appends probe at. Below the top it is eps widened by geom.PaddedReach,
// so the box provably holds every such point the wider top-level probe
// would find.
func (e *AnyEvaluator) probeRadius(p geom.Point, eps float64) float64 {
	if eps == e.opt.Eps {
		return eps
	}
	return geom.PaddedReach(p, eps)
}

// compact rebuilds the evaluator over the surviving points once the
// tombstones outnumber them, bounding memory by the live set. The
// forests are already known, so the rebuild renumbers their edges and
// loads the index in one pass (loadIndex) without re-probing — O(live)
// work, amortized O(1) per removal by the load threshold.
func (e *AnyEvaluator) compact() {
	n := len(e.live)
	rank := make([]int32, e.points.Len())
	for k, pos := range e.live {
		rank[pos] = int32(k)
	}
	f := &anyForests{keys: e.f.keys, ufs: make([]*unionfind.UF, len(e.f.ufs)), trees: make([]anyTree, len(e.f.ufs))}
	for l, ot := range e.f.trees {
		uf, tr := unionfind.New(n), newAnyTree(n)
		for k, pos := range e.live {
			for x := ot.head[pos]; x >= 0; x = ot.edges[x].next {
				to := int(rank[ot.edges[x].to])
				uf.Union(k, to)
				tr.link(k, to)
			}
		}
		f.ufs[l], f.trees[l] = uf, tr
	}
	e.dropDead()
	e.f = f
	e.loadIndex()
}

// removeScratch holds AllEvaluator.Remove's reusable buffers.
type removeScratch struct {
	// mark is an epoch-stamped array over stored indices: 2·epoch = in
	// the closure, 2·epoch+1 = in it and its cell expanded.
	mark  []uint32
	epoch uint32

	queue      []int32   // BFS frontier; starts as the victims
	cell, near []int32   // ids one expansion collects
	box        geom.Rect // the expanded cell's points, then padded
	lo, hi     []int64   // cell range of the padded box

	set []int32 // the closure's survivors, in arrival order

	// Merge targets of the splice; swapped with the state's slices.
	order  []int32
	events []int
	causes []int32
}

// Remove deletes the points with the given live ids and arbitrates
// again only where that can matter. The survivors a deletion can reach
// are those of the victims' ε-components; the closure (retireClosure)
// is a superset of them that is closed under ε-adjacency, so by the
// decomposition of SGB-All over ε-components (ARCHITECTURE.md) the
// groups, ELIMINATE victims and FORM-NEW-GROUP deferrals outside it
// stand exactly as a from-scratch run over the survivors would leave
// them, and replaying the closure's survivors in arrival order against
// what remains recreates the rest — JOIN-ANY draws included, which are
// keyed by coordinates. The splice orders groups, victims and deferrals
// by the stored index of the point that caused them, so neither Result
// nor a later append can tell the state from a from-scratch one. With
// Options.Stats attached the closure's probes and the replay's
// operations are counted, and PointsReplayed says how many survivors it
// took. Ids compact after the call (see Result).
func (e *AllEvaluator) Remove(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	sorted, err := checkRemoveIDs(ids, e.Len())
	if err != nil {
		return err
	}
	e.idxOK = false
	// Replay everything when the log is due for compaction.
	full := e.dueAfter(len(sorted))
	if !full {
		e.materializeLive()
		e.ensureCells()
	}
	e.rm.queue = e.remove(sorted, e.rm.queue[:0])
	if full {
		e.resetState()
	} else {
		e.retireClosure(e.rm.queue)
	}
	e.replay(e.rm.set)
	return nil
}

// resetState is the closure taken to be everything: the point log
// compacts and the arbitration state starts over with every survivor to
// replay — bounding memory by the live set, amortized O(1) per removal
// by the load threshold.
func (e *AllEvaluator) resetState() {
	e.dropDead()
	e.cells = nil
	e.rm.set = e.rm.set[:0]
	for i := 0; i < e.points.Len(); i++ {
		e.rm.set = append(e.rm.set, int32(i))
	}
	e.newState()
}

// ensureCells builds the point grid over the live points. The cell side
// is ε, so two points within ε of each other lie in the same or in
// adjacent cells up to rounding, which geom.PaddedReach pads for.
func (e *AllEvaluator) ensureCells() {
	if e.cells != nil {
		return
	}
	pts := e.st.points
	e.cells = grid.NewCap(e.st.dims, e.st.opt.Eps, len(e.live))
	for _, pos := range e.live {
		e.cells.AddPoint(pts.At(int(pos)), pos)
	}
}

// retireClosure marks the closure of the victims — every live point
// whose cell a BFS over occupied cells reaches from a victim's cell —
// and clears the state of it: the victims leave the point grid, every
// group with a member in the closure is retired (a clique lies inside
// one ε-component, so it is inside or outside as a whole) and so is
// every ELIMINATE / FORM-NEW-GROUP event about a point of it (an
// event's cause is that point or within ε of it). The closure's
// survivors are left in rm.set, in arrival order.
//
// One expansion serves a whole cell: it takes the bounding box of the
// cell's points, pads it by geom.PaddedReach, collects the cells it covers and
// admits the points inside it. An ε-neighbour of any point of the cell
// is such a point, so the set is closed under ε-adjacency. No distance is computed — the admission is a rectangle
// test — and the price is a closure somewhat larger than the components
// themselves: whole cells, and points near a box but not near a point.
func (e *AllEvaluator) retireClosure(victims []int32) {
	st, rm := e.st, &e.rm
	pts, eps := st.points, st.opt.Eps
	if n := pts.Len(); len(rm.mark) < n {
		rm.mark = append(rm.mark, make([]uint32, n-len(rm.mark))...)
	}
	rm.epoch++
	if rm.epoch == 1<<31 { // 2·epoch would wrap: invalidate stale stamps
		clear(rm.mark)
		rm.epoch = 1
	}
	in, expanded := 2*rm.epoch, 2*rm.epoch+1
	mark := rm.mark
	if len(rm.box.Min) != st.dims {
		rm.box = geom.Rect{Min: make(geom.Point, st.dims), Max: make(geom.Point, st.dims)}
	}
	box := rm.box

	for _, pos := range victims {
		mark[pos] = in
	}
	queue := victims
	tested := int64(0)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if mark[u] == expanded {
			continue // a cell mate's expansion covered it
		}
		p := pts.At(int(u))
		st.opt.Stats.addProbe(2)
		rm.cell = e.cells.CollectBox(p, 0, rm.cell[:0])
		copy(box.Min, p)
		copy(box.Max, p)
		for _, w := range rm.cell {
			mark[w] = expanded
			box.ExtendPoint(pts.At(int(w)))
		}
		rlo, rhi := geom.PaddedReach(box.Min, eps), geom.PaddedReach(box.Max, eps)
		for i := range box.Min {
			box.Min[i] -= rlo
			box.Max[i] += rhi
		}
		rm.lo, rm.hi = e.cells.CellOf(box.Min, rm.lo), e.cells.CellOf(box.Max, rm.hi)
		rm.near = e.cells.CollectRange(rm.lo, rm.hi, rm.near[:0])
		for _, w := range rm.near {
			if mark[w] >= in {
				continue
			}
			tested++
			if box.Contains(pts.At(int(w))) {
				mark[w] = in
				queue = append(queue, w)
			}
		}
	}
	rm.queue = queue
	st.opt.Stats.addRect(tested)

	rm.set = rm.set[:0]
	for _, pos := range e.live {
		if mark[pos] >= in {
			rm.set = append(rm.set, pos)
		}
	}
	for _, pos := range victims {
		e.cells.RemovePoint(pts.At(int(pos)), pos)
		if gid := st.pointGroup[pos]; gid >= 0 {
			st.retireGroup(st.groups[gid])
		}
	}
	for _, pos := range rm.set {
		if gid := st.pointGroup[pos]; gid >= 0 {
			st.retireGroup(st.groups[gid])
		}
	}
	// What stays of the creation order is every group still standing
	// (retired and emptied ids are nil by now; the replay may recycle
	// the retired ones).
	kept := st.order[:0]
	for _, id := range st.order {
		if st.groups[id] != nil {
			kept = append(kept, id)
		}
	}
	st.order = kept
	st.eliminated, st.elimCause = dropMarked(st.eliminated, st.elimCause, mark, in)
	st.deferred, st.deferCause = dropMarked(st.deferred, st.deferCause, mark, in)
}

// dropMarked filters, in place, the events about a point of the closure
// out of an event list and its causes.
func dropMarked(events []int, causes []int32, mark []uint32, in uint32) ([]int, []int32) {
	k := 0
	for i, m := range events {
		if mark[m] < in {
			events[k], causes[k] = m, causes[i]
			k++
		}
	}
	return events[:k], causes[:k]
}

// replay arbitrates set — stored indices in arrival order, none of them
// placed — against the retained state and splices the outcome in: the
// groups it creates, the points it eliminates and the points it defers
// land behind what the state held, each run ascending by creation stamp
// or by cause, and one merge per list restores the order a from-scratch
// run produces. It is the one replay routine: a compaction runs it over
// every survivor against an empty state.
func (e *AllEvaluator) replay(set []int32) {
	st, rm := e.st, &e.rm
	ng, ne, nd := len(st.order), len(st.eliminated), len(st.deferred)
	for _, pos := range set {
		st.processOne(int(pos))
	}
	st.opt.Stats.addReplayed(int64(len(set)))

	if ng > 0 && ng < len(st.order) {
		out := rm.order[:0]
		a, b := st.order[:ng], st.order[ng:]
		for len(a) > 0 && len(b) > 0 {
			if st.groups[b[0]].stamp < st.groups[a[0]].stamp {
				out, b = append(out, b[0]), b[1:]
			} else {
				out, a = append(out, a[0]), a[1:]
			}
		}
		out = append(append(out, a...), b...)
		st.order, rm.order = out, st.order
	}
	st.eliminated, st.elimCause = rm.mergeEvents(st.eliminated, st.elimCause, ne)
	st.deferred, st.deferCause = rm.mergeEvents(st.deferred, st.deferCause, nd)
}

// mergeEvents merges the runs [:n] and [n:] of an event list, each
// ascending by cause (one cause's events stay together and in order:
// they sit in one run), and returns the merged list and its causes. The
// old slices become the scratch of the next merge.
func (rm *removeScratch) mergeEvents(events []int, causes []int32, n int) ([]int, []int32) {
	if n == 0 || n == len(events) {
		return events, causes
	}
	oe, oc := rm.events[:0], rm.causes[:0]
	i, j := 0, n
	for i < n && j < len(events) {
		if causes[j] < causes[i] {
			oe, oc = append(oe, events[j]), append(oc, causes[j])
			j++
		} else {
			oe, oc = append(oe, events[i]), append(oc, causes[i])
			i++
		}
	}
	oe, oc = append(oe, events[i:n]...), append(oc, causes[i:n]...)
	oe, oc = append(oe, events[j:]...), append(oc, causes[j:]...)
	rm.events, rm.causes = events, causes
	return oe, oc
}
