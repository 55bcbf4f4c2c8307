package core

import (
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
// streaming eviction) the incremental subsystem exists for. (The third
// maintained evaluator, LatticeEvaluator, deletes by repairing its
// spanning forest — lattice.go here, internal/lattice/decremental.go
// for the algorithm — under the same live-id contract.)
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
//     own component, never merge or perturb others. AnyEvaluator.Remove
//     dissolves just the victims' components in the Union-Find forest
//     and re-unions their surviving members along the ε-pairs one BFS
//     through the live index sees — exact by the same argument that
//     makes appending exact, and one probe per affected member.
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

// Remove deletes the points with the given live ids and repairs
// connectivity. Deletion is localized and output-sensitive: a BFS
// through the ε-graph from the victims visits exactly the union of
// their components, and the same traversal rebuilds them — a visited
// point is detached from the forest the moment it is discovered, and
// every ε-pair of survivors the BFS sees is unioned on the spot, so
// each affected member is probed once. The ε-graph of every other
// component is untouched, so the repaired partition is exactly the
// components of the surviving points. Ids compact after the call (see
// Result); cost is proportional to the affected components' probe work
// (plus a memmove of the live order), not the retained set.
func (e *AnyEvaluator) Remove(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	sorted, err := checkRemoveIDs(ids, e.Len())
	if err != nil {
		return err
	}
	e.materializeLive()
	if e.alive == nil {
		e.alive = make([]bool, e.points.Len())
		for i := range e.alive {
			e.alive[i] = true
		}
	}

	// The dissolving components are the victims' (distinct victim
	// roots), counted before any forest surgery.
	e.roots = e.roots[:0]
	for _, id := range sorted {
		e.roots = append(e.roots, int32(e.uf.Find(int(e.live[id]))))
	}
	slices.Sort(e.roots)
	e.uf.DropSets(len(slices.Compact(e.roots)))

	if n := e.points.Len(); len(e.mark) < n {
		e.mark = append(e.mark, make([]uint32, n-len(e.mark))...)
	}
	e.markEpoch++
	if e.markEpoch == 0 { // wrapped: invalidate stale stamps
		clear(e.mark)
		e.markEpoch = 1
	}
	epoch := e.markEpoch

	// Tombstone the victims but leave them registered: the traversal
	// crosses them, so it visits every member of every affected
	// component — and nothing else. A member of an unaffected component
	// cannot be within ε of any visited point (they would have shared a
	// component), so the recluster cannot leak outside the visited set.
	// Discovery Resets a point; by the end whole sets have been Reset,
	// which is the batch discipline Reset asks for, and until then only
	// discovered points are ever looked up in the forest.
	e.queue = e.queue[:0]
	for _, id := range sorted {
		pos := e.live[id]
		e.alive[pos] = false
		e.mark[pos] = epoch
		e.uf.Reset(int(pos))
		e.queue = append(e.queue, pos)
	}
	for qi := 0; qi < len(e.queue); qi++ {
		u := e.queue[qi]
		e.nbuf = e.ix.neighbors(e.points, int(u), e.opt, e.nbuf[:0])
		for _, w := range e.nbuf {
			if e.mark[w] != epoch {
				e.mark[w] = epoch
				e.uf.Reset(int(w))
				e.queue = append(e.queue, w)
			}
			// A pair of survivors surfaces from both ends; the smaller
			// position unions it.
			if u < w && e.alive[u] && e.alive[w] && e.uf.Find(int(u)) != e.uf.Find(int(w)) {
				e.opt.Stats.addMerge(1)
				e.uf.Union(int(u), int(w))
			}
		}
	}
	for _, id := range sorted {
		e.ix.remove(e.points, int(e.live[id]), e.opt)
	}

	// Compact the live order (ids renumber here).
	out := e.live[:0]
	for _, pos := range e.live {
		if e.alive[pos] {
			out = append(out, pos)
		}
	}
	e.live = out
	e.dead += len(sorted)
	if e.dead > len(e.live) {
		e.compact()
	}
	return nil
}

// compact rebuilds the evaluator over the surviving points once the
// tombstones outnumber them, bounding memory by the live set. The
// components are already known, so the rebuild renumbers the forest
// and re-registers the index without re-probing — O(live) work,
// amortized O(1) per removal by the load threshold.
func (e *AnyEvaluator) compact() {
	old, oldUF := e.points, e.uf
	dims := e.points.Dims()
	pts := geom.NewPointSetCap(dims, len(e.live))
	nuf := &unionfind.UF{}
	nix := newAnyGrid(dims, len(e.live), e.opt.Eps)
	rootSlot := make(map[int]int, len(e.live))
	for k, pos := range e.live {
		pts.AppendPoint(old.At(int(pos)))
		nuf.Add()
		nix.add(pts, k, e.opt)
		if r, seen := rootSlot[oldUF.Find(int(pos))]; seen {
			nuf.Union(k, r)
		} else {
			rootSlot[oldUF.Find(int(pos))] = k
		}
	}
	e.points, e.uf, e.ix = pts, nuf, nix
	e.live, e.alive, e.dead = nil, nil, 0
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
	cur        grid.Cursor

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
	e.materializeLive()
	e.idxOK = false
	// Replay everything when the log is due for compaction (tombstones
	// outnumber the living) or the stamps are not the true ones.
	full := e.dead+len(sorted) > len(e.live)-len(sorted) || !e.stamped
	if !full {
		e.ensureCells()
	}

	// Split live into victims and survivors; sorted is ascending, so one
	// walk does it.
	victims := e.rm.queue[:0]
	out := e.live[:0]
	for k, pos := range e.live {
		if len(victims) < len(sorted) && sorted[len(victims)] == k {
			victims = append(victims, pos)
		} else {
			out = append(out, pos)
		}
	}
	e.live = out
	e.dead += len(sorted)
	e.rm.queue = victims

	if full {
		e.resetState(victims)
	} else {
		e.retireClosure(victims)
	}
	e.replay(e.rm.set)
	return nil
}

// resetState is the closure taken to be everything: the arbitration
// state starts over with every survivor to replay, and the point log
// compacts when that is what called for it — bounding memory by the
// live set, amortized O(1) per removal by the load threshold.
func (e *AllEvaluator) resetState(victims []int32) {
	rm := &e.rm
	pts := e.st.points
	if e.dead > len(e.live) {
		pts = pts.Gather(e.live)
		e.live, e.dead, e.cells = nil, 0, nil
		rm.set = rm.set[:0]
		for i := 0; i < pts.Len(); i++ {
			rm.set = append(rm.set, int32(i))
		}
	} else {
		rm.set = append(rm.set[:0], e.live...)
		if e.cells != nil {
			for _, pos := range victims {
				e.cells.RemovePoint(pts.At(int(pos)), pos)
			}
		}
	}
	e.st = newMaintainedState(pts, e.st.opt)
	e.stamped = true
}

// ensureCells builds the point grid over the live points. The cell side
// is ε, so two points within ε of each other lie in the same or in
// adjacent cells up to rounding, which paddedReach pads for.
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
// cell's points, pads it by paddedReach, collects the cells it covers and
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
		rm.cell = e.cells.CollectBox(&rm.cur, p, 0, rm.cell[:0])
		copy(box.Min, p)
		copy(box.Max, p)
		for _, w := range rm.cell {
			mark[w] = expanded
			box.ExtendPoint(pts.At(int(w)))
		}
		rlo, rhi := paddedReach(box.Min, eps), paddedReach(box.Max, eps)
		for i := range box.Min {
			box.Min[i] -= rlo
			box.Max[i] += rhi
		}
		rm.lo, rm.hi = e.cells.CellOf(box.Min, rm.lo), e.cells.CellOf(box.Max, rm.hi)
		rm.near = e.cells.CollectRange(&rm.cur, rm.lo, rm.hi, rm.near[:0])
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
