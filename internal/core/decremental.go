package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/sgb-db/sgb/internal/geom"
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
// The two operators earn very different deletion machinery, and the
// split mirrors the companion work on order-independent SGB semantics
// (PAPERS.md: "On Order-independent Semantics of the Similarity
// Group-By Relational Database Operator"):
//
//   - SGB-Any groups are the connected components of the ε-similarity
//     graph — order-independent, so deletion is well-defined and
//     local: removing a point can only SPLIT its own component, never
//     merge or perturb others. AnyEvaluator.Remove therefore dissolves
//     just the victims' components in the Union-Find forest and
//     re-unions their surviving members along the ε-pairs one BFS
//     through the live index sees — exact by the same argument that
//     makes appending exact, and one probe per affected member.
//
//   - SGB-All arbitration (JOIN-ANY draws, ELIMINATE victims,
//     FORM-NEW-GROUP deferrals) depends on which points were present
//     and in what order. No group surgery can reconstruct, say, a
//     point that was eliminated because of a now-deleted neighbor —
//     the retained state no longer holds that information. The only
//     maintenance that stays bit-identical to a from-scratch run over
//     the survivors is to replay the arbitration over them, which
//     AllEvaluator.Remove does (reusing the retained point log and
//     tombstoning victims; the log compacts once tombstones outnumber
//     the living). Serving anything cheaper would hand out groupings
//     no one-shot evaluation produces — exactly the class of staleness
//     bug the engine-level generation counter exists to prevent.
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

// Remove deletes the points with the given live ids. SGB-All
// arbitration is order- and presence-sensitive, so the grouping over
// the survivors is recomputed by replaying the per-point arbitration
// over them in arrival order — the one maintenance that stays
// bit-identical (groups, member order, JOIN-ANY draws under the
// retained seed, ELIMINATE victims) to a from-scratch evaluation of
// the surviving points. The retained point log is reused and compacts
// once tombstones outnumber the living; with Options.Stats attached,
// the replay re-counts its operations. Ids compact after the call
// (see Result).
func (e *AllEvaluator) Remove(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	sorted, err := checkRemoveIDs(ids, e.Len())
	if err != nil {
		return err
	}
	e.materializeLive()
	removed := make(map[int]struct{}, len(sorted))
	for _, id := range sorted {
		removed[id] = struct{}{}
	}
	out := e.live[:0]
	for k, pos := range e.live {
		if _, hit := removed[k]; !hit {
			out = append(out, pos)
		}
	}
	e.live = out
	e.dead += len(sorted)

	pts := e.st.points
	if e.dead > len(e.live) {
		pts = pts.Gather(e.live)
		e.live, e.dead = nil, 0
	}
	e.replay(pts)
	return nil
}

// replay rebuilds the arbitration state from scratch over the live
// points of pts in arrival order, seeding the PRNG exactly as a
// one-shot run would. The old state is discarded wholesale (groups,
// finder, deferred set); the point log is shared. JOIN-ANY draws are
// keyed by live rank, so each survivor draws exactly the value a
// from-scratch run over the survivors would hand it — the rank map
// below is what aligns stored indices (with holes) to that compact
// numbering.
func (e *AllEvaluator) replay(pts *geom.PointSet) {
	st := &sgbAllState{
		points:     pts,
		opt:        e.st.opt,
		dims:       e.st.dims,
		rand:       newRNG(e.st.opt.Seed),
		pointGroup: make([]int32, pts.Len()),
	}
	for i := range st.pointGroup {
		st.pointGroup[i] = -1
	}
	st.finder = newFinder(st)
	e.st = st
	if e.live != nil {
		st.rank = make([]int32, pts.Len())
		for i := range st.rank {
			st.rank[i] = -1 // tombstoned positions never draw
		}
		for k, pos := range e.live {
			st.rank[pos] = int32(k)
		}
		for _, pos := range e.live {
			st.processOne(int(pos))
		}
		return
	}
	for i := 0; i < pts.Len(); i++ {
		st.processOne(i)
	}
}
