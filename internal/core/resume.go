package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file holds the resumable arm of the operators: evaluation state
// that survives between calls so that new points can be appended to an
// existing grouping without recomputing it. The one-shot entry points
// (SGBAllSet / SGBAnySet) and the evaluators below share every
// per-point step — processOne for SGB-All, anyIndex.step for SGB-Any —
// so an incremental run over batches b1, b2, ... produces exactly the
// grouping of a one-shot run over their concatenation. (For SGB-All
// the retained state is bit-identical after the same point sequence;
// for SGB-Any under the grid strategy the Morton preprocessing sorts
// per batch rather than globally, so internal processing order may
// differ from one-shot — harmless, as components are order-independent
// and both sides report input-order ids in canonical order.)
//
// The companion work on order-independent SGB semantics (PAPERS.md:
// "On Order-independent Semantics of the Similarity Group-By
// Relational Database Operator") is what makes the SGB-Any half
// trivially sound: connected components are independent of arrival
// order, so the live ε-grid plus Union-Find just keeps absorbing
// points. SGB-All is order-SENSITIVE by design, but its processing
// order is exactly arrival order, which appends extend — the only
// subtlety is FORM-NEW-GROUP's end-of-input recursion, finalized on a
// throwaway clone so the retained main-pass state stays appendable.

// AllEvaluator is resumable SGB-All evaluation state: a retained
// sgbAllState (groups, finder structures, arbitration PRNG) that
// Append extends batch by batch. Appends evaluate sequentially with
// the strategy selected by the options (Options.Parallelism is
// ignored; batches are expected to be small relative to the retained
// set, which is where incremental maintenance pays off). Remove
// (decremental.go) deletes points by replaying the arbitration over
// the ε-components the victims touched — SGB-All is order- and
// presence-sensitive, so nothing less than a replay of those stays
// bit-identical to a from-scratch run, and nothing more is needed.
type AllEvaluator struct {
	st *sgbAllState

	// live holds the stored indices of the surviving points in arrival
	// order; a point's public id is its index in live. nil means the
	// identity over [0, st.points.Len()) — nothing removed yet.
	// (SGB-All never Morton-reorders, so stored order is arrival
	// order.)
	live []int32
	// dead counts tombstoned stored indices; when they outnumber the
	// live points, Remove compacts the point log and replays everything.
	dead int

	// stamped reports that every group's stamp and every event's cause
	// is the true one. A restored ELIMINATE / FORM-NEW-GROUP checkpoint
	// holds only their order (persist.go), which serves appends and
	// reads; its first Remove replays everything and sets the flag.
	stamped bool

	// cells is the point grid the closure of a Remove walks: every live
	// stored index in its ε-cell. Built by the first local Remove, kept
	// current by Append and Remove, dropped when the log compacts.
	cells *grid.Table

	// idx maps stored index → live id for Result; idxOK says it still
	// matches live (Append and Remove clear it).
	idx   []int32
	idxOK bool

	rm removeScratch // Remove's reusable buffers (decremental.go)
}

// NewAllEvaluator returns an empty resumable SGB-All evaluation over
// dims-dimensional points.
func NewAllEvaluator(dims int, opt Options) (*AllEvaluator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if dims < 1 {
		return nil, errors.New("core: evaluator dimensionality must be >= 1")
	}
	return &AllEvaluator{st: newMaintainedState(geom.NewPointSet(dims), opt), stamped: true}, nil
}

// newMaintainedState returns an empty retained arbitration state over
// pts (none of them placed yet), seeded exactly as a one-shot run.
func newMaintainedState(pts *geom.PointSet, opt Options) *sgbAllState {
	st := &sgbAllState{
		points:     pts,
		opt:        opt,
		dims:       pts.Dims(),
		rand:       newRNG(opt.Seed),
		maintained: true,
		pointGroup: make([]int32, pts.Len()),
	}
	for i := range st.pointGroup {
		st.pointGroup[i] = -1
	}
	st.finder = newFinder(st)
	return st
}

// Len returns the number of live points (appended and not removed).
func (e *AllEvaluator) Len() int {
	if e.live != nil {
		return len(e.live)
	}
	return e.st.points.Len()
}

// LiveAt returns the point with live id i (the id space Result and
// Remove use). The view is read-only and valid until the next
// mutation.
func (e *AllEvaluator) LiveAt(i int) geom.Point {
	if e.live != nil {
		return e.st.points.At(int(e.live[i]))
	}
	return e.st.points.At(i)
}

// materializeLive switches the identity mapping to an explicit one at
// the first removal.
func (e *AllEvaluator) materializeLive() {
	if e.live != nil {
		return
	}
	e.live = make([]int32, e.st.points.Len(), e.st.points.Len()+16)
	for i := range e.live {
		e.live[i] = int32(i)
	}
}

// Append absorbs a batch of points (copied into the evaluator's own
// storage) and advances the grouping exactly as a one-shot run would
// have, had the batch been the next stretch of its input. Under
// FORM-NEW-GROUP the points deferred into S′ accumulate across
// appends and are only resolved by Result, mirroring the one-shot
// operator's end-of-input recursion.
func (e *AllEvaluator) Append(ps *geom.PointSet) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	st := e.st
	if ps.Dims() != st.dims {
		return fmt.Errorf("core: appended points have dimension %d, want %d", ps.Dims(), st.dims)
	}
	if err := checkCoords(ps, st.opt.Eps); err != nil {
		return err
	}
	base := st.points.Len()
	st.points.AppendSet(ps)
	n := st.points.Len()
	e.idxOK = false
	for i := base; i < n; i++ {
		st.pointGroup = append(st.pointGroup, -1)
		if e.live != nil {
			e.live = append(e.live, int32(i))
		}
		if e.cells != nil {
			e.cells.AddPoint(st.points.At(i), int32(i))
		}
	}
	for pi := base; pi < n; pi++ {
		st.processOne(pi)
	}
	return nil
}

// Result materializes the current grouping, equivalent to a one-shot
// evaluation over every live point in arrival order (identical groups
// and member order; identical PRNG draws under JOIN-ANY for equal
// seeds). Under FORM-NEW-GROUP the deferred set is resolved on a clone
// of the retained state, so calling Result neither perturbs future
// appends nor later Results — but it does replay that recursion each
// call (and re-counts it into Options.Stats, when attached). Groups come
// in creation order — the retained order list, not id order — and
// member and Eliminated ids are live ids: compact indices over the
// surviving points in arrival order, exactly as a from-scratch run over
// them would number its input. The returned result owns its slices (the
// member lists share one backing array, each capped at its own end).
func (e *AllEvaluator) Result() *Result {
	st := e.st
	if st.opt.Overlap == FormNewGroup && len(st.deferred) > 0 {
		st = st.finalizeClone()
		next := st.deferred
		st.deferred = nil
		st.run(next, 1)
	}
	// Stored indices → live ids. Only live indices can appear: a removal
	// retires every group and event that names a victim.
	var idx []int32
	if e.live != nil {
		if !e.idxOK {
			n := e.st.points.Len()
			e.idx = slices.Grow(e.idx[:0], n)[:n]
			for k, pos := range e.live {
				e.idx[pos] = int32(k)
			}
			e.idxOK = true
		}
		idx = e.idx
	}
	res := &Result{Groups: make([]Group, 0, len(st.order))}
	flat := make([]int, 0, e.Len()) // a live point sits in at most one group
	for _, id := range st.order {
		g := st.groups[id]
		if g == nil || len(g.members) == 0 {
			continue
		}
		from := len(flat)
		flat = appendLive(flat, g.members, idx)
		res.Groups = append(res.Groups, Group{Members: flat[from:len(flat):len(flat)]})
	}
	res.Eliminated = appendLive(nil, st.eliminated, idx)
	return res
}

// appendLive appends the stored indices to dst as live ids (idx nil
// means they are the same).
func appendLive(dst, stored []int, idx []int32) []int {
	if idx == nil {
		return append(dst, stored...)
	}
	for _, m := range stored {
		dst = append(dst, int(idx[m]))
	}
	return dst
}

// finalizeClone snapshots the main-pass state deeply enough that the
// FORM-NEW-GROUP recursion can run to completion on the copy without
// touching the retained originals: group structs are copied (the
// recursion's stageReset clears their index-registration flags, and
// frozen groups are otherwise immutable at depth ≥ 1), bookkeeping
// slices are copied (the recursion appends groups and placements),
// and the finder is rebuilt fresh (equivalent to the stageReset the
// recursion performs first thing). Points are shared read-only.
func (st *sgbAllState) finalizeClone() *sgbAllState {
	cl := &sgbAllState{
		points:     st.points,
		opt:        st.opt,
		dims:       st.dims,
		rand:       &rng{state: st.rand.state},
		groups:     make([]*group, len(st.groups)),
		stageFloor: st.stageFloor,
		eliminated: append([]int(nil), st.eliminated...),
		deferred:   append([]int(nil), st.deferred...),
		pointGroup: append([]int32(nil), st.pointGroup...),
		rects:      append([]float64(nil), st.rects...),
		// The recursion's groups join the creation order behind the
		// retained ones; it has no use for causes or the free list (its
		// ids must keep growing, see group.stamp).
		maintained: true,
		order:      append([]int32(nil), st.order...),
	}
	for i, g := range st.groups {
		if g == nil {
			continue
		}
		g2 := *g
		cl.groups[i] = &g2
		// Rebind the copy's rectangle views into the clone's own rect
		// store, so the recursion's appends cannot alias the retained
		// rows.
		cl.bindRectRow(cl.groups[i])
	}
	cl.finder = newFinder(cl)
	return cl
}

// materializeAll extracts the output groups of a one-shot SGB-All state
// in creation order, which for a one-shot state is id order, handing
// over the state's slices. (A retained state orders by its order list
// and must not alias: AllEvaluator.Result.)
func materializeAll(st *sgbAllState) *Result {
	res := &Result{Eliminated: st.eliminated}
	for _, g := range st.groups {
		if g == nil || len(g.members) == 0 {
			continue
		}
		res.Groups = append(res.Groups, Group{Members: g.members})
	}
	return res
}

// AnyEvaluator is resumable SGB-Any evaluation state: a live ε-grid
// Points_IX plus the Union-Find forest, both of which support appends
// naturally. Because connected components are order-independent, the
// incremental result is exactly the one-shot result over the
// concatenated input — per-append cost is proportional to the batch's
// probe work, not the retained set size. Remove (decremental.go)
// deletes points again: components can only split, never merge, when a
// point vanishes, so a deletion reclusters just the victims'
// components.
//
// The index is the grid whatever Options.Algorithm names: components do
// not depend on the index that finds the ε-edges either, so groups, ids
// and exported state (which holds no index) are the same under every
// strategy — only the Stats counters of maintenance work are the grid's.
//
// Each appended batch is Morton (Z-order) preprocessed by the one-shot
// path's rule (mortonPermFor): the batch's points are absorbed in
// Z-order of their ε-cells, and live remembers the arrival order of the
// stored positions so Result reports input-order ids. Reordering within
// a batch is sound for the same reason appending is: components do not
// depend on arrival order.
type AnyEvaluator struct {
	opt    Options
	points *geom.PointSet // append-only log; removals tombstone via alive
	uf     *unionfind.UF  // forest over stored positions (incl. dead)
	ix     *anyGrid

	// live holds the stored positions of the surviving points in
	// arrival order; a point's public id is its index in live (so ids
	// compact after removals exactly as a from-scratch evaluation over
	// the survivors would number them). nil means the identity over
	// [0, points.Len()): every batch arrived in order and nothing was
	// removed.
	live []int32
	// alive flags stored positions (nil = everything alive).
	alive []bool
	// dead counts tombstoned stored positions; when they outnumber the
	// live points, compact rebuilds the evaluator over the survivors so
	// steady-state windowed workloads hold memory proportional to the
	// window, not the history.
	dead int

	// Reusable Remove scratch: mark is an epoch-stamped visited array
	// over stored positions (the ε-graph BFS), queue its frontier, nbuf
	// the per-node neighbor buffer, roots the victims' forest roots.
	mark      []uint32
	markEpoch uint32
	queue     []int32
	nbuf      []int32
	roots     []int32
}

// NewAnyEvaluator returns an empty resumable SGB-Any evaluation over
// dims-dimensional points.
func NewAnyEvaluator(dims int, opt Options) (*AnyEvaluator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if dims < 1 {
		return nil, errors.New("core: evaluator dimensionality must be >= 1")
	}
	return &AnyEvaluator{
		opt:    opt,
		points: geom.NewPointSet(dims),
		uf:     &unionfind.UF{},
		ix:     newAnyGrid(dims, 0, opt.Eps),
	}, nil
}

// Len returns the number of live points (appended and not removed).
func (e *AnyEvaluator) Len() int { return e.points.Len() - e.dead }

// LiveAt returns the point with live id i (the id space Result and
// Remove use). The view is read-only and valid until the next
// mutation.
func (e *AnyEvaluator) LiveAt(i int) geom.Point {
	if e.live != nil {
		return e.points.At(int(e.live[i]))
	}
	return e.points.At(i)
}

// materializeLive switches the identity mapping to an explicit one —
// the first Morton-reordered batch or the first removal needs it.
func (e *AnyEvaluator) materializeLive() {
	if e.live != nil {
		return
	}
	e.live = make([]int32, e.points.Len(), e.points.Len()+16)
	for i := range e.live {
		e.live[i] = int32(i)
	}
}

// Append absorbs a batch of points (copied into the evaluator's own
// storage): each point probes the live index for its within-ε
// neighbors, merges their components, and registers itself — the same
// step the one-shot evaluation runs.
func (e *AnyEvaluator) Append(ps *geom.PointSet) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	if ps.Dims() != e.points.Dims() {
		return fmt.Errorf("core: appended points have dimension %d, want %d", ps.Dims(), e.points.Dims())
	}
	if err := checkCoords(ps, e.opt.Eps); err != nil {
		return err
	}
	base := e.points.Len()
	batch := ps
	if bperm := mortonPermFor(ps, e.opt); bperm != nil {
		batch = ps.Gather(bperm)
		e.materializeLive()
		// Arrival order of the reordered batch: position base+j holds
		// the batch point bperm[j], so arrival offset o lives at the
		// position the inverse permutation names.
		for _, j := range invertPerm(bperm) {
			e.live = append(e.live, int32(base)+j)
		}
	} else if e.live != nil {
		for k := 0; k < ps.Len(); k++ {
			e.live = append(e.live, int32(base+k))
		}
	}
	if e.alive != nil {
		for k := 0; k < ps.Len(); k++ {
			e.alive = append(e.alive, true)
		}
	}
	e.points.AppendSet(batch)
	for i := base; i < e.points.Len(); i++ {
		e.uf.Add()
		e.ix.step(e.points, i, e.opt, e.uf)
	}
	return nil
}

// Result materializes the current connected components in the same
// deterministic order as the one-shot operator (groups by smallest
// member index, members ascending, ids in original arrival order over
// the live points — the Morton reordering of batches and any removals
// are invisible here). The returned result owns its
// slices; calling Result repeatedly or interleaving it with Append and
// Remove is safe.
func (e *AnyEvaluator) Result() *Result {
	return &Result{Groups: groupsFromUF(e.uf, e.live)}
}
