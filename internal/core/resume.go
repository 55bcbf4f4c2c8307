package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
)

// This file holds the resumable arm of the operators: evaluation state
// that survives between calls so that new points can be appended to an
// existing grouping without recomputing it. The one-shot entry points
// (SGBAllSet / SGBAnySet) and the evaluators below share every
// per-point step — processOne for SGB-All, anyJoin.step for
// SGB-Any — so an incremental run over batches b1, b2, ... produces
// exactly the grouping of a one-shot run over their concatenation. (For
// SGB-All the retained state is bit-identical after the same point
// sequence; for SGB-Any under the grid strategy the Morton
// preprocessing sorts per batch rather than globally, so internal
// processing order may differ from one-shot — harmless, as components
// are order-independent and both sides report input-order ids in
// canonical order.)
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

// pointLog is what both maintained evaluators keep of their points:
// the append-only log in stored order, the live ids over it, and the
// tombstones a Remove leaves. The first batch an evaluator accepts
// fixes the dimensionality, which stays fixed even if every point is
// later removed.
type pointLog struct {
	points *geom.PointSet // dims 0 until the first accepted batch
	// live holds the stored positions of the surviving points in
	// arrival order; a point's public id is its index in live (so ids
	// compact after removals exactly as a from-scratch evaluation over
	// the survivors would number them). nil means the identity over
	// [0, points.Len()): every batch arrived in order and nothing was
	// removed.
	live []int32
	// alive flags stored positions (nil = everything alive), and dead
	// counts the tombstoned ones; when they outnumber the live points
	// the owner compacts the log (dropDead), so steady-state windowed
	// workloads hold memory proportional to the window, not the history.
	alive []bool
	dead  int
}

func newPointLog() pointLog { return pointLog{points: new(geom.PointSet)} }

// Len returns the number of live points (appended and not removed).
func (l *pointLog) Len() int { return l.points.Len() - l.dead }

// Dims returns the point dimensionality, or 0 before the first accepted
// batch.
func (l *pointLog) Dims() int { return l.points.Dims() }

// LiveAt returns the point with live id i (the id space Result and
// Remove use). The view is read-only and valid until the next
// mutation.
func (l *pointLog) LiveAt(i int) geom.Point {
	if l.live != nil {
		return l.points.At(int(l.live[i]))
	}
	return l.points.At(i)
}

// materializeLive switches the identity mapping to an explicit one —
// the first Morton-reordered batch or the first removal needs it.
func (l *pointLog) materializeLive() {
	if l.live != nil {
		return
	}
	l.live = make([]int32, l.points.Len(), l.points.Len()+16)
	for i := range l.live {
		l.live[i] = int32(i)
	}
}

// accept validates a non-empty batch — the log's dimensionality, and
// coordinates the ε-grid at eps can quantize — and fixes the
// dimensionality when it is the first batch accepted.
func (l *pointLog) accept(ps *geom.PointSet, eps float64) error {
	if d := l.points.Dims(); d != 0 && ps.Dims() != d {
		return fmt.Errorf("core: appended points have dimension %d, want %d", ps.Dims(), d)
	}
	if err := checkCoords(ps, eps); err != nil {
		return err
	}
	if l.points.Dims() == 0 {
		l.points = geom.NewPointSet(ps.Dims())
	}
	return nil
}

// add copies an accepted batch onto the log in the order perm gives
// (nil: as it arrived), keeping the live order in arrival order, and
// returns the stored position of the first point added.
func (l *pointLog) add(ps *geom.PointSet, perm []int32) int {
	base := l.points.Len()
	if perm != nil {
		ps = ps.Gather(perm)
		l.materializeLive()
		// Arrival order of the reordered batch: position base+j holds
		// the batch point perm[j], so arrival offset o lives at the
		// position the inverse permutation names.
		for _, j := range invertPerm(perm) {
			l.live = append(l.live, int32(base)+j)
		}
	} else if l.live != nil {
		for k := 0; k < ps.Len(); k++ {
			l.live = append(l.live, int32(base+k))
		}
	}
	if l.alive != nil {
		for k := 0; k < ps.Len(); k++ {
			l.alive = append(l.alive, true)
		}
	}
	l.points.AppendSet(ps)
	return base
}

// dueAfter reports whether removing k more points makes the tombstones
// outnumber the living: the log is then due for compaction.
func (l *pointLog) dueAfter(k int) bool { return l.dead+k > l.Len()-k }

// remove tombstones the points with the live ids sorted (validated and
// ascending: checkRemoveIDs), appends their stored positions to victims
// and returns it, and closes the live order's ranks over them: ids
// renumber here.
func (l *pointLog) remove(sorted []int, victims []int32) []int32 {
	l.materializeLive()
	if l.alive == nil {
		l.alive = make([]bool, l.points.Len())
		for i := range l.alive {
			l.alive[i] = true
		}
	}
	for _, id := range sorted {
		pos := l.live[id]
		l.alive[pos] = false
		victims = append(victims, pos)
	}
	w := sorted[0]
	for k, id := range sorted {
		end := len(l.live)
		if k+1 < len(sorted) {
			end = sorted[k+1]
		}
		w += copy(l.live[w:], l.live[id+1:end])
	}
	l.live = l.live[:w]
	l.dead += len(sorted)
	return victims
}

// dropDead compacts the log to its live points in arrival order: a
// survivor's stored position becomes its live id.
func (l *pointLog) dropDead() {
	l.points = l.points.Gather(l.live)
	l.live, l.alive, l.dead = nil, nil, 0
}

// AllEvaluator is resumable SGB-All evaluation state: a retained
// sgbAllState (groups, finder structures, arbitration PRNG) over its
// point log that Append extends batch by batch. Appends evaluate
// sequentially with the strategy selected by the options
// (Options.Parallelism is ignored; batches are expected to be small
// relative to the retained set, which is where incremental maintenance
// pays off). Remove (decremental.go) deletes points by replaying the
// arbitration over the ε-components the victims touched — SGB-All is
// order- and presence-sensitive, so nothing less than a replay of those
// stays bit-identical to a from-scratch run, and nothing more is needed.
// (SGB-All never Morton-reorders, so stored order is arrival order.)
type AllEvaluator struct {
	pointLog
	opt Options
	st  *sgbAllState // nil until the first accepted batch; st.points is the log's

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

// NewAllEvaluator returns an empty resumable SGB-All evaluation; the
// first accepted batch fixes its dimensionality.
func NewAllEvaluator(opt Options) (*AllEvaluator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &AllEvaluator{pointLog: newPointLog(), opt: opt}, nil
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

// Options returns the options the evaluator was created with. They are
// fixed: the retained state embodies them.
func (e *AllEvaluator) Options() Options { return e.opt }

// Levels returns the evaluator's one ε, the only one it keeps.
func (e *AllEvaluator) Levels() []float64 { return []float64{e.opt.Eps} }

// AddLevel fails: an SGB-All evaluator keeps its own ε only.
func (e *AllEvaluator) AddLevel(float64) error {
	return errors.New("core: AddLevel needs an SGB-Any evaluator")
}

// GroupsAt returns Result at the evaluator's own ε and fails at any
// other.
func (e *AllEvaluator) GroupsAt(eps float64) (*Result, error) {
	if eps != e.opt.Eps {
		return nil, fmt.Errorf("core: the SGB-All evaluator keeps ε %v only, not %v", e.opt.Eps, eps)
	}
	return e.Result(), nil
}

// Append absorbs a batch of points (copied into the evaluator's own
// storage) and advances the grouping exactly as a one-shot run would
// have, had the batch been the next stretch of its input. Under
// FORM-NEW-GROUP the points deferred into S′ accumulate across
// appends and are only resolved by Result, mirroring the one-shot
// operator's end-of-input recursion. An empty batch is a no-op.
func (e *AllEvaluator) Append(ps *geom.PointSet) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	if err := e.accept(ps, e.opt.Eps); err != nil {
		return err
	}
	if e.st == nil {
		e.st = newMaintainedState(e.points, e.opt)
	}
	st := e.st
	base := e.add(ps, nil)
	n := e.points.Len()
	e.idxOK = false
	for i := base; i < n; i++ {
		st.pointGroup = append(st.pointGroup, -1)
		if e.cells != nil {
			e.cells.AddPoint(e.points.At(i), int32(i))
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
// Before the first accepted batch it is an empty grouping.
func (e *AllEvaluator) Result() *Result {
	st := e.st
	if st == nil {
		return &Result{}
	}
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
			n := e.points.Len()
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

// AnyEvaluator is resumable SGB-Any evaluation state at one or more ε
// levels: a live ε-grid Points_IX at the top level and, per level, the
// Union-Find partition of the points plus a spanning forest of it
// (anyForests with its trees) — the one-shot sweep's level forests,
// kept. Because connected components are order-independent, the
// incremental result is exactly the one-shot result over the
// concatenated input — per-append cost is proportional to the batch's
// probe work, not the retained set size. Remove (decremental.go)
// deletes points again: components can only split, never merge, when a
// point vanishes, so a deletion repairs just the victims' trees, and
// within them re-probes only the pieces the deletion split off.
//
// NewAnyLevels makes one at one or more levels, and AddLevel adds one
// below the top. An appended point probes at the top level's ε, and
// each pair joins the levels its distance reaches, as in SweepAny.
//
// The index is the grid whatever Options.Algorithm names: components do
// not depend on the index that finds the ε-edges either, so groups, ids
// and retained partitions are the same under every strategy — only the
// Stats counters of maintenance work are the grid's.
//
// Each appended batch is Morton (Z-order) preprocessed by the one-shot
// path's rule (mortonPermFor): the batch's points are absorbed in
// Z-order of their ε-cells, and the log's live order remembers the
// arrival order of the stored positions so Result reports input-order
// ids. Reordering within a batch is sound for the same reason appending
// is: components do not depend on arrival order.
type AnyEvaluator struct {
	pointLog
	opt Options   // Eps is the top level's
	eps []float64 // every level's ε, ascending (f.keys in ε)
	// f holds the levels over stored positions (incl. dead), each with
	// the forest a Remove repairs.
	f    *anyForests
	ix   *anyGrid // nil until the first accepted batch
	join anyJoin  // the scratch of Append's, probePass's and Remove's probes

	rm anyRemoval // Remove's reusable scratch (decremental.go)
}

// NewAnyLevels returns an empty resumable SGB-Any evaluation at every ε
// level of levels (ValidateLevels: an EPS IN list of at most MaxLevels);
// the first accepted batch fixes its dimensionality. opt.Eps is
// ignored: the largest level is the top, the radius appends probe at.
// BoundsCheck is rejected, as SGBAny rejects it.
func NewAnyLevels(levels []float64, opt Options) (*AnyEvaluator, error) {
	if err := ValidateLevels(levels); err != nil {
		return nil, err
	}
	order, _ := ascendingLevels(levels)
	eps := make([]float64, len(order))
	keys := make([]float64, len(order))
	for l, i := range order {
		opt.Eps = levels[i]
		if err := opt.Validate(); err != nil {
			return nil, err
		}
		eps[l], keys[l] = opt.Eps, opt.Metric.EpsKey(opt.Eps)
	}
	if opt.Algorithm == BoundsCheck {
		return nil, ErrBoundsCheckAny
	}
	f := newAnyForests(keys, 0)
	f.trees = make([]anyTree, len(keys))
	for l := range f.trees {
		f.trees[l] = newAnyTree(0)
	}
	return &AnyEvaluator{pointLog: newPointLog(), opt: opt, eps: eps, f: f}, nil
}

// Options returns the options the evaluator was created with; Eps is
// its top level. They are fixed: the retained state embodies them.
func (e *AnyEvaluator) Options() Options { return e.opt }

// Levels returns the ε levels the evaluator keeps, ascending.
func (e *AnyEvaluator) Levels() []float64 { return slices.Clone(e.eps) }

// Append absorbs a batch of points (copied into the evaluator's own
// storage): each point probes the live index for its neighbors within
// the top level's ε, joins each at the levels their distance reaches,
// and registers itself — the step every one-shot evaluation runs
// (anyJoin.step), each merge also recorded as a forest edge. An empty
// batch is a no-op.
func (e *AnyEvaluator) Append(ps *geom.PointSet) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	if err := e.accept(ps, e.opt.Eps); err != nil {
		return err
	}
	if e.ix == nil {
		e.ix = newAnyGrid(e.Dims(), 0, e.opt.Eps)
	}
	for i := e.add(ps, mortonPermFor(ps, e.opt)); i < e.points.Len(); i++ {
		for _, uf := range e.f.ufs {
			uf.Add()
		}
		for l := range e.f.trees {
			e.f.trees[l].grow()
		}
		e.join.step(e.ix, e.points, i, e.opt, e.f)
	}
	return nil
}

// Result materializes the current connected components at the top
// level in the same deterministic order as the one-shot operator
// (groups by smallest member index, members ascending, ids in original
// arrival order over the live points — the Morton reordering of batches
// and any removals are invisible here). The returned result owns its
// slices; calling Result repeatedly or interleaving it with Append and
// Remove is safe.
func (e *AnyEvaluator) Result() *Result {
	return &Result{Groups: groupsFromUF(e.f.ufs[len(e.f.ufs)-1], e.live)}
}

// GroupsAt materializes the grouping at eps, as Result does the top
// level's. A level the evaluator keeps is read off its partition; any
// other ε up to the top costs one probe pass over the live points, and
// the level is not kept (AddLevel keeps it). Above the top it fails with
// ErrEpsAboveMax.
func (e *AnyEvaluator) GroupsAt(eps float64) (*Result, error) {
	if l := slices.Index(e.eps, eps); l >= 0 {
		return &Result{Groups: groupsFromUF(e.f.ufs[l], e.live)}, nil
	}
	f, err := e.levelPass(eps, false)
	if err != nil {
		return nil, err
	}
	return &Result{Groups: groupsFromUF(f.ufs[0], e.live)}, nil
}

// AddLevel keeps one more ε level, at most the top: one probe pass over
// the live points builds its partition and forest, and from then on
// Append and Remove maintain it with the others. A level already kept
// is a no-op; one past MaxLevels fails with ErrTooManyLevels.
func (e *AnyEvaluator) AddLevel(eps float64) error {
	if slices.Contains(e.eps, eps) {
		return nil
	}
	if len(e.eps) == MaxLevels {
		return ErrTooManyLevels
	}
	f, err := e.levelPass(eps, true)
	if err != nil {
		return err
	}
	l, _ := slices.BinarySearch(e.eps, eps)
	e.eps = slices.Insert(e.eps, l, eps)
	e.f.keys = slices.Insert(e.f.keys, l, f.keys[0])
	e.f.ufs = slices.Insert(e.f.ufs, l, f.ufs[0])
	e.f.trees = slices.Insert(e.f.trees, l, f.trees[0])
	return nil
}

// levelPass builds level eps, which must not exceed the top, over the
// live points, with its forest when forest is set.
func (e *AnyEvaluator) levelPass(eps float64, forest bool) (*anyForests, error) {
	if eps > e.opt.Eps {
		return nil, fmt.Errorf("%w (top level %v)", ErrEpsAboveMax, e.opt.Eps)
	}
	opt := e.opt
	opt.Eps = eps
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := e.points.Len()
	f := newAnyForests([]float64{opt.Metric.EpsKey(eps)}, n)
	if forest {
		f.trees = []anyTree{newAnyTree(n)}
	}
	e.probePass(f, eps)
	return f, nil
}

// probePass links every pair of live points within eps, the top of f,
// into f, each from its later stored position: one probe pass over the
// live points, each probe's earlier candidates joining it as an
// append's do (anyJoin.join). It fills a level the evaluator did not
// hold.
func (e *AnyEvaluator) probePass(f *anyForests, eps float64) {
	ps, opt, g, j := e.points, e.opt, e.ix, &e.join
	for i := 0; i < ps.Len(); i++ {
		if e.alive != nil && !e.alive[i] {
			continue
		}
		opt.Stats.addProbe(1)
		p := ps.At(i)
		j.ids = g.tab.CollectBox(&g.cur, p, e.probeRadius(p, eps), j.ids[:0])
		n := 0
		for _, c := range j.ids {
			if int(c) < i {
				j.ids[n] = c
				n++
			}
		}
		j.ids = j.ids[:n]
		j.join(ps, i, opt, f)
	}
}

// probeRadius is the radius of a probe from p that must see every point
// within eps of it. At the top level it is the top level's ε, the radius
// appends probe at. Below the top it is eps widened by geom.PaddedReach, so
// the box provably holds every such point the wider top-level probe
// would find.
func (e *AnyEvaluator) probeRadius(p geom.Point, eps float64) float64 {
	if eps == e.opt.Eps {
		return eps
	}
	return geom.PaddedReach(p, eps)
}
