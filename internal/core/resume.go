package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file holds the resumable arm of the operators: evaluation state
// that survives between calls so that new points can be appended to an
// existing grouping without recomputing it. The one-shot entry points
// (SGBAllSet / SGBAnySet) and the evaluators below share every
// per-point step of SGB-All (processOne), so an incremental run over
// batches b1, b2, ... produces exactly the grouping of a one-shot run
// over their concatenation, bit-identical state included. SGB-Any's
// evaluator runs the one-shot grid kernel (cellGraph: link whole
// ε-cells) wherever it evaluates a whole point set — a batch into an
// evaluator that holds no points, a new level, a level it does not keep
// — and absorbs a batch appended to points it holds point by point
// (anyJoin.step, the join the one-shot All-Pairs and R-tree runs use):
// harmless, as components are order-independent and every path reports
// input-order ids in canonical order.
//
// The companion work on order-independent SGB semantics (PAPERS.md:
// "On Order-independent Semantics of the Similarity Group-By
// Relational Database Operator") is what makes the SGB-Any half
// trivially sound: connected components are independent of arrival
// order, so the live ε-grid plus Union-Find just keeps absorbing
// points. SGB-All is order-SENSITIVE by design, but its processing
// order is exactly arrival order, which appends extend — the only
// subtlety is FORM-NEW-GROUP's end-of-input recursion, which runs
// SGB-All again on the deferred set S′ on a pass state of its own, so
// the retained main-pass state stays appendable.

// pointLog is what both maintained evaluators keep of their points:
// the append-only log in stored order, the live ids over it, and the
// tombstones a Remove leaves. The first batch an evaluator accepts
// fixes the dimensionality, which stays fixed even if every point is
// later removed.
type pointLog struct {
	points *geom.PointSet // dims 0 until the first accepted batch
	// live holds the stored positions of the surviving points,
	// ascending: stored order is arrival order. A point's public id is
	// its index in live (so ids compact after removals exactly as a
	// from-scratch evaluation over the survivors would number them). nil
	// means the identity over [0, points.Len()): nothing was removed
	// since the log was last compacted.
	live []int32
	// alive flags stored positions (nil with live: everything alive),
	// and dead counts the tombstoned ones; when they outnumber the live
	// points the owner compacts the log (dropDead), so steady-state
	// windowed workloads hold memory proportional to the window, not the
	// history.
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

// materializeLive switches the identity mapping to an explicit one,
// every stored position alive — the first removal needs it.
func (l *pointLog) materializeLive() {
	if l.live != nil {
		return
	}
	n := l.points.Len()
	l.live, l.alive = make([]int32, n, n+16), make([]bool, n)
	for i := range l.live {
		l.live[i], l.alive[i] = int32(i), true
	}
}

// accept validates a non-empty batch — the log's dimensionality, and
// coordinates the ε-grid at eps, the lowest level kept, can quantize —
// and fixes the dimensionality when it is the first batch accepted.
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

// checkLevel holds the live points to checkCoords' rule at a level eps
// below every level they were accepted at: a level is refused before it
// touches the evaluator, as the batch would have been.
func (l *pointLog) checkLevel(eps float64) error {
	limit := eps * maxCells
	for i := 0; i < l.Len(); i++ {
		for k, v := range l.LiveAt(i) {
			if math.Abs(v) > limit {
				return &coordRangeError{Point: i, Dim: k, Value: v, Eps: eps}
			}
		}
	}
	return nil
}

// add copies an accepted batch onto the log as it arrived and returns
// the stored position of the first point added.
func (l *pointLog) add(ps *geom.PointSet) int {
	base := l.points.Len()
	if l.live != nil {
		for k := 0; k < ps.Len(); k++ {
			l.live, l.alive = append(l.live, int32(base+k)), append(l.alive, true)
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

// newState starts an empty arbitration state over the log, with the
// finder appends and Remove replays probe (newFinder).
func (e *AllEvaluator) newState() {
	e.st = new(sgbAllState)
	e.st.reset(e.points, e.opt)
	e.st.finder = newFinder(e.st, e.points.Len())
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
		e.newState()
	}
	st := e.st
	base := e.add(ps)
	n := e.points.Len()
	e.idxOK = false
	for i := base; i < n; i++ {
		st.pointGroup, st.next = append(st.pointGroup, -1), append(st.next, -1)
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
// seeds). Under FORM-NEW-GROUP the retained groups come first, and
// then the groups of SGB-All run again on the deferred set S′, on a
// pass state of its own, so calling Result neither perturbs future
// appends nor later Results — but it does run that recursion each call
// (and re-counts it into Options.Stats, when attached). Groups come
// in creation order — the retained order list, not id order — and
// member and Eliminated ids are live ids: compact indices over the
// surviving points in arrival order, exactly as a from-scratch run over
// them would number its input. The returned result owns its slices,
// the member run (Layout) and Eliminated. Before the first accepted
// batch it is an empty grouping.
func (e *AllEvaluator) Result() *Result {
	st := e.st
	if st == nil {
		return &Result{}
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
	if st.opt.Overlap != FormNewGroup || len(st.deferred) == 0 {
		return st.result(idx)
	}
	// FORM-NEW-GROUP: the retained groups are final, and SGB-All runs
	// again on S′ (a copy of deferred) from depth 1, on a pass-scratch
	// state that holds none of them.
	sc := getPassScratch()
	cl := sc.allState(st.points, st.opt)
	cl.outMembers, cl.outEnds = st.appendGroups(cl.outMembers, cl.outEnds)
	cl.run(append(cl.spare[:0], st.deferred...), 1)
	res := cl.result(idx)
	sc.release()
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
// below the top. A whole point set — the first batch into an evaluator
// that holds none, a new level, a level it does not keep — runs the
// one-shot grid kernel (cellGraph), each union recorded as a forest
// edge. A batch appended to points it holds probes point by point at the
// top level's ε, and each pair joins the levels its distance reaches, as
// in SweepAny under the R-tree.
//
// The index is the grid whatever Options.Algorithm names: components do
// not depend on the index that finds the ε-edges either, so groups, ids
// and retained partitions are the same under every strategy — only the
// Stats counters of maintenance work are the grid's.
type AnyEvaluator struct {
	pointLog
	opt Options   // Eps is the top level's
	eps []float64 // every level's ε, ascending (f.keys in ε)
	// f holds the levels over stored positions (incl. dead), each with
	// the forest a Remove repairs.
	f    *anyForests
	ix   *anyGrid // nil until the first accepted batch
	join anyJoin  // the scratch of Append's and Remove's probes

	rm anyRemoval // Remove's reusable scratch (decremental.go)
}

// NewAnyLevels returns an empty resumable SGB-Any evaluation at every ε
// level of levels (an EPS IN list, ValidateEpsList, of at most MaxLevels);
// the first accepted batch fixes its dimensionality. opt.Eps is
// ignored: the largest level is the top, the radius appends probe at.
// BoundsCheck is rejected, as SGBAny rejects it.
func NewAnyLevels(levels []float64, opt Options) (*AnyEvaluator, error) {
	_, eps, keys, err := ascendingLevels(levels, opt.Metric)
	if err != nil {
		return nil, err
	}
	if len(levels) > MaxLevels {
		return nil, fmt.Errorf("%w (got %d)", ErrTooManyLevels, len(levels))
	}
	opt.Eps = eps[len(eps)-1]
	if err := opt.Validate(); err != nil {
		return nil, err
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
// storage). Into an evaluator that holds no points — a new one, or one
// whose every point was removed — every level is built over the batch
// as a one-shot grid run builds it, and the index is loaded in one pass.
// Otherwise each point probes
// the live index for its neighbors within the top level's ε, joins each
// at the levels their distance reaches, and registers itself — the step
// every one-shot All-Pairs and R-tree evaluation runs (anyJoin.step),
// each merge also recorded as a forest edge. An empty batch is a no-op.
func (e *AnyEvaluator) Append(ps *geom.PointSet) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	if err := e.accept(ps, e.eps[0]); err != nil {
		return err
	}
	if e.points.Len() == 0 {
		// Every level from cells, each above the lowest starting as a
		// copy of the one below, its forest too (cellGraph.level).
		n := ps.Len()
		for l := range e.f.ufs {
			e.f.ufs[l] = unionfind.New(n)
		}
		e.f.trees[0] = newAnyTree(n)
		e.add(ps)
		runCellGraph(e.points, e.opt.Metric, nil, e.f, e.opt.Stats)
		e.loadIndex()
		return nil
	}
	for i := e.add(ps); i < e.points.Len(); i++ {
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

// loadIndex registers every stored position, in ascending order, in a
// new top-level grid (anyGrid.add, one update per point) without
// probing it.
func (e *AnyEvaluator) loadIndex() {
	n := e.points.Len()
	ix := &anyGrid{tab: grid.NewCap(e.points.Dims(), e.opt.Eps, n/2)}
	for i := 0; i < n; i++ {
		ix.add(e.points, i, e.opt)
	}
	e.ix = ix
}

// Result materializes the current connected components at the top
// level in the same deterministic order as the one-shot operator
// (groups by smallest member index, members ascending, ids in original
// arrival order over the live points — removals are invisible here).
// The returned result owns its slices; calling Result repeatedly or
// interleaving it with Append and Remove is safe.
func (e *AnyEvaluator) Result() *Result {
	return groupsFromUF(e.f.ufs[len(e.f.ufs)-1], e.live)
}

// GroupsAt materializes the grouping at eps, as Result does the top
// level's. A level the evaluator keeps is read off its partition; any
// other ε up to the top costs one cell-graph pass over the live points
// (levelPass), and the level is not kept (AddLevel keeps it). Above the
// top it fails with ErrEpsAboveMax.
func (e *AnyEvaluator) GroupsAt(eps float64) (*Result, error) {
	if l := slices.Index(e.eps, eps); l >= 0 {
		return groupsFromUF(e.f.ufs[l], e.live), nil
	}
	f, err := e.levelPass(eps, false)
	if err != nil {
		return nil, err
	}
	return groupsFromUF(f.ufs[0], e.live), nil
}

// AddLevel keeps one more ε level, at most the top: one cell-graph pass
// over the live points builds its partition and forest (levelPass), and
// from then on Append and Remove maintain it with the others. A level
// already kept is a no-op; one past MaxLevels fails with
// ErrTooManyLevels.
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
// live points, with its forest when forest is set: one cell-graph level
// over the live stored positions, the tombstoned ones left singletons.
// An evaluator with no live points has no cells to link (nor, before
// its first batch, any dimensionality).
func (e *AnyEvaluator) levelPass(eps float64, forest bool) (*anyForests, error) {
	if eps > e.opt.Eps {
		return nil, fmt.Errorf("%w (top level %v)", ErrEpsAboveMax, e.opt.Eps)
	}
	opt := e.opt
	opt.Eps = eps
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if eps < e.eps[0] {
		if err := e.checkLevel(eps); err != nil {
			return nil, err
		}
	}
	n := e.points.Len()
	f := newAnyForests([]float64{opt.Metric.EpsKey(eps)}, n)
	if forest {
		f.trees = []anyTree{newAnyTree(n)}
	}
	if e.Len() > 0 {
		runCellGraph(e.points, opt.Metric, e.live, f, opt.Stats)
	}
	return f, nil
}
