package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/lattice"
)

// Named ε-list validation errors, shared by the Go sweep API and the
// SQL planner (EPS IN / SIMILARITY CUBE lowering) so every surface
// rejects a bad list the same way.
var (
	// ErrEpsListEmpty rejects a sweep with no ε levels.
	ErrEpsListEmpty error = errValue("core: EPS IN list must name at least one ε level")
	// ErrEpsListNonPositive rejects a level that is not a positive
	// finite number.
	ErrEpsListNonPositive error = errValue("core: every ε level must be positive and finite")
	// ErrEpsListDuplicate rejects a repeated level — a duplicate would
	// emit the same grouping twice, which is never what the query meant.
	ErrEpsListDuplicate error = errValue("core: EPS IN list contains a duplicate ε level")
)

// ErrEpsAboveMax re-exports the lattice package's out-of-range query
// error: a dendrogram only knows merges below the ε_max its sweep
// enumerated, and an AnyEvaluator only levels up to its top.
var ErrEpsAboveMax = lattice.ErrEpsAboveMax

// ValidateEpsList checks an ε sweep list: non-empty, every level
// positive and finite, no duplicates. Returns one of the named errors
// above (wrapped with the offending level where there is one).
func ValidateEpsList(epsList []float64) error {
	if len(epsList) == 0 {
		return ErrEpsListEmpty
	}
	seen := make(map[float64]bool, len(epsList))
	for _, e := range epsList {
		if !(e > 0) || math.IsInf(e, 1) {
			return fmt.Errorf("%w (got %v)", ErrEpsListNonPositive, e)
		}
		if seen[e] {
			return fmt.Errorf("%w (%v)", ErrEpsListDuplicate, e)
		}
		seen[e] = true
	}
	return nil
}

// EpsSummary is one ε level's aggregate row — the SIMILARITY CUBE BY
// EPS unit (level, group count, largest group, grouped-point
// fraction).
type EpsSummary = lattice.Summary

// LatticeEvaluator is the resumable ε-lattice arm of SGB-Any: one
// grid-accelerated edge sweep maintained across Appends whose
// dendrogram answers GroupsAt(ε) for every ε ≤ ε_max without probing.
// The engine no longer keeps one: a one-shot sweep runs SweepAny's
// level forests, and a cached EPS IN (...) or SIMILARITY CUBE entry
// keeps them maintained (NewAnyLevels), adding a level when one is
// asked for. Group
// output is bit-identical to an independent one-shot SGBAny run at the
// same ε (heights are compared in the metric's Within key space), for
// every algorithm strategy, since SGB-Any components are
// strategy-independent.
//
// Options.Eps is the evaluator's ε_max. Algorithm, Seed, Overlap, and
// Parallelism do not affect the result (components are
// strategy-independent and arbitration-free); BoundsCheck is still
// rejected, exactly as SGBAny rejects it. Parallelism chooses, by the
// rule SGB-Any's pipeline uses (Options.workers), how many goroutines
// build the first batch's forest; later batches append sequentially,
// and the merge list is the same element for element at every worker
// count. Unlike the Any/All
// evaluators, Options.Stats is NOT retained — each Append and query
// charges work to the *Stats argument of that call, so one shared
// evaluator can serve many sessions with per-session accounting.
type LatticeEvaluator struct {
	opt   Options
	sweep *lattice.Sweep
}

// NewLatticeEvaluator returns an empty ε-lattice evaluator over
// dims-dimensional points. opt.Eps is the largest answerable ε.
func NewLatticeEvaluator(dims int, opt Options) (*LatticeEvaluator, error) {
	opt.Stats = nil // per-call accounting only; see the type comment
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Algorithm == BoundsCheck {
		return nil, ErrBoundsCheckAny
	}
	sw, err := lattice.NewSweep(dims, opt.Metric, opt.Eps)
	if err != nil {
		return nil, err
	}
	return &LatticeEvaluator{opt: opt, sweep: sw}, nil
}

// Len returns the number of absorbed points.
func (e *LatticeEvaluator) Len() int { return e.sweep.Len() }

// Dims returns the evaluator's point dimensionality.
func (e *LatticeEvaluator) Dims() int { return e.sweep.Dims() }

// EpsMax returns the largest answerable threshold.
func (e *LatticeEvaluator) EpsMax() float64 { return e.sweep.EpsMax() }

// Append absorbs a batch of points. Work counters accumulate into st
// when non-nil; st is not retained.
func (e *LatticeEvaluator) Append(points []geom.Point, st *Stats) error {
	if _, err := checkInput(points); err != nil {
		return err
	}
	return e.AppendSet(geom.FromPoints(points), st)
}

// AppendSet is Append over flat point storage. The batch is copied.
func (e *LatticeEvaluator) AppendSet(ps *geom.PointSet, st *Stats) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	if ps.Dims() != e.sweep.Dims() {
		return fmt.Errorf("core: appended points have dimension %d, want %d", ps.Dims(), e.sweep.Dims())
	}
	if err := checkCoords(ps, e.opt.Eps); err != nil {
		return err
	}
	var ls lattice.Stats
	err := e.sweep.Append(ps, e.opt.workers(ps.Len()), &ls)
	st.addLattice(&ls)
	return err
}

// Remove deletes the points with the given live ids (any order) and
// repairs the dendrogram in place: the minimum spanning forest keeps
// every edge between survivors, and only the pieces the removal split
// off their trees are re-probed (lattice.Sweep.Remove). Ids compact
// afterwards exactly as the Any/All evaluators' do, so every level
// equals a from-scratch sweep over the survivors. A bad id list is
// rejected before anything changes. Work counters accumulate into st
// when non-nil; st is not retained.
func (e *LatticeEvaluator) Remove(ids []int, st *Stats) error {
	if len(ids) == 0 {
		return nil
	}
	sorted, err := checkRemoveIDs(ids, e.Len())
	if err != nil {
		return err
	}
	var ls lattice.Stats
	err = e.sweep.Remove(sorted, &ls)
	st.addLattice(&ls)
	return err
}

// addLattice folds one sweep call's counters into the operator block.
func (s *Stats) addLattice(ls *lattice.Stats) {
	s.addDist(ls.DistanceComputations)
	s.addProbe(ls.IndexProbes)
	s.addUpdate(ls.IndexUpdates)
}

// GroupsAt materializes the grouping at threshold eps ≤ EpsMax(),
// identical to a one-shot SGBAny run at eps over the absorbed points.
// Queries perform no distance computations or index work — the
// dendrogram cut is a binary search plus an amortized Union-Find
// replay.
func (e *LatticeEvaluator) GroupsAt(eps float64) (*Result, error) {
	raw, err := e.sweep.Dendrogram().GroupsAt(eps)
	if err != nil {
		return nil, latticeQueryErr(err, e.sweep.EpsMax())
	}
	res := &Result{Groups: make([]Group, len(raw))}
	for i, g := range raw {
		res.Groups[i] = Group{Members: g}
	}
	return res, nil
}

// SummaryAt computes one ε level's aggregate row without
// materializing its groups.
func (e *LatticeEvaluator) SummaryAt(eps float64) (EpsSummary, error) {
	sum, err := e.sweep.Dendrogram().SummaryAt(eps)
	if err != nil {
		return EpsSummary{}, latticeQueryErr(err, e.sweep.EpsMax())
	}
	return sum, nil
}

// Sweep answers every level of epsList in one pass, results aligned to
// the caller's list order. The list is validated with ValidateEpsList
// and must not exceed EpsMax(). Internally levels are visited in
// ascending order so the dendrogram replay does one total pass
// regardless of list order.
func (e *LatticeEvaluator) Sweep(epsList []float64) ([]*Result, error) {
	order, err := ascendingLevels(epsList)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(epsList))
	for _, i := range order {
		if out[i], err = e.GroupsAt(epsList[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SweepSummaries is Sweep for aggregate rows — the CUBE fast path.
func (e *LatticeEvaluator) SweepSummaries(epsList []float64) ([]EpsSummary, error) {
	order, err := ascendingLevels(epsList)
	if err != nil {
		return nil, err
	}
	out := make([]EpsSummary, len(epsList))
	for _, i := range order {
		if out[i], err = e.SummaryAt(epsList[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ascendingLevels validates epsList and returns its index permutation
// in ascending ε order.
func ascendingLevels(epsList []float64) ([]int, error) {
	if err := ValidateEpsList(epsList); err != nil {
		return nil, err
	}
	order := make([]int, len(epsList))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return epsList[order[a]] < epsList[order[b]] })
	return order, nil
}

// latticeQueryErr decorates an out-of-range query error with the
// evaluator's bound; other errors pass through.
func latticeQueryErr(err error, epsMax float64) error {
	if errors.Is(err, lattice.ErrEpsAboveMax) {
		return fmt.Errorf("%w (ε_max = %v)", ErrEpsAboveMax, epsMax)
	}
	return err
}
