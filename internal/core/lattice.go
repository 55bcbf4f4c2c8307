package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/sgb-db/sgb/internal/geom"
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

// ErrEpsAboveMax rejects a level above an evaluator's top: appends probe
// at the top level's ε, so no level above it is known.
var ErrEpsAboveMax error = errValue("core: ε exceeds the evaluator's top level")

// MaxLevels bounds the ε levels one AnyEvaluator keeps: NewAnyLevels and
// AddLevel refuse more with ErrTooManyLevels.
const MaxLevels = 16

// ErrTooManyLevels rejects a level past MaxLevels.
var ErrTooManyLevels error = errValue("core: more ε levels than an evaluator keeps (MaxLevels)")

// ValidateEpsList checks an ε sweep list: non-empty, every level
// positive and finite and inside the range a single ε must be in
// (checkEpsRange), no duplicates. Returns one of the named errors above
// (wrapped with the offending level where there is one) or the range
// error.
func ValidateEpsList(epsList []float64) error {
	if len(epsList) == 0 {
		return ErrEpsListEmpty
	}
	seen := make(map[float64]bool, len(epsList))
	for _, e := range epsList {
		if !(e > 0) || math.IsInf(e, 1) {
			return fmt.Errorf("%w (got %v)", ErrEpsListNonPositive, e)
		}
		if err := checkEpsRange(e); err != nil {
			return err
		}
		if seen[e] {
			return fmt.Errorf("%w (%v)", ErrEpsListDuplicate, e)
		}
		seen[e] = true
	}
	return nil
}

// ValidateLevels checks the levels of a maintained evaluator: an EPS IN
// list (ValidateEpsList) of at most MaxLevels.
func ValidateLevels(levels []float64) error {
	if err := ValidateEpsList(levels); err != nil {
		return err
	}
	if len(levels) > MaxLevels {
		return fmt.Errorf("%w (got %d)", ErrTooManyLevels, len(levels))
	}
	return nil
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

// LatticeEvaluator exists only for bench/, whose traced pass and probes
// build one, and is deleted with ROADMAP 1(b). It wraps one AnyEvaluator
// whose top level is Options.Eps. Sweep keeps each level it is asked for
// while the evaluator holds fewer than MaxLevels and reads any further
// one with a probe pass, as a cached sweep entry does.
type LatticeEvaluator struct{ ev *AnyEvaluator }

// NewLatticeEvaluator returns an empty evaluator whose top level is
// opt.Eps; the first accepted batch fixes its dimensionality (dims,
// which bench/ passes, is not read). BoundsCheck is rejected, as SGBAny
// rejects it; opt.Stats is not retained.
func NewLatticeEvaluator(dims int, opt Options) (*LatticeEvaluator, error) {
	opt.Stats = nil
	ev, err := NewAnyLevels([]float64{opt.Eps}, opt)
	if err != nil {
		return nil, err
	}
	return &LatticeEvaluator{ev: ev}, nil
}

// EpsMax returns the top level, the largest ε Sweep answers.
func (e *LatticeEvaluator) EpsMax() float64 { return e.ev.opt.Eps }

// AppendSet absorbs a batch of points, charging the call's work to st
// when non-nil.
func (e *LatticeEvaluator) AppendSet(ps *geom.PointSet, st *Stats) error {
	e.ev.opt.Stats = st
	defer func() { e.ev.opt.Stats = nil }()
	return e.ev.Append(ps)
}

// Sweep answers every level of epsList (ValidateEpsList, none above
// EpsMax), aligned to the list's order.
func (e *LatticeEvaluator) Sweep(epsList []float64) ([]*Result, error) {
	if err := ValidateEpsList(epsList); err != nil {
		return nil, err
	}
	out := make([]*Result, len(epsList))
	for i, eps := range epsList {
		if len(e.ev.eps) < MaxLevels {
			if err := e.ev.AddLevel(eps); err != nil {
				return nil, err
			}
		}
		var err error
		if out[i], err = e.ev.GroupsAt(eps); err != nil {
			return nil, err
		}
	}
	return out, nil
}
