package incr

import (
	"errors"
	"fmt"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// Semantics selects which similarity group-by operator an Incremental
// maintains.
type Semantics int

const (
	// All maintains SGB-All (DISTANCE-TO-ALL clique groups with
	// ON-OVERLAP arbitration).
	All Semantics = iota
	// Any maintains SGB-Any (DISTANCE-TO-ANY connected components).
	Any
)

// String returns the SQL clause spelling of the semantics.
func (s Semantics) String() string {
	switch s {
	case All:
		return "DISTANCE-TO-ALL"
	case Any:
		return "DISTANCE-TO-ANY"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Incremental maintains a similarity grouping under appends and
// removals. Create one with New, feed it batches with Append or
// AppendSet, delete points with Remove (or the sliding-window
// conveniences Window and WindowBy), and read the current grouping
// with Result — equivalent, at every step, to a one-shot evaluation
// over the surviving points in arrival order (identical components for
// SGB-Any; identical groups, member order, and JOIN-ANY arbitration
// draws for SGB-All under equal seeds).
//
// Point ids are live ids: Result numbers the surviving points
// 0..Len()-1 in arrival order, Remove accepts those numbers, and after
// a removal the survivors renumber compactly — the id space always
// matches what a from-scratch evaluation over the survivors would
// report.
//
// The handle forwards every call to its core evaluator
// (core.AllEvaluator or core.AnyEvaluator), which holds the options,
// levels, dimensionality and points. The dimensionality is fixed by
// the first accepted batch (and stays fixed even if every point is
// later removed); until then the handle is empty and Result returns an
// empty grouping. Appends evaluate sequentially (Options.Parallelism
// is ignored): the point of incremental maintenance is that per-append
// work scales with the batch, not the retained set, so there is
// nothing worth sharding. An Incremental is not safe for concurrent
// use.
type Incremental struct {
	sem Semantics
	ev  evaluator
}

// evaluator is what core.AllEvaluator and core.AnyEvaluator both provide.
type evaluator interface {
	Options() core.Options
	Levels() []float64
	AddLevel(eps float64) error
	GroupsAt(eps float64) (*core.Result, error)
	Dims() int
	Len() int
	LiveAt(i int) geom.Point
	Append(ps *geom.PointSet) error
	Remove(ids []int) error
	Result() *core.Result
}

// New returns an empty incremental grouping handle for the given
// operator semantics and options. The options are validated eagerly
// (including the SGB-Any rejection of Bounds-Checking) so a
// misconfigured handle fails at creation, not mid-stream. An SGB-Any
// handle is NewLevels' with the one level opt.Eps.
func New(sem Semantics, opt core.Options) (*Incremental, error) {
	switch sem {
	case All:
		ev, err := core.NewAllEvaluator(opt)
		if err != nil {
			return nil, err
		}
		return &Incremental{sem: All, ev: ev}, nil
	case Any:
		return NewLevels(opt, []float64{opt.Eps})
	}
	return nil, fmt.Errorf("incr: unknown semantics %d", int(sem))
}

// NewLevels returns an empty incremental SGB-Any grouping kept at every
// ε level of levels at once (core.NewAnyLevels): one probe per appended
// point feeds every level, a removal repairs each, and GroupsAt reads
// any of them, Result the top one. levels is validated as
// core.ValidateLevels has it: an EPS IN list of at most core.MaxLevels.
// opt.Eps is ignored — the largest level is the top, and Options
// reports it.
func NewLevels(opt core.Options, levels []float64) (*Incremental, error) {
	ev, err := core.NewAnyLevels(levels, opt)
	if err != nil {
		return nil, err
	}
	return &Incremental{sem: Any, ev: ev}, nil
}

// Options returns the options the handle was created with; Eps is its
// top level. They are fixed: the retained state embodies them.
func (x *Incremental) Options() core.Options { return x.ev.Options() }

// Levels returns the ε levels the handle keeps, ascending.
func (x *Incremental) Levels() []float64 { return x.ev.Levels() }

// AddLevel keeps one more ε level, at most the top, in an SGB-Any
// handle: one probe pass over the live points
// (core.AnyEvaluator.AddLevel), then maintained with the others. A level
// already kept is a no-op; one past core.MaxLevels fails with
// core.ErrTooManyLevels. An SGB-All handle keeps its own ε only.
func (x *Incremental) AddLevel(eps float64) error { return x.ev.AddLevel(eps) }

// GroupsAt materializes the grouping at eps, as Result does at the top.
// An SGB-Any handle reads a level it keeps off its state, and answers
// any other ε up to the top with one probe pass over the live points,
// without keeping the level. An SGB-All handle answers its own ε only.
func (x *Incremental) GroupsAt(eps float64) (*core.Result, error) { return x.ev.GroupsAt(eps) }

// Semantics returns the operator the handle maintains.
func (x *Incremental) Semantics() Semantics { return x.sem }

// Len returns the number of live points (appended and not removed).
func (x *Incremental) Len() int { return x.ev.Len() }

// Dims returns the point dimensionality, or 0 while no batch has been
// accepted yet.
func (x *Incremental) Dims() int { return x.ev.Dims() }

// Append absorbs a batch of points given as a []Point slice. All
// points must share the handle's dimensionality (fixed by the first
// accepted batch). See AppendSet for the flat-storage variant.
func (x *Incremental) Append(points []geom.Point) error {
	if len(points) == 0 {
		return nil
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return fmt.Errorf("incr: point %d has dimension %d, want %d", i, len(p), d)
		}
	}
	if d == 0 {
		return errors.New("incr: zero-dimensional point")
	}
	return x.AppendSet(geom.FromPoints(points))
}

// AppendSet absorbs a batch of points in flat storage. The points are
// copied; the caller's set is not retained. An empty batch is a
// no-op, and a rejected one changes nothing.
func (x *Incremental) AppendSet(ps *geom.PointSet) error { return x.ev.Append(ps) }

// Remove deletes the points with the given live ids (the numbering
// Result reports: surviving points 0..Len()-1 in arrival order) and
// repairs the grouping. For SGB-Any the repair is localized to the
// victims' components (deletion can only split a component), and within
// them to the pieces the deletion split off their spanning trees; for
// SGB-All the arbitration is replayed over the survivors of those
// components, which is what stays bit-identical to a from-scratch run
// (see core's decremental notes). Ids renumber compactly after the call.
// An empty batch is a no-op; out-of-range or duplicate ids fail
// without mutating the handle.
func (x *Incremental) Remove(ids []int) error { return x.ev.Remove(ids) }

// Window evicts oldest-first until at most n points remain — the
// count-based sliding window. It returns how many points were evicted.
func (x *Incremental) Window(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("incr: window size must be >= 0, got %d", n)
	}
	return x.evict(x.Len() - n)
}

// WindowBy evicts the longest oldest-first prefix of live points for
// which pred returns true — the predicate-based sliding window (expire
// by timestamp when a coordinate carries one, by distance from a
// moving origin, ...). Eviction stops at the first point pred keeps,
// preserving arrival order semantics: a window is a suffix of the
// stream. It returns how many points were evicted.
func (x *Incremental) WindowBy(pred func(p geom.Point) bool) (int, error) {
	if pred == nil {
		return 0, fmt.Errorf("incr: WindowBy predicate must not be nil")
	}
	n := x.Len()
	evict := 0
	for evict < n && pred(x.ev.LiveAt(evict)) {
		evict++
	}
	return x.evict(evict)
}

// evict removes the k oldest live points, if k > 0, and returns how
// many it removed.
func (x *Incremental) evict(k int) (int, error) {
	if k <= 0 {
		return 0, nil
	}
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i
	}
	if err := x.Remove(ids); err != nil {
		return 0, err
	}
	return k, nil
}

// Result materializes the current grouping. The result owns its
// slices; it stays valid across later appends, and repeated calls are
// independent (under FORM-NEW-GROUP each call replays the deferred-set
// recursion on a clone of the retained state). Before any accepted
// append it returns an empty grouping.
func (x *Incremental) Result() (*core.Result, error) { return x.ev.Result(), nil }
