package incr

import (
	"errors"
	"fmt"
	"slices"

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

// ErrOptionsMutated is returned by Append and Result when the handle's
// Opt field no longer matches the options it was created from. The
// retained grouping state embodies those options — the metric and ε;
// for SGB-All the overlap clause, the strategy, and under JOIN-ANY the
// seed (core.Options.Maintained) — and silently continuing under
// different ones would produce a grouping no one-shot evaluation
// matches, so any mutation is refused. Create a new handle to change
// options.
var ErrOptionsMutated = errors.New("incr: Options mutated after creation; incremental state embodies the original options — create a new Incremental instead")

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
// The dimensionality is fixed by the first non-empty batch (and stays
// fixed even if every point is later removed); until then the handle
// is empty and Result returns an empty grouping. Appends evaluate
// sequentially (Options.Parallelism is ignored): the point of
// incremental maintenance is that per-append work scales with the
// batch, not the retained set, so there is nothing worth sharding. An
// Incremental is not safe for concurrent use.
type Incremental struct {
	// Opt is the options snapshot the handle was created from, exposed
	// for inspection. It must not be modified: Append and Result fail
	// with ErrOptionsMutated if it no longer matches the creation-time
	// snapshot.
	Opt core.Options

	snap core.Options // creation-time copy Opt is checked against
	sem  Semantics
	dims int // 0 until the first non-empty batch fixes it
	// levels are the ε levels of a handle NewLevels made, ascending (the
	// last is Opt.Eps); nil for a single-ε handle.
	levels []float64

	ev evaluator // nil until the first non-empty batch
}

// evaluator is what core.AllEvaluator and core.AnyEvaluator both provide.
type evaluator interface {
	Len() int
	LiveAt(i int) geom.Point
	Append(ps *geom.PointSet) error
	Remove(ids []int) error
	Result() *core.Result
}

// MaxLevels bounds the ε levels one NewLevels handle keeps (AddLevel
// refuses more).
const MaxLevels = 16

// New returns an empty incremental grouping handle for the given
// operator semantics and options. The options are validated eagerly
// (including the SGB-Any rejection of Bounds-Checking) so a
// misconfigured handle fails at creation, not mid-stream.
func New(sem Semantics, opt core.Options) (*Incremental, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if sem != All && sem != Any {
		return nil, fmt.Errorf("incr: unknown semantics %d", int(sem))
	}
	if sem == Any && opt.Algorithm == core.BoundsCheck {
		// Surface the one-shot operator's rejection at handle creation
		// rather than mid-stream at the first append.
		return nil, core.ErrBoundsCheckAny
	}
	return &Incremental{Opt: opt, snap: opt, sem: sem}, nil
}

// NewLevels returns an empty incremental SGB-Any grouping kept at every
// ε level of levels at once (core.NewAnyLevels): one probe per appended
// point feeds every level, a removal repairs each, and GroupsAt reads
// any of them, Result the top one. levels is validated as an EPS IN list
// and holds at most MaxLevels; opt.Eps is ignored — the largest level is
// the top, and Opt reports it. Such a handle has no export format
// (ExportState).
func NewLevels(opt core.Options, levels []float64) (*Incremental, error) {
	if err := core.ValidateEpsList(levels); err != nil {
		return nil, err
	}
	if len(levels) > MaxLevels {
		return nil, fmt.Errorf("incr: %d ε levels, at most %d", len(levels), MaxLevels)
	}
	levels = slices.Clone(levels)
	slices.Sort(levels)
	opt.Eps = levels[len(levels)-1]
	x, err := New(Any, opt)
	if err != nil {
		return nil, err
	}
	for _, eps := range levels {
		if err := x.checkLevel(eps); err != nil {
			return nil, err
		}
	}
	x.levels = levels
	return x, nil
}

// Levels returns the ε levels the handle keeps, ascending: Opt.Eps alone
// unless NewLevels made it.
func (x *Incremental) Levels() []float64 {
	if x.levels == nil {
		return []float64{x.snap.Eps}
	}
	return slices.Clone(x.levels)
}

// AddLevel keeps one more ε level, at most Opt.Eps, in a handle NewLevels
// made: one probe pass over the live points (core.AnyEvaluator.AddLevel),
// then maintained with the others. A level already kept is a no-op.
func (x *Incremental) AddLevel(eps float64) error {
	if x.Opt != x.snap {
		return ErrOptionsMutated
	}
	switch {
	case x.levels == nil:
		return errors.New("incr: AddLevel needs a handle made by NewLevels")
	case slices.Contains(x.levels, eps):
		return nil
	case len(x.levels) == MaxLevels:
		return fmt.Errorf("incr: the handle keeps %d ε levels already", MaxLevels)
	}
	if err := x.checkLevel(eps); err != nil {
		return err
	}
	if x.ev != nil {
		if err := x.ev.(*core.AnyEvaluator).AddLevel(eps); err != nil {
			return err
		}
	}
	l, _ := slices.BinarySearch(x.levels, eps)
	x.levels = slices.Insert(x.levels, l, eps)
	return nil
}

// checkLevel validates eps as a level of the handle: a valid ε at most
// the top.
func (x *Incremental) checkLevel(eps float64) error {
	if eps > x.snap.Eps {
		return fmt.Errorf("%w (top level %v)", core.ErrEpsAboveMax, x.snap.Eps)
	}
	opt := x.snap
	opt.Eps = eps
	return opt.Validate()
}

// GroupsAt materializes the grouping at eps, as Result does at Opt.Eps.
// A single-ε handle answers its own ε only. A NewLevels handle reads a
// level it keeps off its state, and answers any other ε up to the top
// with one probe pass over the live points, without keeping the level.
func (x *Incremental) GroupsAt(eps float64) (*core.Result, error) {
	if x.levels == nil || eps == x.snap.Eps {
		if eps != x.snap.Eps {
			return nil, fmt.Errorf("incr: the handle keeps ε %v only, not %v", x.snap.Eps, eps)
		}
		return x.Result()
	}
	if x.Opt != x.snap {
		return nil, ErrOptionsMutated
	}
	if x.ev == nil {
		return &core.Result{}, x.checkLevel(eps)
	}
	return x.ev.(*core.AnyEvaluator).GroupsAt(eps)
}

// Semantics returns the operator the handle maintains.
func (x *Incremental) Semantics() Semantics { return x.sem }

// Len returns the number of live points (appended and not removed).
func (x *Incremental) Len() int {
	if x.ev == nil {
		return 0
	}
	return x.ev.Len()
}

// Dims returns the point dimensionality, or 0 while no batch has been
// appended yet.
func (x *Incremental) Dims() int { return x.dims }

// Append absorbs a batch of points given as a []Point slice. All
// points must share the handle's dimensionality (fixed by the first
// batch). See AppendSet for the flat-storage variant.
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
// no-op.
func (x *Incremental) AppendSet(ps *geom.PointSet) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	if x.Opt != x.snap {
		return ErrOptionsMutated
	}
	if err := x.ensure(ps.Dims()); err != nil {
		return err
	}
	return x.ev.Append(ps)
}

// ensure lazily creates the underlying evaluator once the first batch
// reveals the dimensionality, and rejects mismatched later batches.
func (x *Incremental) ensure(dims int) error {
	if x.dims != 0 {
		if dims != x.dims {
			return fmt.Errorf("incr: appended points have dimension %d, want %d", dims, x.dims)
		}
		return nil
	}
	var ev evaluator
	var err error
	switch {
	case x.sem == All:
		ev, err = core.NewAllEvaluator(dims, x.evalOpt())
	case x.levels != nil:
		ev, err = core.NewAnyLevels(dims, x.levels, x.evalOpt())
	default:
		ev, err = core.NewAnyEvaluator(dims, x.evalOpt())
	}
	if err != nil {
		return err // ev holds a nil pointer here; x.ev stays a nil interface
	}
	x.ev, x.dims = ev, dims
	return nil
}

// evalOpt returns the options the underlying evaluator runs under.
func (x *Incremental) evalOpt() core.Options {
	opt := x.snap
	opt.Parallelism = 1 // appends evaluate sequentially by design
	return opt
}

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
func (x *Incremental) Remove(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	if x.Opt != x.snap {
		return ErrOptionsMutated
	}
	if x.ev == nil {
		return fmt.Errorf("incr: Remove id out of range [0, 0)")
	}
	return x.ev.Remove(ids)
}

// Window evicts oldest-first until at most n points remain — the
// count-based sliding window. It returns how many points were evicted.
func (x *Incremental) Window(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("incr: window size must be >= 0, got %d", n)
	}
	if x.Opt != x.snap {
		return 0, ErrOptionsMutated
	}
	evict := x.Len() - n
	if evict <= 0 {
		return 0, nil
	}
	ids := make([]int, evict)
	for i := range ids {
		ids[i] = i
	}
	if err := x.Remove(ids); err != nil {
		return 0, err
	}
	return evict, nil
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
	if x.Opt != x.snap {
		return 0, ErrOptionsMutated
	}
	n := x.Len()
	evict := 0
	for evict < n && pred(x.ev.LiveAt(evict)) {
		evict++
	}
	if evict == 0 {
		return 0, nil
	}
	ids := make([]int, evict)
	for i := range ids {
		ids[i] = i
	}
	if err := x.Remove(ids); err != nil {
		return 0, err
	}
	return evict, nil
}

// Result materializes the current grouping. The result owns its
// slices; it stays valid across later appends, and repeated calls are
// independent (under FORM-NEW-GROUP each call replays the deferred-set
// recursion on a clone of the retained state). Before any append it
// returns an empty grouping.
func (x *Incremental) Result() (*core.Result, error) {
	if x.Opt != x.snap {
		return nil, ErrOptionsMutated
	}
	if x.ev == nil {
		return &core.Result{}, nil
	}
	return x.ev.Result(), nil
}
