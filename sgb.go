// Package sgb is a Go implementation of the similarity group-by
// operators of Tang et al., "Similarity Group-by Operators for
// Multi-dimensional Relational Data" (ICDE 2016): SGB-All
// (DISTANCE-TO-ALL, clique groups with JOIN-ANY / ELIMINATE /
// FORM-NEW-GROUP overlap arbitration) and SGB-Any (DISTANCE-TO-ANY,
// connected components), over L2 and L∞ metrics.
//
// The package offers two entry points:
//
//   - the standalone operator API (GroupByAll, GroupByAny) for grouping
//     slices of multi-dimensional points directly, and
//
//   - an embedded SQL engine (Open / DB.Query) with INSERT / DELETE
//     mutation, incremental group maintenance (SET incremental = on),
//     and the paper's extended GROUP BY syntax:
//
//     SELECT count(*) FROM gps
//     GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 3
//     ON-OVERLAP JOIN-ANY
//
// Four evaluation strategies are provided: the paper's naive All-Pairs
// baseline, Bounds-Checking with ε-All bounding rectangles, the
// on-the-fly R-tree index, and a uniform ε-grid index (GridIndex, the
// SQL engine's default) that outperforms the R-tree on the paper's
// low-dimensional workloads.
//
// SweepAny answers SGB-Any at several ε levels in one evaluation, one
// Union-Find per level; NewIncrementalAnyLevels keeps those levels under
// appends and removals. When Options.Parallelism (or the SQL session's
// SET parallelism) allows more than one worker, a one-shot evaluation
// of k ≥ 2 levels splits its ascending levels into up to that many
// contiguous ranges and evaluates each on a goroutine of its own; a
// single ε always evaluates sequentially. SGB-All is order-sensitive
// and always runs the paper's sequential arbitration loop; it accepts
// the option and ignores it. Groupings are identical at every setting.
package sgb

import (
	"errors"
	"fmt"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// Point is a point in d-dimensional space (usually d = 2: the paper's
// latitude/longitude or derived TPC-H attribute pairs).
type Point = geom.Point

// PointSet is flat point storage: one contiguous coordinate buffer
// with stride d. The operators evaluate over a PointSet internally;
// building one directly (or via FromPoints) skips the per-call
// conversion of the []Point entry points.
type PointSet = geom.PointSet

// NewPointSet returns an empty PointSet for dims-dimensional points.
func NewPointSet(dims int) *PointSet { return geom.NewPointSet(dims) }

// FromPoints adapts a []Point to flat storage — zero-copy when the
// points already view one contiguous backing buffer in order, copying
// otherwise. All points must share one dimensionality.
func FromPoints(pts []Point) *PointSet { return geom.FromPoints(pts) }

// Metric is a Minkowski distance function.
type Metric = geom.Metric

// Supported metrics.
const (
	// L2 is the Euclidean distance.
	L2 = geom.L2
	// LInf is the maximum (Chebyshev) distance.
	LInf = geom.LInf
)

// Overlap selects the SGB-All ON-OVERLAP arbitration semantics.
type Overlap = core.Overlap

// ON-OVERLAP actions.
const (
	// JoinAny inserts an overlapping point into one arbitrary
	// (seeded-random) candidate group.
	JoinAny = core.JoinAny
	// Eliminate drops overlapping points from the output.
	Eliminate = core.Eliminate
	// FormNewGroup segregates overlapping points into new groups.
	FormNewGroup = core.FormNewGroup
)

// Algorithm selects the evaluation strategy.
type Algorithm = core.Algorithm

// Evaluation strategies.
const (
	// AllPairs is the quadratic baseline.
	AllPairs = core.AllPairs
	// BoundsCheck uses ε-All bounding rectangles (SGB-All only).
	BoundsCheck = core.BoundsCheck
	// OnTheFlyIndex additionally indexes groups (or points, for
	// SGB-Any) in an R-tree. The default strategy.
	OnTheFlyIndex = core.OnTheFlyIndex
	// GridIndex probes a uniform hash grid with ε-sized cells instead
	// of an R-tree — the fastest strategy at every dimensionality (cell
	// keys are hashed, so there is no d cap). SGB-Any inputs are
	// additionally Morton (Z-order) preordered for probe locality;
	// output ids always refer to the input order. Results are identical
	// to every other strategy for equal seeds.
	GridIndex = core.GridIndex
)

// Options configures a similarity group-by evaluation.
type Options = core.Options

// Group is one output group (indices into the input slice).
type Group = core.Group

// Result is the outcome of a grouping: the groups plus any points
// dropped by ON-OVERLAP ELIMINATE.
type Result = core.Result

// Stats accumulates operator-level counters (distance computations,
// rectangle tests, index probes, ...) when attached to Options.Stats.
type Stats = core.Stats

// GroupByAll evaluates SGB-All: every pair of points within an output
// group is within Options.Eps under Options.Metric, and points that
// qualify for several groups are arbitrated by Options.Overlap.
//
// Group membership is reported as indices into points. Like the
// paper's operator, the grouping is input-order sensitive.
func GroupByAll(points []Point, opt Options) (*Result, error) {
	return core.SGBAll(points, opt)
}

// GroupByAny evaluates SGB-Any: output groups are the maximal connected
// components of the ε-similarity graph (a point joins a group if it is
// within Options.Eps of at least one member). Options.Overlap is
// ignored — overlapping groups merge. The partition is independent of
// input order.
func GroupByAny(points []Point, opt Options) (*Result, error) {
	return core.SGBAny(points, opt)
}

// GroupByAllSet is GroupByAll over flat point storage, skipping the
// []Point adaptation.
func GroupByAllSet(points *PointSet, opt Options) (*Result, error) {
	return core.SGBAllSet(points, opt)
}

// GroupByAnySet is GroupByAny over flat point storage.
func GroupByAnySet(points *PointSet, opt Options) (*Result, error) {
	return core.SGBAnySet(points, opt)
}

// SweepAny evaluates SGB-Any at every ε level of epsList from ONE
// evaluation: GroupByAny's pipeline, under the finder opt.Algorithm
// names, probes once at max(epsList) and feeds one Union-Find per
// level (SGB-Any groups nest as ε grows, so a pair joins the lowest
// level its distance reaches and every level above it). Results align
// with epsList's order, each bit-identical to GroupByAny at that level —
// same groups, same order, same members. opt.Eps is ignored; the list
// defines the sweep's bound. The SQL spelling is
// GROUP BY ... DISTANCE-TO-ANY EPS IN (e1, e2, ...). To keep the levels
// under appends and removals, and add levels not known yet, use
// NewIncrementalAnyLevels.
func SweepAny(points []Point, epsList []float64, opt Options) ([]*Result, error) {
	return core.SweepAny(points, epsList, opt)
}

// SweepAnySet is SweepAny over flat point storage.
func SweepAnySet(points *PointSet, epsList []float64, opt Options) ([]*Result, error) {
	return core.SweepAnySet(points, epsList, opt)
}

// ConnectedComponents is the brute-force reference implementation of
// the SGB-Any semantics, exposed for verification and testing. Unlike
// the operator entry points it performs no input validation — a
// non-finite coordinate is not rejected but simply compares within ε
// of nothing (its point ends up a singleton); feed it the inputs the
// operators accepted.
func ConnectedComponents(points []Point, metric Metric, eps float64) []Group {
	return core.ConnectedComponents(points, metric, eps)
}

// Incremental maintains a similarity grouping under appends and
// removals: feed it point batches with Append (or AppendSet), delete
// points with Remove or the sliding-window conveniences Window /
// WindowBy (oldest-first eviction), and read the live grouping with
// Result. At every step the grouping equals a one-shot GroupByAll /
// GroupByAny over the surviving points in arrival order — identical
// components for SGB-Any (whose deletions repair only the spanning
// trees of the affected components), and identical groups, member
// order, and JOIN-ANY arbitration draws for SGB-All under equal seeds
// (whose deletions replay the survivors of the affected components;
// arbitration is presence-sensitive). Result ids are live ids:
// survivors number 0..Len()-1 in arrival order and renumber compactly
// after removals. Options returns the options the handle was created
// with, fixed for its life: the retained state embodies them. Every
// SGB-Any handle keeps its groupings at one or more ε levels and
// AddLevel keeps one more below the top; an SGB-All handle keeps its
// own ε only.
//
// The handle forwards to one core evaluator (core.AllEvaluator or
// core.AnyEvaluator, the state the SQL engine's cache holds too), which
// keeps the options, levels, dimensionality and points. The
// dimensionality is fixed by the first accepted batch and stays fixed
// even if every point is later removed; a rejected batch changes
// nothing. Appends evaluate sequentially (Options.Parallelism is
// ignored): per-append work scales with the batch, not the retained
// set. An Incremental is not safe for concurrent use. See
// ARCHITECTURE.md for why maintenance is sound.
type Incremental struct{ ev evaluator }

// NewIncrementalAll returns an empty incremental SGB-All grouping
// (DISTANCE-TO-ALL cliques with opt.Overlap arbitration). The options
// are validated at creation.
func NewIncrementalAll(opt Options) (*Incremental, error) {
	ev, err := core.NewAllEvaluator(opt)
	if err != nil {
		return nil, err
	}
	return &Incremental{ev}, nil
}

// NewIncrementalAny returns an empty incremental SGB-Any grouping
// (DISTANCE-TO-ANY connected components; opt.Overlap is ignored). The
// handle is maintained on the ε-grid whatever opt.Algorithm names:
// components do not depend on the index that finds the ε-edges. It is
// NewIncrementalAnyLevels' handle with the one level opt.Eps.
func NewIncrementalAny(opt Options) (*Incremental, error) {
	return NewIncrementalAnyLevels(opt, []float64{opt.Eps})
}

// NewIncrementalAnyLevels returns an empty incremental SGB-Any grouping
// kept at every ε level of levels at once — the maintained form of
// SweepAny: one probe per appended point feeds every level, a removal
// repairs each, GroupsAt reads any level, and AddLevel keeps one more
// below the top. levels is an EPS IN list of at most core.MaxLevels;
// opt.Eps is ignored, the largest level is the top. Bounds-Checking is
// rejected, as GroupByAny rejects it.
func NewIncrementalAnyLevels(opt Options, levels []float64) (*Incremental, error) {
	ev, err := core.NewAnyLevels(levels, opt)
	if err != nil {
		return nil, err
	}
	return &Incremental{ev}, nil
}

// Options returns the options the handle was created with; Eps is its
// top level.
func (x *Incremental) Options() Options { return x.ev.Options() }

// Levels returns the ε levels the handle keeps, ascending.
func (x *Incremental) Levels() []float64 { return x.ev.Levels() }

// AddLevel keeps one more ε level, at most the top, in an SGB-Any
// handle: one probe pass over the live points, then maintained with the
// others. A level already kept is a no-op; one past core.MaxLevels
// fails with core.ErrTooManyLevels. An SGB-All handle refuses it.
func (x *Incremental) AddLevel(eps float64) error { return x.ev.AddLevel(eps) }

// GroupsAt materializes the grouping at eps, as Result does at the top.
// An SGB-Any handle reads a level it keeps off its state, and answers
// any other ε up to the top with one probe pass over the live points,
// without keeping the level. An SGB-All handle answers its own ε only.
func (x *Incremental) GroupsAt(eps float64) (*Result, error) { return x.ev.GroupsAt(eps) }

// Len returns the number of live points (appended and not removed).
func (x *Incremental) Len() int { return x.ev.Len() }

// Dims returns the point dimensionality, or 0 while no batch has been
// accepted yet.
func (x *Incremental) Dims() int { return x.ev.Dims() }

// Append absorbs a batch of points given as a []Point slice. All
// points must share the handle's dimensionality. See AppendSet for the
// flat-storage variant.
func (x *Incremental) Append(points []Point) error {
	if err := core.CheckPoints(points); err != nil {
		return err
	}
	return x.ev.Append(geom.FromPoints(points))
}

// AppendSet absorbs a batch of points in flat storage. The points are
// copied; the caller's set is not retained. An empty batch is a
// no-op, and a rejected one changes nothing.
func (x *Incremental) AppendSet(ps *PointSet) error { return x.ev.Append(ps) }

// Remove deletes the points with the given live ids and repairs the
// grouping: SGB-Any repairs the spanning trees of the victims'
// components (deletion can only split a component), SGB-All replays the
// arbitration over the survivors of those components. Ids renumber
// compactly after the call. An empty batch is a no-op; out-of-range or
// duplicate ids fail without changing the handle.
func (x *Incremental) Remove(ids []int) error { return x.ev.Remove(ids) }

// Window evicts oldest-first until at most n points remain — the
// count-based sliding window. It returns how many points were evicted.
func (x *Incremental) Window(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("sgb: window size must be >= 0, got %d", n)
	}
	return x.evict(x.Len() - n)
}

// WindowBy evicts the longest oldest-first prefix of live points for
// which pred returns true — the predicate-based sliding window (expire
// by timestamp when a coordinate carries one, by distance from a
// moving origin, ...). Eviction stops at the first point pred keeps: a
// window is a suffix of the stream. pred gets a copy of each point,
// valid only during the call. It returns how many points were evicted.
func (x *Incremental) WindowBy(pred func(p Point) bool) (int, error) {
	if pred == nil {
		return 0, errors.New("sgb: WindowBy predicate must not be nil")
	}
	n, k := x.Len(), 0
	p := make(Point, x.Dims())
	for ; k < n; k++ {
		copy(p, x.ev.LiveAt(k))
		if !pred(p) {
			break
		}
	}
	return x.evict(k)
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
// slices: it stays valid across later appends and removals, and
// repeated calls are independent. Before any accepted append it returns
// an empty grouping.
func (x *Incremental) Result() (*Result, error) { return x.ev.Result(), nil }
