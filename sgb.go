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
// SGB-Any runs as a partition → shard-local evaluate → merge pipeline
// when Options.Parallelism (or the SQL session's SET parallelism)
// selects more than one worker: it shards spatially and merges
// components through a Union-Find reduction. SweepAny runs the same
// pipeline with one Union-Find per ε level; NewIncrementalAnyLevels keeps
// those levels under appends and removals. SGB-All is order-sensitive
// and always runs the paper's sequential arbitration loop; it accepts
// the option and ignores it. Groupings are identical at every setting.
package sgb

import (
	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/incr"
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
// components for SGB-Any (whose deletions repair only the spanning trees
// of the affected components), and identical groups, member order, and JOIN-ANY
// arbitration draws for SGB-All under equal seeds (whose deletions
// replay the survivors of the affected components; arbitration is
// presence-sensitive). Result ids
// are live ids: survivors number 0..Len()-1 in arrival order and
// renumber compactly after removals. See internal/incr and
// ARCHITECTURE.md for the maintenance invariants.
type Incremental = incr.Incremental

// ErrOptionsMutated is returned by Incremental.Append / Result when
// the handle's Opt field was modified after creation; the retained
// state embodies the original options, so mutations are refused.
var ErrOptionsMutated = incr.ErrOptionsMutated

// NewIncrementalAll returns an empty incremental SGB-All grouping
// (DISTANCE-TO-ALL cliques with opt.Overlap arbitration). The point
// dimensionality is fixed by the first appended batch. Appends
// evaluate sequentially; per-append cost scales with the batch size,
// not the retained set.
func NewIncrementalAll(opt Options) (*Incremental, error) {
	return incr.New(incr.All, opt)
}

// NewIncrementalAny returns an empty incremental SGB-Any grouping
// (DISTANCE-TO-ANY connected components; opt.Overlap is ignored). The
// handle is maintained on the ε-grid whatever opt.Algorithm names:
// components do not depend on the index that finds the ε-edges.
func NewIncrementalAny(opt Options) (*Incremental, error) {
	return incr.New(incr.Any, opt)
}

// NewIncrementalAnyLevels returns an empty incremental SGB-Any grouping
// kept at every ε level of levels at once — the maintained form of
// SweepAny: one probe per appended point feeds every level, a removal
// repairs each, GroupsAt reads any level, and AddLevel keeps one more
// below the top. opt.Eps is ignored; the largest level is the top.
func NewIncrementalAnyLevels(opt Options, levels []float64) (*Incremental, error) {
	return incr.NewLevels(opt, levels)
}
