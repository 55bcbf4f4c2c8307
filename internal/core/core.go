package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"github.com/sgb-db/sgb/internal/geom"
)

// Overlap selects the ON-OVERLAP arbitration semantics of SGB-All
// (Section 4.1). It is ignored by SGB-Any, where overlap merges groups.
type Overlap int

const (
	// JoinAny inserts an overlapping point into one randomly chosen
	// candidate group.
	JoinAny Overlap = iota
	// Eliminate discards overlapping points (all members of the overlap
	// set Oset are eliminated from the output).
	Eliminate
	// FormNewGroup collects overlapping points into a temporary set S′
	// and runs SGB-All again on S′ alone, from an empty group set, until
	// S′ is empty: each stage's groups follow the stage's before it.
	FormNewGroup
)

// String returns the SQL clause spelling of the overlap semantics.
func (o Overlap) String() string {
	switch o {
	case JoinAny:
		return "JOIN-ANY"
	case Eliminate:
		return "ELIMINATE"
	case FormNewGroup:
		return "FORM-NEW-GROUP"
	default:
		return fmt.Sprintf("Overlap(%d)", int(o))
	}
}

// Algorithm selects the evaluation strategy.
type Algorithm int

const (
	// AllPairs evaluates the similarity predicate against every
	// previously processed point (the paper's baseline; O(n²)).
	AllPairs Algorithm = iota
	// BoundsCheck keeps a bounding rectangle per group and linearly
	// scans the group rectangles (Procedure 4; O(n·|G|)).
	BoundsCheck
	// OnTheFlyIndex additionally indexes the group rectangles (SGB-All,
	// Procedure 5) or the processed points (SGB-Any, Procedure 8) in an
	// R-tree (O(n·log|G|) / O(n log n) average case).
	OnTheFlyIndex
	// GridIndex replaces the R-tree with a uniform grid of ε-cells.
	// SGB-All registers every placed member under ELIMINATE and
	// FORM-NEW-GROUP, and each group once, in its first member's cell,
	// under JOIN-ANY, and a probe reads the cells around the point
	// (gridFinder): a one-shot run and each FORM-NEW-GROUP stage sort
	// their points into padded cells once and list each occupied cell's
	// occupied neighbours (sortedCells), a maintained evaluator probes
	// the 3^d-cell neighborhood of an open-addressed hashed-cell table
	// (internal/grid). A one-shot SGB-Any run sorts the points into cells of
	// side ε, padded, level by level, and links each cell's members and
	// each pair of neighbouring cells, skipping a pair its forest already
	// joins (cellGraph); a maintained one keeps points in their home
	// ε-cell of the hashed table and probes it per appended point. Any
	// dimensionality is supported, output ids stay in input order, and
	// results equal the other strategies' for equal seeds at every d,
	// where a distance rounds to ε included (TestMaintainedKeyNeutral).
	GridIndex
)

// String names the algorithm as the paper's figures do.
func (a Algorithm) String() string {
	switch a {
	case AllPairs:
		return "All-Pairs"
	case BoundsCheck:
		return "Bounds-Checking"
	case OnTheFlyIndex:
		return "on-the-fly-Index"
	case GridIndex:
		return "ε-Grid"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures one similarity group-by evaluation.
type Options struct {
	// Metric is the Minkowski distance δ (geom.L2 or geom.LInf).
	Metric geom.Metric
	// Eps is the similarity threshold ε (must be > 0).
	Eps float64
	// Overlap is the SGB-All ON-OVERLAP clause; ignored by SGB-Any.
	Overlap Overlap
	// Algorithm selects the evaluation strategy (default AllPairs).
	Algorithm Algorithm
	// Seed seeds the JOIN-ANY arbitration PRNG; runs with equal seeds
	// and inputs produce identical groupings.
	Seed int64
	// Stats, when non-nil, accumulates operation counts for the run.
	Stats *Stats

	// Parallelism bounds the workers a one-shot SGB-Any evaluation of
	// k ≥ 2 ε levels (an ε sweep) splits its levels across: w =
	// min(workers, k) contiguous ranges, each evaluated on a goroutine of
	// its own (parallel.go); a single ε always evaluates sequentially.
	// 0 (the default) means GOMAXPROCS, engaged only for the GridIndex
	// strategy and only once the input has parallelThreshold points —
	// explicitly selected comparison strategies (All-Pairs,
	// Bounds-Checking, R-tree) keep their sequential evaluation shape so
	// the paper's strategy experiments measure what they name. 1 forces
	// the sequential path; any value ≥ 2 allows that many workers for any
	// strategy and input size. Negative values are rejected by Validate.
	// Groupings are bit-identical at every worker count: each level is
	// the ε-graph's components. SGB-All is order-sensitive and
	// always runs its one sequential arbitration loop, whatever the value
	// (docs/pr24-sgball-sequential.md has the measurement that retired
	// its pipeline).
	Parallelism int
}

// Maintained returns the options a maintained grouping of SGB-Any
// (anySem) or SGB-All is built with: the fields that change what such
// an evaluator holds, every other one at a fixed value. Both are
// maintained on the ε-grid whatever Algorithm names: every strategy
// groups alike, ε-ties included (TestMaintainedKeyNeutral). For SGB-Any
// the metric alone is kept: its components at every ε are kept by one
// evaluator at several levels, so ε is a level asked of it, not part of
// it. For SGB-All they are the metric, ε, the ON-OVERLAP clause, and
// the seed of JOIN-ANY, the one clause that draws.
func (o Options) Maintained(anySem bool) Options {
	m := Options{Metric: o.Metric, Algorithm: GridIndex}
	if !anySem {
		m.Eps, m.Overlap = o.Eps, o.Overlap
		if o.Overlap == JoinAny {
			m.Seed = o.Seed
		}
	}
	return m
}

// Key prints the evaluator cache key of a maintained grouping over the
// grouping expressions by: the options Maintained keeps, so an SGB-Any
// key prints ε 0 and no key prints the strategy.
// TestFingerprintCoversOptions fails when a new field is neither kept
// nor listed as grouping-neutral.
func (o Options) Key(anySem bool, by string) string {
	m := o.Maintained(anySem)
	return fmt.Sprintf("any=%t|metric=%v|eps=%v|overlap=%d|seed=%d|by=%s",
		anySem, m.Metric, m.Eps, m.Overlap, m.Seed, by)
}

// ErrEpsUnderflow rejects an ε below minEps, under either metric:
// its square, the L2 distance key, is no normal float64. At ε = 1e-200
// the key is 0, and the strategies disagree on what it admits. One rule
// for both metrics keeps the ε range a property of ε alone, so an EPS IN
// list is checked without its metric (ValidateEpsList).
var ErrEpsUnderflow error = errValue("core: similarity threshold ε is below 2^-511, where its square, the L2 distance key, underflows")

// minEps is the smallest ε accepted: minEps² = 2^-1022, the smallest
// normal float64.
const minEps = 0x1p-511

// checkEpsRange refuses a positive finite ε that ε-cell arithmetic or
// the L2 key cannot hold: one where 2^53 cells of it, or its
// reciprocal, overflow, or one below minEps.
func checkEpsRange(eps float64) error {
	if math.IsInf(eps*(2*maxCells), 1) || math.IsInf(1/eps, 1) {
		return fmt.Errorf("core: similarity threshold ε = %v is outside the range ε-cell arithmetic can hold", eps)
	}
	if eps < minEps {
		return fmt.Errorf("%w (got %v)", ErrEpsUnderflow, eps)
	}
	return nil
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if !(o.Eps > 0) || math.IsInf(o.Eps, 1) {
		return errors.New("core: similarity threshold ε must be positive and finite")
	}
	if err := checkEpsRange(o.Eps); err != nil {
		return err
	}
	if o.Metric != geom.L2 && o.Metric != geom.LInf {
		return errors.New("core: unknown distance metric")
	}
	switch o.Overlap {
	case JoinAny, Eliminate, FormNewGroup:
	default:
		return errors.New("core: unknown ON-OVERLAP clause")
	}
	switch o.Algorithm {
	case AllPairs, BoundsCheck, OnTheFlyIndex, GridIndex:
	default:
		return errors.New("core: unknown algorithm")
	}
	if o.Parallelism < 0 {
		return errors.New("core: Parallelism must be >= 0 (0 means GOMAXPROCS)")
	}
	return nil
}

// parallelThreshold is the input size below which Parallelism = 0
// (auto) stays sequential: on a few thousand points a goroutine per
// range costs more than it saves. An explicit Parallelism ≥ 2 bypasses
// the threshold, which is what the equivalence tests use to exercise
// the level split on small inputs.
const parallelThreshold = 4096

// workers resolves the effective worker count for an input of n
// points. Auto mode (Parallelism = 0) engages only for GridIndex:
// requesting All-Pairs, Bounds-Checking, or the R-tree by name is a
// statement about which evaluation shape to run (the
// strategy-comparison experiments depend on it), so those stay
// sequential unless the caller explicitly asks for workers.
func (o Options) workers(n int) int {
	switch {
	case o.Parallelism == 1 || n < 2:
		return 1
	case o.Parallelism == 0 && (n < parallelThreshold || o.Algorithm != GridIndex):
		return 1
	}
	if o.Parallelism == 0 {
		return min(runtime.GOMAXPROCS(0), n)
	}
	return min(o.Parallelism, n)
}

// Stats counts the primitive operations a run performed; the Table 1
// complexity benches use these to verify the asymptotic claims
// empirically (distance computations dominate All-Pairs, rectangle
// tests dominate Bounds-Checking, index probes dominate the on-the-fly
// index). IndexProbes and IndexUpdates count per probe and per
// registered point under the R-tree and a maintained ε-grid's appends;
// the SGB-Any grid kernel over a whole point set (cellGraph: one-shot
// runs, and a maintained evaluator's build, AddLevel and GroupsAt at a
// level it does not keep) counts them per (level, occupied cell)
// instead — a cell is registered once and looks up its forward
// neighbours once at each level — and a maintained build adds one update
// per point it loads into its grid.
type Stats struct {
	DistanceComputations int64 // ξ evaluations (distance keys) against concrete points
	RectTests            int64 // PointInRectangle / rectangle-overlap tests
	HullTests            int64 // convex-hull refinements (L2 only)
	IndexProbes          int64 // index window queries (see above)
	IndexUpdates         int64 // index inserts + deletes (see above)
	GroupsCreated        int64
	GroupMerges          int64 // SGB-Any merges
	RecursionDepth       int   // FORM-NEW-GROUP recursion depth reached
	PointsReplayed       int64 // survivors an SGB-All Remove arbitrated again

	// Executor-side work of a SQL similarity query (charged by the
	// exec.SGB node, zero for direct operator calls). Together they make
	// "a warm cache hit costs O(answer)" assertable: an in-sync cached
	// answer extracts no points, and an already memoized aggregate folds
	// no rows.
	PointsExtracted int64 // rows whose grouping expressions were evaluated
	RowsFolded      int64 // rows fed to an aggregate accumulator, per aggregate

	// Phase timers of the SGB-All pipeline PR 24 deleted: nothing
	// writes them. They stay declared because bench/probe.go, frozen for
	// that PR, reads them (ROADMAP 1(b) drops its four metrics, then
	// these).
	PartitionNanos int64
	ConnectNanos   int64
	ArbitrateNanos int64
	MergeNanos     int64
}

func (s *Stats) addDist(n int64) {
	if s != nil {
		s.DistanceComputations += n
	}
}
func (s *Stats) addRect(n int64) {
	if s != nil {
		s.RectTests += n
	}
}
func (s *Stats) addHull(n int64) {
	if s != nil {
		s.HullTests += n
	}
}
func (s *Stats) addProbe(n int64) {
	if s != nil {
		s.IndexProbes += n
	}
}
func (s *Stats) addUpdate(n int64) {
	if s != nil {
		s.IndexUpdates += n
	}
}
func (s *Stats) addCreated(n int64) {
	if s != nil {
		s.GroupsCreated += n
	}
}
func (s *Stats) addMerge(n int64) {
	if s != nil {
		s.GroupMerges += n
	}
}
func (s *Stats) addReplayed(n int64) {
	if s != nil {
		s.PointsReplayed += n
	}
}
func (s *Stats) noteDepth(d int) {
	if s != nil && d > s.RecursionDepth {
		s.RecursionDepth = d
	}
}

// Merge folds another counter block into s: counters add, the
// recursion-depth high-water mark takes the max. Parallel stages hand
// each worker its own block, so the hot path never shares cache lines,
// and merge them after the workers join; the engine's shared evaluator
// cache aggregates per-entry work counters, and per-query blocks fold
// entry deltas, through it too.
func (s *Stats) Merge(o *Stats) {
	if s == nil || o == nil {
		return
	}
	s.DistanceComputations += o.DistanceComputations
	s.RectTests += o.RectTests
	s.HullTests += o.HullTests
	s.IndexProbes += o.IndexProbes
	s.IndexUpdates += o.IndexUpdates
	s.GroupsCreated += o.GroupsCreated
	s.GroupMerges += o.GroupMerges
	s.PointsReplayed += o.PointsReplayed
	s.PointsExtracted += o.PointsExtracted
	s.RowsFolded += o.RowsFolded
	if o.RecursionDepth > s.RecursionDepth {
		s.RecursionDepth = o.RecursionDepth
	}
}

// Group is one output group; Members are indices into the input slice,
// in the order the points joined the group, as int32: 2³¹ points do not
// fit in memory to begin with.
type Group struct {
	Members []int32
}

// Result is the outcome of a similarity group-by evaluation.
type Result struct {
	// Groups holds the output groups in creation order, each Members a
	// window of the one member run (Layout) capped at its own end.
	Groups []Group
	// Eliminated lists input indices dropped by ON-OVERLAP ELIMINATE
	// (empty under other semantics), in elimination order.
	Eliminated []int

	members, ends []int32 // Layout
}

// newResult returns the grouping whose group i is
// members[ends[i-1]:ends[i]] (ends[-1] being 0). With no group it is
// the zero Result, so an empty grouping reads alike from every producer.
func newResult(members, ends []int32) *Result {
	if len(ends) == 0 {
		return &Result{}
	}
	res := &Result{Groups: make([]Group, len(ends)), members: members, ends: ends}
	start := int32(0)
	for i, end := range ends {
		res.Groups[i].Members = members[start:end:end]
		start = end
	}
	return res
}

// Layout returns the member run Groups windows, not a copy, and the
// ends that cut it (see newResult). Both are nil for a Result built
// outside this package.
func (r *Result) Layout() (members, ends []int32) { return r.members, r.ends }

// NumGroups returns the number of output groups.
func (r *Result) NumGroups() int { return len(r.Groups) }

// Sizes returns the group cardinalities in group order (the multiset
// the paper's COUNT(*) example queries report).
func (r *Result) Sizes() []int {
	out := make([]int, len(r.Groups))
	for i, g := range r.Groups {
		out[i] = len(g.Members)
	}
	return out
}

// CheckPoints validates a []Point batch for dimensional consistency:
// every point has the first one's dimensionality, and that is at least
// one. An empty batch passes.
func CheckPoints(points []geom.Point) error {
	if len(points) == 0 {
		return nil
	}
	d := len(points[0])
	if d == 0 {
		return errors.New("core: zero-dimensional point")
	}
	for i, p := range points {
		if len(p) != d {
			return fmt.Errorf("core: point %d has dimension %d, want %d", i, len(p), d)
		}
	}
	return nil
}

// maxCells bounds a coordinate in ε-cells. Every grid over the points
// (grid.Table, the cell graph's level cells, geom.ZOrder) quantizes
// x to int64(floor(x / cell)) with a cell side of ε or more, and probes
// up to two padded cell sides around it.
// Within ±2^52 cells those indices are integers float64 and int64 both
// hold and the rounding pad (geom.PaddedReach, 2⁻⁵⁰ of |x|) is at most
// four cells, so a probe's cell range is a few cells wide. Beyond it
// x ± ε stops resolving, the pad grows to thousands of cells per axis,
// the sum can reach ±Inf, and the conversion of ±Inf is MinInt64 — a
// probe over 2^63 cells. Validate keeps ε·2·maxCells and 1/ε finite,
// so a coordinate inside the bound stays inside every such computation.
// The rule holds at every ε level, not only at a sweep's or an
// evaluator's top: the cell graph buckets each level in cells of its
// own ε, so coordinates are checked against the smallest level
// (SweepAnySet, AnyEvaluator.Append), and a level added below every
// kept one checks the live points first (pointLog.checkLevel).
const maxCells = 1 << 52

// coordRangeError reports the first coordinate checkCoords found beyond
// maxCells ε-cells of the origin.
type coordRangeError struct {
	Point, Dim int
	Value, Eps float64
}

func (e *coordRangeError) Error() string {
	return fmt.Sprintf("core: point %d has coordinate %d (%v) more than 2^52 ε-cells from the origin (ε = %v): out of range for similarity grouping",
		e.Point, e.Dim, e.Value, e.Eps)
}

// checkCoords is the ingestion guard of every entry point, one-shot and
// maintained: it refuses non-finite coordinates (geom.CheckFinite has
// the why) and coordinates beyond maxCells ε-cells, for every strategy
// alike so that an answer never depends on which one ran. eps is the
// cell side: ε, or the smallest level of a sweep or an evaluator.
func checkCoords(ps *geom.PointSet, eps float64) error {
	limit := eps * maxCells
	for i, v := range ps.Data() {
		if math.Abs(v) <= limit {
			continue
		}
		if err := ps.CheckFinite(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		return &coordRangeError{Point: i / ps.Dims(), Dim: i % ps.Dims(), Value: v, Eps: eps}
	}
	return nil
}

// rng is a small deterministic PRNG (splitmix64) used for the JOIN-ANY
// arbitration; math/rand would also do, but an explicit generator keeps
// the operator self-contained and its state obvious.
//
// Draws are KEYED, not streamed: a draw is a pure function of the seed
// state and the drawing point's coordinate bits, folded through the
// splitmix64 finalizer one coordinate at a time. The key is a property
// of the point itself — not of how many points drew before it, nor of
// its position among the live points — so nothing that happens
// elsewhere in the input moves it. That is what lets a DELETE replay
// only the ε-components it touched (decremental.go), bit-identical to a
// from-scratch run over the surviving points. Points with equal
// coordinates draw the same value; each still takes it modulo its own
// candidate count, and any pick is a valid "any".
type rng struct{ state uint64 }

const splitmixGamma = 0x9E3779B97F4A7C15

// newRNG seeds the coordinate-keyed generation of draws.
func newRNG(seed int64) rng { return rng{state: uint64(seed)*splitmixGamma + 2} }

// drawAt returns the uniform draw in [0, n) keyed by p's coordinate
// bits. r.state never advances.
func (r *rng) drawAt(p geom.Point, n int) int {
	z := r.state
	for _, v := range p {
		z += math.Float64bits(v) + splitmixGamma
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int(z % uint64(n))
}
