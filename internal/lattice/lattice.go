package lattice

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
	"github.com/sgb-db/sgb/internal/partition"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// Stats counts the work a sweep performed. The core evaluator folds
// these into its operator-level core.Stats block; keeping a local type
// avoids an import cycle (core wraps lattice, not the reverse).
type Stats struct {
	// DistanceComputations counts exact distance-key evaluations
	// against grid candidates.
	DistanceComputations int64
	// IndexProbes counts ε_max-box grid probes (one per point, plus one
	// per frontier point of a tiled build).
	IndexProbes int64
	// IndexUpdates counts grid cell registrations (one per point).
	IndexUpdates int64
	// Compactions counts MSF filter passes over the edge buffer.
	Compactions int64
	// EdgesRetained is the edge count surviving the last compaction
	// (at most n-1: the minimum spanning forest of everything seen).
	EdgesRetained int64
}

func (s *Stats) add(dist, probes, updates int64) {
	if s != nil {
		s.DistanceComputations += dist
		s.IndexProbes += probes
		s.IndexUpdates += updates
	}
}

// Edge is one candidate ε-graph edge: points A < B at comparison-key
// distance Key (geom.Metric.DistKey space: squared distance for L2,
// max coordinate difference for L∞).
type Edge struct {
	A, B int32
	Key  float64
}

// edgeLess is the strict total order every Kruskal pass uses:
// (Key, A, B). A CONSISTENT total order is what makes the streaming
// MSF compaction exact even under distance ties — the greedy forest of
// a matroid under a fixed total order satisfies
// MSF(S ∪ T) ⊆ MSF(MSF(S) ∪ T), so edges discarded by an early
// compaction can never become merges later.
func edgeLess(a, b Edge) int {
	switch {
	case a.Key != b.Key:
		if a.Key < b.Key {
			return -1
		}
		return 1
	case a.A != b.A:
		return int(a.A) - int(b.A)
	default:
		return int(a.B) - int(b.B)
	}
}

// Merge is one dendrogram merge event: processing edges in
// nondecreasing key order, the components containing points A and B
// fused at height Key. Heights are in metric key space (see
// geom.Metric.DistKey); they are nondecreasing across the merge list.
type Merge struct {
	A, B int32
	Key  float64
}

// Sweep accumulates the ε_max-bounded single-linkage structure of a
// point stream: each appended point is probed against a uniform
// ε_max-cell grid (never materializing the O(n²) pair set — only pairs
// within the 3^d-cell neighborhood are examined), and the surviving
// candidate edges are periodically compacted to the minimum spanning
// forest of everything seen, so memory stays O(n). Dendrogram()
// finalizes the structure for querying; Append and Remove (the
// decremental arm, decremental.go) invalidate it.
//
// A Sweep is not safe for concurrent use.
type Sweep struct {
	dims      int
	metric    geom.Metric
	epsMax    float64
	epsMaxKey float64

	ps *geom.PointSet // owned copy of every appended point
	// tab registers every absorbed point for the probes. A tiled first
	// batch (parallel.go) leaves it nil, and ensureGrid bulk-loads it on
	// the next Append or Remove: a sweep that is built once and then
	// only cut never pays for it.
	tab *grid.Table
	cur grid.Cursor
	buf []int32

	edges   []Edge       // MSF of all seen edges, plus the uncompacted tail
	sorted  int          // length of the sorted retained prefix of edges
	scratch []Edge       // radix double buffer, reused across compactions
	merged  []Edge       // prefix+tail merge buffer, reused across compactions
	kuf     unionfind.UF // compact's Kruskal forest, reused across compactions

	// Early-discard filter: the connectivity of the kept edges with key
	// ≤ filterKey (the ε_max/2 threshold). An arriving edge with a
	// LARGER key whose endpoints are already connected here is redundant
	// at every cut — the connecting path's keys are all strictly smaller
	// — and is dropped before ever touching the edge buffer. On
	// clustered inputs (where components form far below ε_max) this
	// keeps the sort/compact volume near the forest size; one filter
	// keeps the hot parent array small enough to stay cached.
	filterKey float64
	filter    *unionfind.UF

	// CompactEvery overrides the edge-buffer compaction threshold
	// (0 selects the adaptive default). Exposed for tests that force
	// many compactions on small inputs.
	CompactEvery int

	dend *Dendrogram // cached finalization; nil after a mutation

	rm removal // Remove's scratch (decremental.go)
}

// NewSweep returns an empty sweep over dims-dimensional points under
// the given metric, able to answer any threshold ε ≤ epsMax.
func NewSweep(dims int, metric geom.Metric, epsMax float64) (*Sweep, error) {
	if dims < 1 {
		return nil, errors.New("lattice: dimensionality must be >= 1")
	}
	if metric != geom.L2 && metric != geom.LInf {
		return nil, errors.New("lattice: unknown distance metric")
	}
	if !(epsMax > 0) || math.IsInf(epsMax, 1) {
		return nil, errors.New("lattice: ε_max must be positive and finite")
	}
	return newSweep(dims, metric, epsMax), nil
}

// newSweep is NewSweep over parameters already validated.
func newSweep(dims int, metric geom.Metric, epsMax float64) *Sweep {
	return &Sweep{
		dims:      dims,
		metric:    metric,
		epsMax:    epsMax,
		epsMaxKey: metric.EpsKey(epsMax),
		ps:        geom.NewPointSet(dims),
		filterKey: metric.EpsKey(epsMax / 2),
		filter:    unionfind.New(0),
	}
}

// Dims returns the sweep's point dimensionality.
func (s *Sweep) Dims() int { return s.dims }

// Len returns the number of absorbed points.
func (s *Sweep) Len() int { return s.ps.Len() }

// EpsMax returns the largest answerable threshold.
func (s *Sweep) EpsMax() float64 { return s.epsMax }

// Metric returns the sweep's distance metric.
func (s *Sweep) Metric() geom.Metric { return s.metric }

// Append absorbs a batch of points (ids continue the arrival order:
// the first point of the first batch is 0). The batch is copied. Work
// counters accumulate into st when non-nil. The caller is responsible
// for dimensional and finiteness validation (core.LatticeEvaluator
// performs both).
//
// With workers ≥ 2, the batch that an empty sweep receives is built on
// that many goroutines (appendTiled, parallel.go); a later batch, or one
// partition.Split cannot cut into two tiles, is absorbed sequentially.
// The worker count never changes the result: the merge list is the same
// element for element.
func (s *Sweep) Append(batch *geom.PointSet, workers int, st *Stats) error {
	if batch == nil || batch.Len() == 0 {
		return nil
	}
	if batch.Dims() != s.dims {
		return fmt.Errorf("lattice: appended points have dimension %d, want %d", batch.Dims(), s.dims)
	}
	if workers >= 2 && s.ps.Len() == 0 {
		if plan := partition.Split(batch, s.epsMax, workers); plan != nil {
			s.appendTiled(batch, plan, workers, st)
			return nil
		}
	}
	s.appendSeq(batch, st)
	return nil
}

// appendSeq is the sequential Append: every point of the batch probes
// the grid, then registers in it.
func (s *Sweep) appendSeq(batch *geom.PointSet, st *Stats) {
	s.ensureGrid()
	base := s.ps.Len()
	s.ps.AppendSet(batch)
	s.dend = nil

	// Morton-order the batch's processing (probe locality: consecutive
	// probes touch adjacent ε_max-cells). Edge correctness is order-free
	// — each unordered pair is examined exactly once because a point is
	// probed before it is registered — so the permutation never leaks
	// into the recorded ids.
	var perm []int32
	if batch.Len() >= 32 {
		perm = geom.MortonPerm(batch, s.epsMax)
	}
	for s.filter.Len() < s.ps.Len() {
		s.filter.Add()
	}

	var dist, probes, updates int64
	threshold := s.compactThreshold()
	for k := 0; k < batch.Len(); k++ {
		idx := k
		if perm != nil {
			idx = int(perm[k])
		}
		i := base + idx
		p := s.ps.At(i)
		probes++
		s.buf = s.tab.CollectBox(&s.cur, p, s.epsMax, s.buf[:0])
		for _, j32 := range s.buf {
			j := int(j32)
			dist++
			key := s.ps.DistKey(s.metric, i, j)
			if key <= s.epsMaxKey {
				if key > s.filterKey {
					if s.filter.Same(i, j) {
						continue // redundant at a strictly smaller threshold
					}
				} else {
					s.filter.Union(i, j)
				}
				a, b := int32(i), j32
				if b < a {
					a, b = b, a
				}
				s.edges = append(s.edges, Edge{A: a, B: b, Key: key})
			}
		}
		updates++
		s.tab.AddPoint(p, int32(i))
		if len(s.edges) >= threshold {
			s.compact(st)
			threshold = s.compactThreshold()
		}
	}
	st.add(dist, probes, updates)
}

// ensureGrid bulk-loads the probe grid over every absorbed point if it
// is not built yet (a new sweep, or one a tiled first batch built).
func (s *Sweep) ensureGrid() {
	if s.tab == nil {
		s.tab = grid.BulkLoad(s.ps, s.epsMax)
	}
}

// compactThreshold is the edge-buffer size that triggers an MSF filter
// pass: a few multiples of the forest bound n-1, so compaction cost
// amortizes against the probes that filled the buffer.
func (s *Sweep) compactThreshold() int {
	if s.CompactEvery > 0 {
		return s.CompactEvery
	}
	t := 4 * s.ps.Len()
	if t < 4096 {
		t = 4096
	}
	return t
}

// sortTail sorts one uncompacted edge run by the strict (Key, A, B)
// total order. Small runs use the comparison sort; larger ones an LSD
// radix sort on the key's IEEE-754 bit pattern (non-negative float64s
// order identically to their bit patterns) in 11-bit digits — six
// linear passes instead of the comparator-driven O(m log m) that
// dominated the whole sweep build — then a run scan that re-sorts the
// rare equal-key runs by (A, B). Single-digit passes (every edge
// agreeing, common in the high exponent bits) are detected by their
// histogram and skipped.
func (s *Sweep) sortTail(tail []Edge) {
	if len(tail) < 512 {
		slices.SortFunc(tail, edgeLess)
		return
	}
	if cap(s.scratch) < len(tail) {
		s.scratch = make([]Edge, len(tail))
	}
	// Radix only the TOP 32 key bits (exponent + high mantissa): three
	// 11-bit passes order the buffer up to ties in those bits, and the
	// run scan below finishes the rare equal-prefix runs exactly. Low
	// mantissa bits almost never decide the order of distinct random
	// distances, so this halves the pass count of a full 64-bit sort.
	src, dst := tail, s.scratch[:len(tail)]
	var counts [2048]int
	for shift := 32; shift < 64; shift += 11 {
		for i := range counts {
			counts[i] = 0
		}
		for i := range src {
			counts[(math.Float64bits(src[i].Key)>>shift)&2047]++
		}
		if counts[(math.Float64bits(src[0].Key)>>shift)&2047] == len(src) {
			continue
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for i := range src {
			d := (math.Float64bits(src[i].Key) >> shift) & 2047
			dst[counts[d]] = src[i]
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &tail[0] {
		copy(tail, src)
	}
	// Runs sharing the radixed high bits keep insertion order; finish
	// them with the exact comparator (low mantissa bits, then the
	// (A, B) tie-break). Runs are overwhelmingly length 1, so this is
	// one linear scan.
	for i := 0; i < len(tail); {
		hi := math.Float64bits(tail[i].Key) >> 32
		j := i + 1
		for j < len(tail) && math.Float64bits(tail[j].Key)>>32 == hi {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(tail[i:j], edgeLess)
		}
		i = j
	}
}

// compact reduces the edge buffer to the minimum spanning forest of
// every edge seen so far: the already-sorted retained prefix (the
// previous compaction's forest) merges with the freshly sorted new
// tail, and a Kruskal pass over the merged order keeps exactly the
// edges that join two distinct components. Afterwards the buffer is
// sorted and holds at most n-1 edges — each edge is radix-sorted once
// over its lifetime and only ever re-merged afterwards.
func (s *Sweep) compact(st *Stats) {
	prefix, tail := s.edges[:s.sorted], s.edges[s.sorted:]
	s.sortTail(tail)
	if cap(s.merged) < len(s.edges) {
		s.merged = make([]Edge, 0, cap(s.edges))
	}
	m := mergeEdges(s.merged[:0], prefix, tail)
	uf := &s.kuf
	uf.Reinit(s.ps.Len())
	w := 0
	for _, e := range m {
		if uf.Find(int(e.A)) != uf.Find(int(e.B)) {
			uf.Union(int(e.A), int(e.B))
			s.edges[w] = e
			w++
		}
	}
	s.merged = m[:0]
	s.edges = s.edges[:w]
	s.sorted = w
	if st != nil {
		st.Compactions++
		st.EdgesRetained = int64(w)
	}
}

// mergeEdges appends the (Key, A, B)-ordered merge of the sorted runs a
// and b to dst, which must not overlap either.
func mergeEdges(dst, a, b []Edge) []Edge {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if edgeLess(a[i], b[j]) <= 0 {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// rebuildFilter recomputes the early-discard filter from the retained
// forest, which must be compacted: the forest edges with key ≤ ε_max/2
// connect exactly what every kept edge that short does.
func (s *Sweep) rebuildFilter() {
	s.filter.Reinit(s.ps.Len())
	for _, e := range s.edges {
		if e.Key > s.filterKey {
			break // sorted: the rest is longer still
		}
		s.filter.Union(int(e.A), int(e.B))
	}
}

// Dendrogram finalizes and returns the merge structure of everything
// appended so far. The result owns its merge list and stays valid (and
// answerable) across later Appends; it is recomputed lazily after each
// mutation. After the final compaction the edge buffer IS the sorted
// minimum spanning forest, and every MSF edge merges two components by
// definition — so the sorted edges are exactly the merge list.
func (s *Sweep) Dendrogram() *Dendrogram {
	if s.dend == nil {
		s.compact(nil)
		merges := make([]Merge, len(s.edges))
		for i, e := range s.edges {
			merges[i] = Merge{A: e.A, B: e.B, Key: e.Key}
		}
		s.dend = &Dendrogram{
			n:         s.ps.Len(),
			metric:    s.metric,
			merges:    merges,
			epsMax:    s.epsMax,
			epsMaxKey: s.epsMaxKey,
		}
	}
	return s.dend
}

// Dendrogram is the queryable single-linkage merge structure below
// ε_max: one Union-Find sweep's worth of merge events in nondecreasing
// height order. Any threshold ε ≤ ε_max cuts the list by binary search
// — the merges with height ≤ ε are exactly the unions a one-shot
// SGB-Any run at ε would perform, so GroupsAt(ε) reproduces that run's
// components bit for bit (heights live in geom.Metric.DistKey space,
// the comparison basis Within uses).
//
// Queries share replay scratch (ascending sweeps reuse the previous
// cut's forest); a Dendrogram is therefore not safe for concurrent
// use, but stays valid across later Sweep.Appends (which produce a new
// Dendrogram rather than mutating this one).
type Dendrogram struct {
	n         int
	metric    geom.Metric
	merges    []Merge
	epsMax    float64
	epsMaxKey float64

	// Replay scratch: uf holds the partition after applying
	// merges[:applied]. A query for a smaller cut resets and replays;
	// ascending query sequences (the common sweep) extend incrementally
	// — total replay work over a whole ascending sweep is one pass.
	uf      *unionfind.UF
	applied int
	slots   []int32
	sizes   []int32
	roots   []int32
}

// Len returns the number of points the dendrogram spans.
func (d *Dendrogram) Len() int { return d.n }

// EpsMax returns the largest answerable threshold.
func (d *Dendrogram) EpsMax() float64 { return d.epsMax }

// Merges returns the merge list in nondecreasing height order. The
// slice is owned by the dendrogram; treat it as read-only.
func (d *Dendrogram) Merges() []Merge { return d.merges }

// ErrEpsAboveMax rejects queries beyond the sweep's ε_max: the edge
// enumeration never looked past it, so merges above are unknown.
var ErrEpsAboveMax = errors.New("lattice: ε exceeds the sweep's ε_max")

// Cut returns the number of merges applied at threshold eps — the
// binary-searched prefix of the merge list with height ≤ EpsKey(eps).
// The group count at eps is Len() - Cut(eps): every merge fuses
// exactly two components.
func (d *Dendrogram) Cut(eps float64) (int, error) {
	if !(eps > 0) || math.IsNaN(eps) {
		return 0, errors.New("lattice: threshold ε must be positive")
	}
	if eps > d.epsMax {
		return 0, ErrEpsAboveMax
	}
	key := d.metric.EpsKey(eps)
	return sort.Search(len(d.merges), func(i int) bool { return d.merges[i].Key > key }), nil
}

// replayTo brings the scratch forest to exactly the first cut merges.
func (d *Dendrogram) replayTo(cut int) {
	if d.uf == nil || cut < d.applied {
		d.uf = unionfind.New(d.n)
		d.applied = 0
	}
	for _, m := range d.merges[d.applied:cut] {
		d.uf.Union(int(m.A), int(m.B))
	}
	d.applied = cut
}

// GroupsAt materializes the grouping at threshold eps ≤ EpsMax() in
// the canonical SGB-Any order: groups sorted by smallest member id,
// members ascending. The result owns its slices. The cut itself is a
// binary search plus an (amortized) prefix replay; the O(n) term is
// the materialization every grouping answer pays anyway.
func (d *Dendrogram) GroupsAt(eps float64) ([][]int, error) {
	cut, err := d.Cut(eps)
	if err != nil {
		return nil, err
	}
	d.replayTo(cut)
	if d.slots == nil {
		d.slots = make([]int32, d.n)
		d.sizes = make([]int32, d.n)
		d.roots = make([]int32, d.n)
	}
	slots, sizes, roots := d.slots, d.sizes, d.roots
	for i := range slots {
		slots[i] = -1
	}
	clear(sizes) // SummaryAt leaves per-root counts here
	// Pass 1: assign slots in canonical order (first-seen root while
	// scanning ids ascending = groups ordered by smallest member) and
	// count group sizes, caching each point's root.
	ng := int32(0)
	for i := 0; i < d.n; i++ {
		r := int32(d.uf.Find(i))
		roots[i] = r
		s := slots[r]
		if s < 0 {
			s = ng
			slots[r] = s
			ng++
		}
		sizes[s]++
	}
	// Pass 2: carve one flat backing array into exactly-sized member
	// slices and fill them — no per-member append regrowth.
	backing := make([]int, d.n)
	groups := make([][]int, ng)
	off := 0
	for s := int32(0); s < ng; s++ {
		sz := int(sizes[s])
		groups[s] = backing[off : off : off+sz]
		off += sz
	}
	for i := 0; i < d.n; i++ {
		s := slots[roots[i]]
		groups[s] = append(groups[s], i)
	}
	return groups, nil
}

// Summary is one ε level's aggregate row — the SIMILARITY CUBE BY EPS
// rollup unit.
type Summary struct {
	// Eps is the level's threshold.
	Eps float64
	// Groups is the number of groups (connected components) at Eps.
	Groups int
	// Largest is the largest group's cardinality (0 for no points).
	Largest int
	// GroupedFraction is the fraction of points whose group has at
	// least two members (0 for no points).
	GroupedFraction float64
}

// SummaryAt computes the aggregate row of one ε level without
// materializing its groups.
func (d *Dendrogram) SummaryAt(eps float64) (Summary, error) {
	cut, err := d.Cut(eps)
	if err != nil {
		return Summary{}, err
	}
	d.replayTo(cut)
	if d.sizes == nil {
		d.sizes = make([]int32, d.n)
	}
	sizes := d.sizes
	clear(sizes) // GroupsAt leaves per-slot counts here
	for i := 0; i < d.n; i++ {
		sizes[d.uf.Find(i)]++
	}
	sum := Summary{Eps: eps, Groups: d.n - cut}
	grouped := 0
	for _, c := range sizes {
		if int(c) > sum.Largest {
			sum.Largest = int(c)
		}
		if c >= 2 {
			grouped += int(c)
		}
	}
	if d.n > 0 {
		sum.GroupedFraction = float64(grouped) / float64(d.n)
	}
	return sum, nil
}
