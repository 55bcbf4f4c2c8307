package core

import (
	"math"
	"math/bits"
	"slices"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// cellGraph is SGB-Any's grid kernel for a whole point set: sgbAnyLocal's
// GridIndex arm, so every one-shot grid evaluation, single-ε or swept,
// and every whole-table pass of a maintained evaluator (the first batch
// into an empty one, AddLevel, GroupsAt at a level it does not keep). A
// DISTANCE-TO-ANY group is a connected component of the ε-graph, and
// components do not depend on the order in which edges are found, so an
// evaluation needs enough edges to connect each component, not every
// edge. The kernel finds them between cells instead of around points.
// For each level, ascending:
//
//  1. The level's forest starts as a copy of the level below: an edge
//     within a lower ε is within this one, so the lower partition
//     refines this one. A level that keeps a spanning forest copies the
//     lower level's edges too.
//  2. The points are bucketed into cells of side ε, padded (cellSide),
//     by a lexicographic sort of their cell coordinates.
//  3. Each cell's members are joined (joinCell): keyed against the
//     newest one, pairwise only where that left some apart.
//  4. Each pair of neighbouring cells is visited once (linkCells), newest
//     members first: it is skipped when both cells are one set each and
//     share it, and when both are one set each but differ, the first key
//     within ε joins them and ends the visit.
//
// Every union is still a pair whose DistKey is within the level's key,
// and a pair is skipped only when its endpoints already share a set, so
// the partition is the ε-graph's components, member for member what the
// per-point join (anyJoin) finds, and each union is an edge of a
// spanning forest of them (anyTree.link, when the level keeps one). Its
// scratch — the sort keys, the cell order, the cell runs — is reused
// across levels, and across passes through the pass scratch pool
// (passScratch); a level allocates nothing.
//
// Stats: DistanceComputations counts the keys computed; GroupMerges the
// unions, a level's inherited ones included, so that it stays
// Σ_l (n − sets_l); IndexUpdates and IndexProbes one each per (level,
// occupied cell): a cell is registered once and looks up its
// neighbourhood once.
type cellGraph struct {
	*cellSort
	metric geom.Metric
	whole  []bool    // cell c's members are one set
	fwd    []int32   // one cell's forward neighbours
	buf    []int32   // the members of a cell one pass keys
	keys   []float64 // the keys of one pass
	tree   *anyTree  // the level's spanning forest, nil when it keeps none
	stats  Stats
}

// cellSort is the cell graph's index, and the sorted cell index of a
// whole-set SGB-All pass (sortedCells): it buckets a set of stored
// positions into cells of one side by a radix sort of their cell
// coordinates, and lists every pair of occupied neighbouring cells once
// (forward), hashing nothing. Its scratch is sized by reset and
// reused by every bucket call over the same positions, and by the next
// reset, whatever its dimensionality.
type cellSort struct {
	ps     *geom.PointSet
	maxAbs float64 // the largest |coordinate| of the points sorted
	ids    []int32 // point ids in cell order
	tmp    []int32 // the radix sort's other buffer
	// sortKey holds a sort key per position of ids, tmpKey is its other
	// buffer; lo and width are each column's smallest cell and span in
	// bits at the side being bucketed, and ext each axis's smallest and
	// largest coordinate.
	sortKey, tmpKey []uint64
	lo              []int64
	width           []uint
	ext             []float64
	ends            []int32 // cell c holds ids[ends[c-1]:ends[c]]
	cells           []int64 // cell c's d coordinates (cells[c*d:])
	row             []int64 // one point's cell coordinates (cellRow)
	offs            []int64 // the forward prefix offsets, d−1 coordinates each
	ptrs            []int   // per prefix offset: the first cell not before its target
}

// runCellGraph fills every level of f, ascending, with the cell graph
// over the points of ps at the stored positions pos, ascending (nil:
// every position), and charges its work to st. f spans every position
// of ps; the others stay singletons. The scratch comes from the pass
// scratch pool and goes back to it.
func runCellGraph(ps *geom.PointSet, metric geom.Metric, pos []int32, f *anyForests, st *Stats) {
	sc := getPassScratch()
	g := &sc.graph
	ids := g.ids[:0] // the sort permutes its own copy
	if pos == nil {
		ids = slices.Grow(ids, ps.Len())
		for i := 0; i < ps.Len(); i++ {
			ids = append(ids, int32(i))
		}
	} else {
		ids = append(ids, pos...)
	}
	g.reset(ps, ids)
	g.metric, g.stats = metric, Stats{}
	n := len(ids)
	g.buf, g.keys, g.whole = slices.Grow(g.buf[:0], n), slices.Grow(g.keys[:0], n), slices.Grow(g.whole[:0], n)
	g.fwd = slices.Grow(g.fwd[:0], 3*len(g.ptrs)+1)
	for l := range f.ufs {
		g.level(f, l)
	}
	st.Merge(&g.stats)
	sc.release()
}

// reset readies s to sort ids, stored positions of ps, which s takes
// over (the sort permutes them), keeping the buffers of an earlier
// reset where they are large enough; only the per-dimension ones (the
// prefix offsets and their pointers, a column's range and a point's
// cell row) are made again when the dimensionality changes. The cell
// runs (ends, cells) grow as bucket fills them.
func (s *cellSort) reset(ps *geom.PointSet, ids []int32) {
	n, d := len(ids), ps.Dims()
	if len(s.lo) != d {
		s.offs = forwardPrefixes(d)
		s.ptrs = make([]int, len(s.offs)/max(d-1, 1))
		s.lo, s.width, s.ext, s.row = make([]int64, d), make([]uint, d), make([]float64, 2*d), make([]int64, d)
	}
	s.ps, s.ids = ps, ids
	s.tmp, s.sortKey, s.tmpKey = resized(s.tmp, n), resized(s.sortKey, n), resized(s.tmpKey, n)
	for k := 0; k < d; k++ {
		s.ext[2*k], s.ext[2*k+1] = math.Inf(1), math.Inf(-1)
	}
	s.maxAbs = 0
	for _, id := range ids {
		for k, v := range ps.At(int(id)) {
			s.ext[2*k], s.ext[2*k+1] = min(s.ext[2*k], v), max(s.ext[2*k+1], v)
			s.maxAbs = math.Max(s.maxAbs, math.Abs(v))
		}
	}
}

// resized returns s with length n, reallocated only when it is short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// forwardPrefixes lists the offsets δ ∈ {−1, 0, 1}^(d−1) whose first
// non-zero coordinate is +1, d−1 coordinates each: with a last
// coordinate in {−1, 0, 1} each names three cells, consecutive in
// lexicographic order, of the forward half of a cell's 3^d
// neighbourhood. The rest of that half is the next cell of the same
// prefix (δ = 0 … 0 +1).
func forwardPrefixes(d int) []int64 {
	var out []int64
	off := make([]int64, d-1)
	for k := range off {
		off[k] = -1
	}
	for {
		for _, v := range off { // first non-zero coordinate
			if v != 0 {
				if v > 0 {
					out = append(out, off...)
				}
				break
			}
		}
		k := len(off) - 1
		for k >= 0 && off[k] == 1 {
			off[k] = -1
			k--
		}
		if k < 0 {
			return out
		}
		off[k]++
	}
}

// cellSide returns a cell side that puts every pair within key (a
// level's threshold in DistKey space) in one cell or in adjacent ones,
// for points whose coordinates are at most maxAbs in magnitude.
//
// Proof, with u = 2⁻⁵³ the unit roundoff. Let dx = fl(p_k − q_k) on an
// axis k. Under L∞, DistKey ≤ key gives |dx| ≤ key; under L2,
// fl(dx²) ≤ fl(Σ) ≤ key (a sum of non-negative terms is at least each
// term), so dx² ≤ key/(1−u) + 2⁻¹⁰⁷⁵, the last term for a square that
// underflowed. With e the reach below (√(key + 2⁻¹⁰⁷⁴), rounded, under
// L2) both give |dx| ≤ e/(1−u)^2.5, and the exact difference
// |p_k − q_k| ≤ |dx|/(1−u) ≤ e(1 + 4u). A point's cell on axis k is
// floor(fl(x · v)), v = fl(1/s); the two products differ by at most
// |p_k − q_k|·v + 2u·maxAbs·v (each rounding is relative, or below
// 2⁻¹⁰⁷⁴ when subnormal), which is at most (1 + u)(e(1 + 4u) +
// 2u·maxAbs)/s. geom.PadReach sets s = e + (maxAbs + 2e)·2⁻⁵⁰ =
// e + 8u(maxAbs + 2e), so the difference is below 1 and the floors
// differ by at most one. With coordinates within maxCells cells of the
// smallest level (checkCoords), x · v stays within ±2^52 + 1, an integer
// int64 holds.
func cellSide(m geom.Metric, key, maxAbs float64) float64 {
	reach := key
	if m == geom.L2 {
		reach = math.Sqrt(key + 0x1p-1074)
	}
	return geom.PadReach(maxAbs, reach)
}

// level turns f's level l, whose levels below are done, into that
// level's partition, and its spanning forest when f keeps trees.
func (g *cellGraph) level(f *anyForests, l int) {
	uf, key := f.ufs[l], f.keys[l]
	g.tree = nil
	if f.trees != nil {
		g.tree = &f.trees[l]
	}
	if l > 0 {
		uf.CopyFrom(f.ufs[l-1])
		if g.tree != nil {
			*g.tree = f.trees[l-1].clone()
		}
		g.stats.GroupMerges += int64(g.ps.Len() - uf.Count())
	}
	g.bucket(1 / cellSide(g.metric, key, g.maxAbs))
	cells := len(g.ends)
	g.stats.IndexUpdates += int64(cells)
	g.stats.IndexProbes += int64(cells)
	whole := g.whole[:0]
	for c := 0; c < cells; c++ {
		whole = append(whole, g.joinCell(uf, c, key))
	}
	g.whole = whole
	for a := 0; a < cells; a++ {
		g.fwd = g.forward(a, g.fwd[:0])
		for _, b := range g.fwd {
			g.linkCells(uf, a, int(b), key)
		}
	}
}

// bucket computes the cell of every point of ids (tombstones are not
// among them) at 1/inv per side, floor(x · inv) on each axis, computed
// where it is needed rather than stored, sorts the ids lexicographically
// by cell and cuts the order into cell runs. The sort is an LSD radix sort over
// the coordinate columns, last first, each column normalized to its span
// of cells and as many consecutive columns packed into one key as 64
// bits hold (all of them, unless the spans are very wide); a key costs
// one pass per byte it spans.
func (g *cellSort) bucket(inv float64) {
	d, data := g.ps.Dims(), g.ps.Data()
	for k := range g.lo { // floor is monotone: the extreme coordinates' cells
		g.lo[k] = int64(math.Floor(g.ext[2*k] * inv))
		g.width[k] = uint(bits.Len64(uint64(int64(math.Floor(g.ext[2*k+1]*inv)) - g.lo[k])))
	}
	oneKey := true
	for k := d; k > 0; {
		j, w := k-1, g.width[k-1] // columns [j, k) share one key
		for j > 0 && w+g.width[j-1] <= 64 {
			j--
			w += g.width[j]
		}
		for i, id := range g.ids {
			var key uint64
			for c, x := range data[int(id)*d+j : int(id)*d+k] {
				key = key<<g.width[j+c] | uint64(int64(math.Floor(x*inv))-g.lo[j+c])
			}
			g.sortKey[i] = key
		}
		g.radix(w)
		oneKey = oneKey && j == 0
		k = j
	}
	// Cells are runs of equal coordinates; with every column in one
	// key, runs of equal keys, which also size the runs' storage.
	runs := min(len(g.ids), 1)
	for i := 1; i < len(g.ids); i++ {
		if g.sortKey[i] != g.sortKey[i-1] {
			runs++
		}
	}
	ends, cells := slices.Grow(g.ends[:0], runs+1), slices.Grow(g.cells[:0], runs*d)
	for i, id := range g.ids {
		if i > 0 {
			if g.sortKey[i] == g.sortKey[i-1] && (oneKey || slices.Equal(g.cellRow(id, inv), cells[len(cells)-d:])) {
				continue
			}
			ends = append(ends, int32(i))
		}
		cells = append(cells, g.cellRow(id, inv)...)
	}
	g.ends, g.cells = append(ends, int32(len(g.ids))), cells
}

// cellRow returns the cell coordinates of stored point id at 1/inv per
// side, floor(x · inv) on every axis, in scratch valid until the next
// call.
func (g *cellSort) cellRow(id int32, inv float64) []int64 {
	d := len(g.row)
	for k, x := range g.ps.Data()[int(id)*d : int(id)*d+d] {
		g.row[k] = int64(math.Floor(x * inv))
	}
	return g.row
}

// radix sorts g.ids by g.sortKey, keys of w bits, carrying the keys
// along: one stable counting pass per byte.
func (g *cellSort) radix(w uint) {
	var counts [256]int32
	for shift := uint(0); shift < w; shift += 8 {
		clear(counts[:])
		for _, key := range g.sortKey {
			counts[uint8(key>>shift)]++
		}
		pos := int32(0)
		for b, c := range counts {
			counts[b], pos = pos, pos+c
		}
		for i, key := range g.sortKey {
			b := uint8(key >> shift)
			g.tmpKey[counts[b]], g.tmp[counts[b]] = key, g.ids[i]
			counts[b]++
		}
		g.ids, g.tmp = g.tmp, g.ids
		g.sortKey, g.tmpKey = g.tmpKey, g.sortKey
	}
}

// members returns the ids of cell c.
func (g *cellSort) members(c int) []int32 {
	start := int32(0)
	if c > 0 {
		start = g.ends[c-1]
	}
	return g.ids[start:g.ends[c]]
}

// cellOf returns the coordinates of cell c.
func (g *cellSort) cellOf(c int) []int64 {
	d := len(g.row)
	return g.cells[c*d : c*d+d : c*d+d]
}

// joinCell joins the members of cell c within key and reports whether
// they ended as one set. Each member not yet in the hub's set is keyed
// against it; a member that stays apart (beyond key of the hub: an L2
// corner, or the pad) is keyed against every member of another set, so
// no pair inside the cell is left. The hub is the newest member, the
// largest stored position (members ascend): a maintained evaluator's
// sliding window deletes the oldest points first, and a star around the
// oldest would fall apart with it into pieces to re-probe.
func (g *cellGraph) joinCell(uf *unionfind.UF, c int, key float64) bool {
	ms := g.members(c)
	if len(ms) == 1 {
		return true
	}
	hub := ms[len(ms)-1]
	r0 := uf.Find(int(hub))
	rest := g.buf[:0]
	for _, y := range ms[:len(ms)-1] {
		if uf.Find(int(y)) != r0 {
			rest = append(rest, y)
		}
	}
	if len(rest) == 0 {
		return true
	}
	g.stats.DistanceComputations += int64(len(rest))
	keys := g.ps.AppendDistKeys(g.keys[:0], g.metric, g.ps.At(int(hub)), rest)
	far := rest[:0]
	for k, y := range rest {
		if keys[k] > key {
			far = append(far, y)
		} else if ry := uf.Find(int(y)); ry != r0 {
			r0 = uf.Link(r0, ry)
			g.merged(hub, y)
		}
	}
	if len(far) == 0 {
		return true
	}
	for _, x := range far {
		rx := uf.Find(int(x))
		if rx == uf.Find(int(hub)) {
			continue
		}
		for _, y := range ms {
			ry := uf.Find(int(y))
			if ry == rx {
				continue
			}
			g.stats.DistanceComputations++
			if g.ps.DistKey(g.metric, int(x), int(y)) <= key {
				rx = uf.Link(rx, ry)
				g.merged(x, y)
			}
		}
	}
	r0 = uf.Find(int(hub))
	for _, x := range far {
		if uf.Find(int(x)) != r0 {
			return false
		}
	}
	return true
}

// merged counts a union of the pair (x, y), within the level's key, and
// records it as an edge of the level's spanning forest if it keeps one:
// a call, so that merged inlines into the loops of one-shot runs.
func (g *cellGraph) merged(x, y int32) {
	g.stats.GroupMerges++
	if g.tree != nil {
		g.record(x, y)
	}
}

// record adds the edge (x, y) to the level's spanning forest.
func (g *cellGraph) record(x, y int32) { g.tree.link(int(x), int(y)) }

// forward appends to dst the occupied cells after a that neighbour it,
// and returns it; called for a = 0, 1, 2, … in turn, it lists every
// pair of neighbouring occupied cells once, from the smaller. They are
// the next cell when it is the next one along the last axis, and for
// each forward prefix offset the up to three cells it names, found by a
// pointer that only moves forward — the targets of consecutive cells
// ascend, as adding an offset keeps lexicographic order.
func (g *cellSort) forward(a int, dst []int32) []int32 {
	d := len(g.row)
	cells := len(g.ends)
	if a == 0 {
		clear(g.ptrs)
	}
	ca := g.cellOf(a)
	if b := a + 1; b < cells {
		if cb := g.cellOf(b); samePrefix(ca, cb, nil) && cb[d-1] == ca[d-1]+1 {
			dst = append(dst, int32(b))
		}
	}
	for j := range g.ptrs {
		off := g.offs[j*(d-1) : (j+1)*(d-1)]
		b := g.ptrs[j]
		for b < cells && beforeTarget(g.cellOf(b), ca, off) {
			b++
		}
		g.ptrs[j] = b
		for ; b < cells; b++ {
			cb := g.cellOf(b)
			if !samePrefix(ca, cb, off) || cb[d-1] > ca[d-1]+1 {
				break
			}
			dst = append(dst, int32(b))
		}
	}
	return dst
}

// samePrefix reports whether cb's first d−1 coordinates are ca's plus
// off (nil: plus nothing).
func samePrefix(ca, cb []int64, off []int64) bool {
	for k := 0; k < len(ca)-1; k++ {
		o := int64(0)
		if off != nil {
			o = off[k]
		}
		if cb[k] != ca[k]+o {
			return false
		}
	}
	return true
}

// beforeTarget reports whether cell cb precedes, lexicographically, the
// first cell prefix offset off names from ca: (ca's prefix + off,
// ca's last coordinate − 1).
func beforeTarget(cb, ca, off []int64) bool {
	last := len(ca) - 1
	for k := 0; k < last; k++ {
		if t := ca[k] + off[k]; cb[k] != t {
			return cb[k] < t
		}
	}
	return cb[last] < ca[last]-1
}

// linkCells joins the neighbouring cells a and b: every pair across
// them within key whose endpoints are in two sets ends in one. A member
// of a cell that is one set needs one such pair to join it, so when b
// is whole a member of a already in b's set is skipped unkeyed and any
// other stops at its first, and when a is whole too the first joins the
// two cells and ends the visit. When neither is whole, each member of a
// keys every member of b and links the hits in another set. Both cells
// are read newest member first, so the pair that joins them is between
// new points, for the reason joinCell's hub is the newest.
func (g *cellGraph) linkCells(uf *unionfind.UF, a, b int, key float64) {
	wa, wb := g.whole[a], g.whole[b]
	if wa && !wb {
		a, b, wa, wb = b, a, wb, wa
	}
	as, bs := g.members(a), g.members(b)
	rb := -1 // b's one set, while it is whole
	if wb {
		rb = uf.Find(int(bs[0]))
	}
	for i := len(as) - 1; i >= 0; i-- {
		x := as[i]
		rx := uf.Find(int(x))
		if rx == rb {
			if wa {
				return
			}
			continue
		}
		g.stats.DistanceComputations += int64(len(bs))
		keys := g.ps.AppendDistKeys(g.keys[:0], g.metric, g.ps.At(int(x)), bs)
		for k := len(keys) - 1; k >= 0; k-- {
			if keys[k] > key {
				continue
			}
			ry := uf.Find(int(bs[k]))
			if ry == rx {
				continue
			}
			rx = uf.Link(rx, ry)
			g.merged(x, bs[k])
			if wb {
				rb = rx
				break
			}
		}
	}
}
