package partition

import "github.com/sgb-db/sgb/internal/geom"

// Plan is a cut of a PointSet into runs of the Z-order of its ε-cells
// (geom.ZOrder): tile t is the run of positions [Ends[t-1], Ends[t]),
// with Ends[-1] = 0.
type Plan struct {
	// Perm is the Z-order: Perm[pos] is the input index of the point at
	// position pos. Ends, Frontier and every tile-local id are positions.
	Perm []int32
	// Ends holds the end of every run, ascending; the last is the input's
	// length. No cell straddles two runs.
	Ends []int32
	// Frontier holds, ascending, every position whose padded ε-box
	// (geom.PaddedReach) may cover a cell of another run: its low
	// corner's key lies below its run's first key, or its high corner's
	// above its run's last. A cell's key grows with every coordinate,
	// so no other cell of the box has a key outside the corners' range.
	// A cross-run pair within ε therefore has BOTH endpoints in
	// Frontier, whatever the metric and however the distance rounds.
	Frontier []int32
}

// Split cuts ps into up to k runs of its ε-cells' Z-order, near
// t·len/k: each cut moves forward to the next key change, so a run
// holds len/k points, give or take one cell's population. It returns
// nil when fewer than two runs result — k < 2, fewer than two points,
// or every point in one cell — in which case the caller should
// evaluate sequentially.
func Split(ps *geom.PointSet, eps float64, k int) *Plan {
	n := ps.Len()
	if n < 2 || k < 2 || !(eps > 0) {
		return nil
	}
	z := geom.NewZOrder(ps, eps)
	perm, keys := z.Sort()
	var ends []int32
	for t := 1; t < k; t++ {
		c := max(t*n/k, 1)
		for c < n && keys[c] == keys[c-1] {
			c++
		}
		if c == n {
			break
		}
		if len(ends) == 0 || int32(c) > ends[len(ends)-1] {
			ends = append(ends, int32(c))
		}
	}
	if len(ends) == 0 {
		return nil
	}
	ends = append(ends, int32(n))

	// Frontier: the first run has no run below it and the last none
	// above, so each skips that corner.
	var frontier []int32
	start := int32(0)
	for t, end := range ends {
		first, last := keys[start], keys[end-1]
		for pos := start; pos < end; pos++ {
			p := ps.At(int(perm[pos]))
			r := geom.PaddedReach(p, eps)
			if (t > 0 && z.Key(p, -r) < first) || (t < len(ends)-1 && z.Key(p, r) > last) {
				frontier = append(frontier, pos)
			}
		}
		start = end
	}
	return &Plan{Perm: perm, Ends: ends, Frontier: frontier}
}
