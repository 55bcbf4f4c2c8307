package grid

import (
	"slices"

	"github.com/sgb-db/sgb/internal/geom"
)

// BulkLoad builds a table over every point of ps (ids 0..Len-1, home
// cells) with a Morton-major slab layout: points are registered in
// Z-order of their home cells, so each cell's id list occupies a
// contiguous run of slabs in the arena and spatially adjacent cells
// sit in adjacent runs. Probe loops walk cell chains in the order a
// box visit touches cells, so chain-following stays within hardware
// prefetch distance — the point of bulk loading over per-point
// AddPoint, whose interleaved allocation scatters a cell's chain
// across the arena. The table is fully mutable afterwards; later
// AddPoint/RemovePoint churn degrades the layout gracefully.
func BulkLoad(ps *geom.PointSet, cellSize float64) *Table {
	n := ps.Len()
	t := NewCap(ps.Dims(), cellSize, n/2)
	if n == 0 {
		return t
	}
	d := ps.Dims()

	// Home-cell coordinates per point, and the per-axis minimum for the
	// Morton bias (codes interleave unsigned offsets from the corner).
	cells := make([]int64, n*d)
	mins := make([]int64, d)
	for k := range mins {
		mins[k] = int64(1) << 62
	}
	for i := 0; i < n; i++ {
		p := ps.At(i)
		row := cells[i*d : (i+1)*d]
		for k := 0; k < d; k++ {
			c := t.cellIdx(p[k])
			row[k] = c
			if c < mins[k] {
				mins[k] = c
			}
		}
	}

	// Sort ids by the Morton code of their home cell. Equal codes (same
	// cell — the common case that matters) stay grouped; the sort is by
	// (code, id) so the layout is deterministic.
	bits := 64 / d
	mask := uint64(1)<<bits - 1
	keys := make([]uint64, n)
	for i := 0; i < n; i++ {
		row := cells[i*d : (i+1)*d]
		var code uint64
		for k := 0; k < d; k++ {
			v := uint64(row[k]-mins[k]) & mask
			for b := 0; b < bits; b++ {
				code |= ((v >> b) & 1) << (b*d + k)
			}
		}
		keys[i] = code
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ka, kb := keys[a], keys[b]
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		default:
			return int(a) - int(b)
		}
	})

	// Register in Z-order: all ids of one cell arrive consecutively, and
	// the arena has no freelist yet, so every chain is a contiguous
	// (descending, head-first) slab run.
	for _, id := range order {
		t.AddPoint(ps.At(int(id)), id)
	}
	return t
}
