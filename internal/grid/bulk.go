package grid

import "github.com/sgb-db/sgb/internal/geom"

// BulkLoad builds a table over every point of ps (ids 0..Len-1, home
// cells) with a Morton-major slab layout: points are registered in the
// Z-order of their home cells (geom.MortonPerm, whose cells are this
// table's), so each cell's id list occupies a contiguous run of slabs
// in the arena and spatially adjacent cells sit in adjacent runs. Probe
// loops walk cell chains in the order a box visit touches cells, so
// chain-following stays within hardware prefetch distance — the point
// of bulk loading over per-point AddPoint, whose interleaved allocation
// scatters a cell's chain across the arena. The table is fully mutable
// afterwards; later AddPoint/RemovePoint churn degrades the layout
// gracefully. No engine path loads a table this way at present; a
// maintained SGB-Any evaluator's whole-table build is to (ROADMAP item
// 3(a)).
func BulkLoad(ps *geom.PointSet, cellSize float64) *Table {
	t := NewCap(ps.Dims(), cellSize, ps.Len()/2)
	perm := geom.MortonPerm(ps, cellSize)
	// All ids of one cell arrive consecutively, and the arena has no
	// freelist yet, so every chain is a contiguous (descending,
	// head-first) slab run.
	for k := 0; k < ps.Len(); k++ {
		id := int32(k)
		if perm != nil {
			id = perm[k]
		}
		t.AddPoint(ps.At(int(id)), id)
	}
	return t
}
