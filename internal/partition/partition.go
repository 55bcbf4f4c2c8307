package partition

import (
	"math"
	"runtime"
	"slices"
	"sort"

	"github.com/sgb-db/sgb/internal/geom"
)

// Tile is one block of the multi-axis partitioning: a compact PointSet
// holding the tile's points (gathered in ascending global order) plus
// the mapping from local index to global input index.
type Tile struct {
	Points *geom.PointSet
	// Global maps local point index → global input index. It is
	// ascending, so tile-local evaluation order matches global input
	// order restricted to the tile.
	Global []int32
}

// Plan is a complete spatial partitioning of a PointSet into axis-
// aligned blocks of ε-cells ("ε-tiles").
type Plan struct {
	// Splits[d] is the number of coordinate intervals axis d was cut
	// into (1 = uncut). The tile lattice is their cross product; Tiles
	// holds its non-empty cells.
	Splits []int
	// Tiles holds the non-empty tiles in row-major lattice order.
	Tiles []Tile
	// TileOf maps global input index → index into Tiles.
	TileOf []int32
	// Frontier holds, in ascending order, the global ids of every point
	// whose ε-cell touches a cut on some split axis (the cell just
	// below or just above the cut). Every cross-tile within-ε pair has
	// BOTH endpoints in Frontier: two points in different tiles are
	// separated by a cut on some axis, and being within ε bounds their
	// per-axis gap by ε, so each lies in one of the two cell layers
	// touching that cut.
	Frontier []int32
}

// Workers resolves a Parallelism setting: 0 means GOMAXPROCS, any
// other value is returned as-is (callers validate non-negativity).
func Workers(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// Split partitions ps into up to k ε-tiles: split counts are allocated
// greedily across axes in proportion to their extent in ε-cells (an
// axis with few occupied cells takes few or no cuts instead of
// starving the plan, the failure mode of single-axis striping), and
// each split axis is cut at point-count quantiles so tiles stay
// balanced under skew. It returns nil when no partitioning into at
// least two non-empty tiles exists — fewer than two occupied cells on
// every axis, k < 2, or an empty input — in which case the caller
// should evaluate sequentially.
func Split(ps *geom.PointSet, eps float64, k int) *Plan {
	n := ps.Len()
	if n == 0 || k < 2 || !(eps > 0) {
		return nil
	}
	dims := ps.Dims()
	inv := 1 / eps

	// Per-point ε-cell index per axis, and each axis's occupied span.
	cells := make([][]int64, dims)
	spans := make([]int64, dims)
	for d := 0; d < dims; d++ {
		cd := make([]int64, n)
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := 0; i < n; i++ {
			c := cellOf(ps.At(i)[d], inv)
			cd[i] = c
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		cells[d], spans[d] = cd, hi-lo
	}

	// Allocate split counts: repeatedly give another split to the axis
	// with the largest remaining per-interval span, until the lattice
	// has at least k cells or no axis can be cut further (an axis
	// spanning s+1 cells supports at most s+1 intervals).
	splits := make([]int, dims)
	for d := range splits {
		splits[d] = 1
	}
	for product(splits) < k {
		best, bestScore := -1, 0.0
		for d := 0; d < dims; d++ {
			if int64(splits[d]) > spans[d] {
				continue // every interval would need < 1 cell
			}
			if score := float64(spans[d]) / float64(splits[d]); best < 0 || score > bestScore {
				best, bestScore = d, score
			}
		}
		if best < 0 {
			break
		}
		splits[best]++
	}

	// Cut each split axis at point-count quantiles of its cell values.
	// cuts[d][i] is the last cell of interval i (strictly increasing,
	// below the axis maximum, so every interval keeps at least one
	// cell); deduplication under skew may leave fewer intervals than
	// requested.
	cuts := make([][]int64, dims)
	anyCut := false
	var sortScratch []int64
	for d := 0; d < dims; d++ {
		if splits[d] < 2 {
			splits[d] = 1
			continue
		}
		sortScratch = append(sortScratch[:0], cells[d]...)
		slices.Sort(sortScratch)
		var cd []int64
		for s := 1; s < splits[d]; s++ {
			c := sortScratch[s*n/splits[d]]
			if c >= sortScratch[n-1] {
				// The quantile landed on the top cell; cutting just
				// below it keeps the upper interval non-empty (the span
				// check guarantees max-1 ≥ min).
				c = sortScratch[n-1] - 1
			}
			if len(cd) > 0 && c <= cd[len(cd)-1] {
				continue
			}
			cd = append(cd, c)
		}
		cuts[d] = cd
		splits[d] = len(cd) + 1
		if len(cd) > 0 {
			anyCut = true
		}
	}
	if !anyCut {
		return nil
	}

	// Row-major lattice id per point, plus frontier membership: a point
	// is frontier when, on some split axis, its cell is the last cell
	// of a bounded-above interval or the first cell above a cut.
	latticeSize := product(splits)
	latticeID := make([]int32, n)
	isFrontier := make([]bool, n)
	for i := 0; i < n; i++ {
		id := 0
		for d := 0; d < dims; d++ {
			cd := cuts[d]
			if len(cd) == 0 {
				continue
			}
			c := cells[d][i]
			iv := sort.Search(len(cd), func(j int) bool { return cd[j] >= c })
			id = id*(len(cd)+1) + iv
			if (iv < len(cd) && c == cd[iv]) || (iv > 0 && c == cd[iv-1]+1) {
				isFrontier[i] = true
			}
		}
		latticeID[i] = int32(id)
	}

	// Compact the non-empty lattice cells into Tiles (row-major order)
	// and bucket the points (ascending global order within each tile).
	tileIndex := make([]int32, latticeSize)
	for i := range tileIndex {
		tileIndex[i] = -1
	}
	counts := make([]int, 0, k)
	for i := 0; i < n; i++ {
		id := latticeID[i]
		if tileIndex[id] < 0 {
			tileIndex[id] = -2 // occupied, index assigned below
		}
	}
	nTiles := 0
	for id := range tileIndex {
		if tileIndex[id] == -2 {
			tileIndex[id] = int32(nTiles)
			counts = append(counts, 0)
			nTiles++
		}
	}
	if nTiles < 2 {
		return nil
	}
	plan := &Plan{
		Splits: splits,
		Tiles:  make([]Tile, nTiles),
		TileOf: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		t := tileIndex[latticeID[i]]
		plan.TileOf[i] = t
		counts[t]++
	}
	for t := range plan.Tiles {
		plan.Tiles[t].Global = make([]int32, 0, counts[t])
	}
	for i := 0; i < n; i++ {
		t := plan.TileOf[i]
		plan.Tiles[t].Global = append(plan.Tiles[t].Global, int32(i))
		if isFrontier[i] {
			plan.Frontier = append(plan.Frontier, int32(i))
		}
	}
	for t := range plan.Tiles {
		plan.Tiles[t].Points = ps.Gather(plan.Tiles[t].Global)
	}
	return plan
}

func product(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// cellOf quantizes one coordinate to its ε-cell index (the same
// floor(x/ε) arithmetic as internal/grid).
func cellOf(x, inv float64) int64 {
	return int64(math.Floor(x * inv))
}
