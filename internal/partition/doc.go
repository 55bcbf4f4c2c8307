// Package partition cuts a point set into Z-order tiles with an
// ε-frontier. The engine no longer calls it: SGB-Any parallelizes
// across ε levels, not tiles (internal/core, parallel.go), and SGB-All
// is sequential. It is kept because the end-to-end benchmark's traced
// pass times Split as partition.split_ms (bench/probe.go); it goes when
// that metric does. Points are sorted along the Z-curve of their ε-cells
// (geom.ZOrder), and the sorted order is cut into near-equal runs at
// cell boundaries: a tile is a run of positions, which a caller that
// gathers the input in that order evaluates as a slice.
//
// The FRONTIER is the set of positions whose ε-box, padded for rounding
// (geom.PaddedReach), reaches past its run's key range. A Z-order key
// grows with every cell coordinate, so the keys of a box's two corners
// bound the keys of every cell it covers, and a box whose corners stay
// inside its run's range covers cells of that run only. A cross-run
// pair within ε lies in each other's padded box, so both endpoints are
// frontier. Tile-local evaluation plus a frontier merge is therefore
// exact for connected-component (SGB-Any) semantics.
//
// Invariants (exercised by partition_test.go at d ∈ {1, 2, 3, 5},
// FuzzSplitFrontier and Brightkite check-ins):
//
//   - Exact cover: Perm is a permutation, and the runs cut its positions
//     into at least two non-empty slices; no cell straddles two runs.
//   - Balance: each run holds len/k points, give or take one cell's
//     population.
//   - ε-band membership: every cross-run within-ε pair (under L2 or
//     L∞, computed distance) has both endpoints in Plan.Frontier.
//
// The package is deliberately independent of the operator core: it
// knows points, ε, and a tile-count target — geometry only, no metric —
// and returns the order, the cuts and the frontier. A caller supplies
// the tile-local algorithm, the frontier probe and the merge.
package partition
