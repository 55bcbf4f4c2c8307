// Package partition implements the spatial sharding stage of the
// parallel similarity group-by pipeline: partition → tile-local
// evaluate → merge. Points are split into axis-aligned blocks of
// ε-sized grid cells ("ε-tiles"): split counts are allocated greedily
// across axes in proportion to their occupied-cell extent, and each
// split axis is cut at point-count quantiles. Multi-axis tiling is
// what keeps every worker fed when no single axis is wide — the
// failure mode of stripe partitioning, where a widest axis a few cells
// across capped the shard count regardless of the requested
// parallelism.
//
// Cuts lie on ε-cell boundaries, so two points in different tiles are
// separated by at least one cut on some axis, and a within-ε pair
// bounds its per-axis gap by ε — each endpoint must then lie in one of
// the two cell layers touching that cut. Those points form the
// FRONTIER. Tile-local evaluation plus a frontier merge is therefore
// exact for connected-component (SGB-Any) semantics, which the SGB-Any
// pipeline relies on (its frontier probe and merge live in
// internal/core). SGB-All has no tiled pipeline
// (docs/pr24-sgball-sequential.md).
//
// Invariants (exercised by partition_test.go at d ∈ {2, 3, 5}):
//
//   - Exact cover: every input index appears in exactly one tile, and
//     tile interiors are disjoint blocks of the ε-cell lattice.
//   - Tile.Global maps tile-local indices back to input indices in
//     ascending order, so tile-local processing order matches global
//     input order restricted to the tile, and worker-private
//     Union-Finds fold into the global forest without translation
//     tables (unionfind.Absorb).
//   - ε-band membership: every cross-tile within-ε pair (under L2 or
//     L∞) has both endpoints in Plan.Frontier.
//   - Gather correctness: Tile.Points.At(i) equals the source point at
//     Tile.Global[i].
//
// The package is deliberately independent of the operator core: it
// knows points, ε, and a tile-count target — geometry only, no metric —
// and returns compact sub-PointSets plus the local→global maps and the
// frontier. The callers supply the tile-local algorithm, the frontier
// probe and the merge.
package partition
