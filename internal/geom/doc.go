// Package geom provides the multi-dimensional points, rectangles, and
// Minkowski distance metrics that underlie the similarity group-by
// operators. The paper (Definition 1) works in a metric space 〈D, δ〉
// with δ one of the Minkowski distances; it evaluates L2 (Euclidean)
// and L∞ (maximum) in two and three dimensions. This package supports
// any dimensionality d ≥ 1.
//
// Point storage comes in two shapes: []Point for API convenience, and
// the flat PointSet — one contiguous []float64 buffer with stride d —
// that every operator hot path runs on. PointSet supports zero-copy
// adaptation from contiguous []Point data (FromPoints), gathers into a
// permuted or sub-set order (Gather), views for the parallel pipeline's
// tiles and suffix hand-off (Slice), and batch appends for the
// incremental evaluators (AppendSet).
//
// Invariants:
//
//   - Points are immutable by convention; PointSet.At returns
//     read-only views into the backing buffer.
//   - All points of a PointSet share one dimensionality; mixing is a
//     programming error (panic), not a data error.
//   - EpsBox(p, ε) is the closed axis-aligned box of side 2ε centered
//     on p: it equals the ε-ball under L∞ and over-approximates it
//     under L2, which is why L2 strategies refine candidates exactly.
//   - Distance kernels are dimension-specialized (d = 2/3 unrolled)
//     and Within avoids the square root under L2.
//
// The package also provides the one Z-order (Morton order) of a
// PointSet's cells (ZOrder; MortonKey, MortonPerm): cell quantization,
// per-axis normalization, the interleaved key — coarsened on an axis
// wider than its bits, never aliased, so it grows with every cell
// coordinate — and a radix sort. A maintained SGB-Any evaluator absorbs
// each batch in this order so consecutive cell-neighborhood probes stay
// cache-resident (remapping member ids back to input order on output),
// internal/partition (kept for the benchmark's partition.split_ms) cuts
// its tiles from it, and internal/grid's BulkLoad registers in it.
package geom
