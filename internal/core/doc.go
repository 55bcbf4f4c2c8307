// Package core implements the paper's primary contribution: the
// similarity group-by operators SGB-All (DISTANCE-TO-ALL) and SGB-Any
// (DISTANCE-TO-ANY) over multi-dimensional data, with the three
// ON-OVERLAP semantics (JOIN-ANY, ELIMINATE, FORM-NEW-GROUP) and the
// three evaluation strategies evaluated in the paper:
//
//   - AllPairs        — the naive baseline (Procedure 2),
//   - BoundsCheck     — ε-All bounding rectangles (Procedure 4),
//   - OnTheFlyIndex   — R-tree-indexed bounding rectangles (Procedure 5)
//     and, for SGB-Any, an R-tree over points plus a
//     Union-Find over group membership (Procedure 8),
//
// plus a fourth strategy beyond the paper:
//
//   - GridIndex       — a uniform hash grid with ε-sized cells
//     (internal/grid, a flat open-addressed table with slab-pooled id
//     lists — no dimensionality cap) in place of the R-tree; the
//     textbook structure for fixed-radius queries. A one-shot SGB-Any
//     run links the ε-cells themselves, level by level (cellgraph.go);
//     a one-shot SGB-All pass sorts its points into the same cells and
//     probes the occupied neighbours of each point's cell
//     (gridfinder.go); maintained evaluators probe the hashed cells
//     batch by batch in arrival order. Output ids always index the
//     input order.
//
// # Evaluation shapes
//
// SGB-Any runs in one of three shapes, SGB-All in the first and the
// last, all producing identical groupings for equal seeds:
//
//   - One-shot sequential (SGBAll / SGBAny and their *Set variants):
//     points are processed in arrival order against the strategy
//     selected by Options.Algorithm.
//   - Split by level (a one-shot SGB-Any sweep of k ≥ 2 ε levels with
//     Options.Parallelism > 1; parallel.go): the ascending levels are
//     cut into min(workers, k) contiguous ranges, each evaluated
//     sequentially on a goroutine of its own.
//   - Resumable / incremental (AllEvaluator, AnyEvaluator; resume.go):
//     retained evaluation state that Append extends batch by batch,
//     sharing the exact per-point step with the one-shot path so an
//     incremental run over batches equals a one-shot run over their
//     concatenation. Both keep their points in one pointLog (the
//     append-only log, live ids, tombstones); the first accepted batch
//     fixes the dimensionality. The SQL engine's cache holds them
//     directly, and the root package's Incremental handle forwards to
//     one; an SGB-Any evaluator is always NewAnyLevels', one level for
//     a single ε.
//     Retained state has no serialized form: it equals a from-scratch
//     run over the surviving points, so appending them again rebuilds
//     it.
//
// An ε sweep (EPS IN, SIMILARITY CUBE BY EPS) comes in two forms. A
// one-shot sweep (SweepAny) runs the first two shapes over its levels
// at once, one Union-Find per level (sgbAnyLevels, the function
// single-ε SGBAny is the one-level case of): under the grid each level
// starts from the one below and links ε-cells (cellGraph). A maintained grouping, whose future ε lists are unknown,
// keeps the same levels (NewAnyLevels, at most MaxLevels; a single ε is
// one level) and adds one when it is asked for.
//
// # Invariants
//
//   - SGB-All output groups are cliques of the ε-similarity graph;
//     SGB-Any output groups are its maximal connected components
//     (checked by CheckCliques / CheckComponents in validate.go).
//   - Every strategy enumerates candidate groups in group-creation
//     order, so the JOIN-ANY arbitration consumes identical PRNG draws
//     regardless of strategy or batching — groupings are
//     bit-identical for equal seeds.
//   - Each group's ε-All bounding rectangle (Definition 5) is the
//     intersection of its members' ε-boxes, [hi − ε, lo + ε] of the
//     member MBR, the one rectangle a group keeps. A point inside it
//     (classify's MBR test, hi − p ≤ ε ∧ p − lo ≤ ε) is within ε of
//     every member under L∞ by the same distance key All-Pairs
//     compares, and a candidate under L2 pending the Convex Hull Test
//     (Procedure 6, hulltest.go).
//
// The operators are deliberately order-sensitive: like the paper's
// PostgreSQL executor they process tuples in arrival order, and the
// JOIN-ANY arbitration picks a pseudo-random candidate group (seedable
// through Options.Seed for reproducibility). Only SGB-Any's components
// are order-independent — the property (from the companion paper on
// order-independent SGB semantics, see PAPERS.md) that makes both the
// sharded parallel merge and incremental appends exact.
package core
