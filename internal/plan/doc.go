// Package plan compiles parsed SQL into executable operator trees: it
// binds column references, compiles expressions to closures, extracts
// equi-join keys from WHERE conjuncts, rewrites aggregate expressions
// against grouped outputs, and instantiates the similarity group-by
// nodes with the operator options from the SGB clauses. It is the
// counterpart of the paper's "Planner and Optimizer routines [that] use
// the extended query-tree to create a similarity-aware plan-tree".
//
// Similarity-specific planning decisions made here:
//
//   - Strategy selection: the engine default is the ε-grid
//     (GridIndex), valid at any number of grouping attributes (cell
//     keys are hashed — the old d > 4 R-tree fallback is gone);
//     SGB-Any never receives Bounds-Checking (Section 7.1).
//   - The WITHIN threshold must fold to a positive numeric constant at
//     plan time.
//   - Evaluator-cache hook: when Builder.SGBAnswer is set (the
//     engine's SET incremental path), similarity group-by queries over
//     a bare single-table scan — one base table, no WHERE, no join, no
//     subquery in a grouping expression — have their grouping, single-ε
//     or EPS IN, served from cached per-table state. The shape
//     restriction is the soundness condition: only then is the
//     extracted point sequence a prefix-stable, append-only image of
//     the table.
//   - Aggregates whose printed form determines their value on a table
//     carry that form as AggSpec.Key, the key cached groupings memoize
//     aggregate columns under (literals print kind-faithfully: 2 and
//     2.0 are different keys).
package plan
