// Package exec implements the Volcano-style (iterator) executor that
// plays the role of PostgreSQL's executor in the paper's prototype:
// sequential scans, filters, projections, hash joins, standard hash
// aggregation, sorting, bounded-heap top-k (topk.go), and the two
// similarity group-by operator nodes (see sgb.go). Operators consume
// compiled scalar closures rather than AST nodes; the planner
// (internal/plan) produces both.
//
// The SGB node is blocking, like the paper's: ELIMINATE and
// FORM-NEW-GROUP can only be finalized "after processing the complete
// dataset", so Open takes the whole input (a table scan's snapshot as
// is, anything else drained into a tuple store), extracts the grouping
// attributes into a flat geom.PointSet, runs the operator core, and
// folds the configured aggregates over each output group straight into
// the output rows. When its Answer hook is set (the
// engine's evaluator cache, installed by the planner for bare
// single-table scans), the hook is asked first, with the rows and a
// lazy extractor: it may return shared Groupings — whose aggregates
// are folded a column at a time, memoized, and from then on only
// zipped into rows — after extracting just the input's new suffix, or
// nothing at all. A Grouping must equal the one-shot
// evaluation, so downstream operators are oblivious to how the groups
// were obtained.
//
// Aggregates fold one of two ways (fold.go). count, sum, avg, min and
// max over a bare column whose values are all INT or all FLOAT — and
// count(*) — run typed kernels over a numeric vector read once per
// statement and column, writing packed memo columns or output rows
// directly. Everything else — expression arguments, array_agg,
// st_polygon, columns of other or mixed kinds, every HashAgg — goes
// through the accumulators in agg.go, which remain the definition: a
// kernel's result is its accumulator's, bit for bit, and the
// differential suite and FuzzFold hold them to it.
//
// A result is not copied on its way out when it need not be: a Project
// the planner marked Identity (the select list is the aggregation's
// output row, column for column — an EPS IN sweep's [eps, aggregates…]
// and the ε-cube's rollup row included) passes rows through, and Run
// takes a similarity node's rows whole through such a projection rather
// than one Next and one append at a time. Every Open builds its rows
// afresh, so a caller may keep or overwrite them.
//
// Invariants: operators follow the Open / Next (nil row = exhausted) /
// Close contract, may be re-Opened after Close, and never mutate input
// rows they did not allocate — nor rows a Next returned to them, which
// may be the producer's own.
package exec
