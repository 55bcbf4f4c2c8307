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
// folds the configured aggregates over each output group, in one pass
// straight into the output rows. When its Answer hook is set (the
// engine's evaluator cache, installed by the planner for bare
// single-table scans), the hook is asked first, with the rows and a
// lazy extractor: it may return shared Groupings — whose aggregates
// are folded a column at a time, memoized, and from then on only
// zipped into rows — after extracting just the input's new suffix, or
// nothing at all. A Grouping must equal the one-shot
// evaluation, so downstream operators are oblivious to how the groups
// were obtained.
//
// Invariants: operators follow the Open / Next (nil row = exhausted) /
// Close contract, may be re-Opened after Close, and never mutate input
// rows they did not allocate.
package exec
