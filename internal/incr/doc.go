// Package incr provides incremental similarity group-by maintenance:
// the Incremental handle keeps a live grouping that absorbs appended
// point batches and sheds removed points, so after every Append,
// Remove, or window eviction the grouping equals a one-shot SGB
// evaluation over the surviving points in arrival order — without
// ever regrouping from scratch (an SGB-All deletion replays the
// components it touched, see below). It is the subsystem behind the public
// sgb.NewIncrementalAll / NewIncrementalAny constructors and the SQL
// engine's SET incremental INSERT/DELETE-maintenance path (db.go's
// per-table cache). An SGB-Any handle may keep several ε levels at once
// (NewLevels, behind cached EPS IN and SIMILARITY CUBE BY EPS entries).
//
// Why this is sound, per operator:
//
//   - SGB-Any: connected components of the ε-similarity graph are
//     independent of arrival order (the companion paper on
//     order-independent SGB semantics, PAPERS.md), and the live
//     ε-grid plus the Union-Find forest both support appends natively
//     — so appending just keeps running the same per-point step
//     (core.AnyEvaluator; the grid whatever Options.Algorithm names,
//     since components do not depend on the index that finds the
//     edges either). The same semantics make deletion
//     well-defined and local: removing a point can only split its own
//     component, so Remove repairs the spanning trees of just the
//     affected components, at every level (core/decremental.go).
//   - SGB-All: the operator is order-sensitive, but its processing
//     order IS arrival order, which appending extends. The retained
//     state (groups, finder index, arbitration PRNG) after k points is
//     identical to a one-shot run's state at point k, so replaying
//     only the new points continues the identical trajectory
//     (core.AllEvaluator). FORM-NEW-GROUP's end-of-input recursion
//     over the deferred set S′ is the one end-of-stream step; Result
//     replays it on a throwaway clone so the retained main-pass state
//     stays appendable. Deletion, by contrast, changes which points
//     were present during arbitration, so something has to be
//     arbitrated again — but arbitration decomposes over the
//     ε-connected components (ARCHITECTURE.md), so Remove replays only
//     the survivors of the components that lost a point and splices
//     the outcome back in creation order: bit-identical to a
//     from-scratch run, at a cost proportional to those components
//     (core/decremental.go).
//
// Sliding windows ride on Remove: Window(n) evicts oldest-first down
// to n live points, WindowBy(pred) evicts the longest oldest-first
// prefix matching a predicate. Ids are live ids throughout — Result
// numbers survivors 0..Len()-1 in arrival order and Remove accepts
// those numbers, renumbering compactly afterwards.
//
// Invariants the handle enforces:
//
//   - Options are fixed at creation; Append/Remove/Result fail with
//     ErrOptionsMutated if the exposed Opt field was modified (retained
//     state embodies ε, metric, overlap, strategy, and seed).
//   - Dimensionality is fixed by the first non-empty batch (even
//     across a full eviction); later mismatches are rejected.
//   - Results own their slices: a materialized Result is never aliased
//     by later appends or removals.
package incr
