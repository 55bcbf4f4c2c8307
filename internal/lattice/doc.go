// Package lattice answers every similarity threshold ε ≤ ε_max from
// one pass over the data: the ε-lattice of SGB-Any groupings.
//
// SGB-Any groups are the connected components of the ε-proximity
// graph, and components only merge as ε grows — groupings at ε₁ < ε₂
// nest. One Kruskal-style sweep therefore captures the whole family:
// enumerate candidate edges below ε_max with the uniform ε_max-cell
// grid (probe the 3^d neighborhood of each point before registering
// it, so each unordered pair surfaces exactly once and the O(n²) edge
// set is never materialized), sort by distance key, and fold through a
// Union-Find recording the height of every merge. The resulting
// Dendrogram answers GroupsAt(ε) for any level with a binary search
// over merge heights plus an amortized prefix replay — near-constant
// query cost beyond the O(n) materialization of the answer itself.
//
// Memory stays bounded by minimum-spanning-forest compaction: under a
// fixed total edge order, MSF(S ∪ T) ⊆ MSF(MSF(S) ∪ T), so the edge
// buffer can be filtered to at most n−1 forest edges whenever it grows
// — exactly, not approximately — which also makes Append incremental.
//
// The same forest makes deletion a repair rather than a rebuild
// (Sweep.Remove, decremental.go). Dropping the forest edges at a removed
// point leaves a sub-forest of the survivors' forest (cut property);
// every edge it lacks joins two of its pieces, pieces of one old tree
// (cycle property); so re-probing every piece but the largest of each
// tree and compacting once more is exact, and because survivors renumber
// by their monotone rank the merge list is the one a fresh sweep over
// them would produce. The early-discard filter does not survive a
// removal — it may have dropped an edge on the strength of a path
// through the removed point — and is rebuilt before the re-probe.
//
// The same inclusion lets the first batch build on several cores
// (Sweep.Append with workers ≥ 2, parallel.go): partition.Split cuts it
// into ε_max-tiles, each tile compacts its own forest with the
// sequential Append, the keyed cross-tile pairs come from the frontier
// probe SGB-Any's pipeline uses, and the sorted tile forests merge into
// the retained prefix ahead of one compaction — the merge list equals
// the sequential one element for element. Such a build leaves the
// sweep's grid unbuilt; the next Append or Remove bulk-loads it, so a
// dendrogram built once and only cut never pays for it.
//
// Heights live in geom.Metric.DistKey space (squared distance for L2),
// the same comparison basis Metric.Within uses, so lattice levels are
// bit-for-bit identical to independent one-shot SGB-Any runs.
package lattice
