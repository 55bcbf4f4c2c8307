// Package unionfind implements a disjoint-set forest with union by rank
// and path compression (Tarjan & van Leeuwen). The SGB-Any executor uses
// it "to keep track of existing, newly created, and merged groups"
// (Procedure 8 / Figure 8b of the paper): when an input point bridges
// several groups, their roots are redirected to a single representative.
//
// Amortized cost per operation is O(α(n)) where α is the inverse
// Ackermann function (α(n) ≤ 4 for any realistic n), which is what gives
// SGB-Any its O(n log n) average-case bound.
//
// Beyond the paper's one-shot use, the forest is the merge substrate of
// the parallel pipeline and the incremental evaluator:
//
//   - Absorb folds a worker-private forest over a tile into the global
//     one at the tile's offset: a tile is a contiguous run of the global
//     elements (single-threaded reduction; the forest is not safe for
//     concurrent mutation).
//   - Add grows the forest one singleton at a time, which is what lets
//     incremental SGB-Any (internal/core's AnyEvaluator) absorb
//     appended points without rebuilding.
//   - Reset (with the DropSets bookkeeping prologue) detaches whole
//     sets back into singletons, which is what lets decremental
//     SGB-Any dissolve exactly the components a deletion touched and
//     re-union their survivors.
//
// Union is commutative and associative over the resulting partition, so
// any merge order — sequential, sharded, or append-interleaved — yields
// the same components.
package unionfind
