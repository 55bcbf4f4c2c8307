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
// Beyond the paper's one-shot use, the forest is the state of a one-shot
// ε sweep and of the incremental evaluator:
//
//   - CopyFrom starts one level of a one-shot sweep from the level
//     below.
//   - Add grows the forest one singleton at a time, which is what lets
//     incremental SGB-Any (internal/core's AnyEvaluator) absorb
//     appended points without rebuilding.
//   - Reset (with the DropSets bookkeeping prologue) detaches whole
//     sets back into singletons, which is what lets decremental
//     SGB-Any dissolve exactly the components a deletion touched and
//     re-union their survivors.
//
// Union is commutative and associative over the resulting partition, so
// any merge order — sequential or append-interleaved — yields the same
// components.
package unionfind
