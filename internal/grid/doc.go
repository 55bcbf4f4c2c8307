// Package grid implements a uniform hash grid — the textbook probe
// structure for fixed-radius similarity queries. Space is partitioned
// into axis-aligned cubes of side cellSize; each occupied cell maps to
// the ids registered in it, and every id is registered in exactly one
// cell: a point's home cell (SGB-Any, the lattice, the parallel connect
// phase; cellSize = ε) or the home cell of a group's anchor member
// (the SGB-All finder; cellSize = the reach of its probe, ε or 2ε).
// Everything within cellSize of a point then lies in the 3^d cell
// neighborhood of its home cell, so a probe is a handful of directory
// lookups over contiguous id slabs instead of an R-tree descent. This
// is the structure behind the GridIndex strategy (internal/core), the
// fastest on the paper's workloads.
//
// Layout. The cell directory is a flat, open-addressed hash table:
// cells are keyed by a 64-bit hash of their integer coordinates
// (linear probing over a power-of-two capacity, hash cached per slot,
// coordinates verified against a flat arena on probe), so any
// dimensionality is supported — there is no fixed-size-key cap, and no
// R-tree fallback above d = 4 anymore. Per-cell id lists live in
// pooled 64-byte slabs (a chunked arena threaded through a freelist),
// so Add/Remove/CollectBox are allocation-free in steady state.
// Deletion is tombstone-free: a cell whose list empties merely turns
// dead and is dropped in bulk when the load factor passing 3/4 triggers
// a rebuild. The probe walk (CollectBox) is inlined per dimensionality
// — plain loop nests with hoisted partial hashes for d = 1/2/3, an
// odometer for higher d — so the hottest loop makes no indirect calls.
//
// Invariants:
//
//   - Quantization is monotone (floor(x/cellSize)), so the cell range
//     of a box covers the home cell of every point inside it — probes
//     may over-approximate but never miss.
//   - Id order within a cell is not meaningful (Remove back-fills the
//     hole from the head slab); consumers that need determinism sort
//     collected ids, as the SGB-All grid finder does.
//   - Read-only probes (CollectBox) are safe from many goroutines at
//     once when each brings its own Cursor; mutations are
//     single-threaded.
package grid
