// Package grid implements a uniform hash grid — the textbook probe
// structure for fixed-radius similarity queries. Space is partitioned
// into axis-aligned cubes of side cellSize; each occupied cell maps to
// the ids registered in it, and every id is registered in exactly one
// cell: a point's home cell (SGB-Any and its tiled pipeline, the
// SGB-All closure; cellSize = ε) or the home cell of a
// group's anchor member (the SGB-All finder; cellSize = the reach of its
// probe, ε or 2ε). Everything within cellSize of a point then lies in
// the 3^d cell neighborhood of its home cell, so a probe is a handful of
// directory lookups over contiguous id slabs instead of an R-tree
// descent. This is the structure behind the GridIndex strategy
// (internal/core), the fastest on the paper's workloads.
//
// Layout. The directory is a flat, open-addressed hash table whose
// entries are blocks: up to d = 3 a block is the 2^d cells that share
// their coordinates shifted right by one (c >> 1 on every axis), above
// that a block is one cell — the same code with shift 0. Three
// consecutive cells always lie in exactly two consecutive blocks, on
// either parity of the first, so a probe whose radius is the cell side
// makes 2 / 4 / 8 hashed lookups at d = 1 / 2 / 3 where a directory of
// cells made 3 / 9 / 27, most of which missed on sparse data. A block is
// keyed by a 64-bit hash of its integer coordinates (linear probing
// over a power-of-two capacity, hash cached per slot), so any
// dimensionality is supported. Its record in the blocks arena holds the
// coordinates the lookup verifies and, behind them, the head of each
// cell's id list, two to a word — the line that confirms a hit is the
// line the heads are read from. The slot carries one occupancy bit per
// cell: a probe ANDs it with the mask of the block's cells inside its
// range (per axis, "the even cell", "the odd cell" or both) and walks
// only those lists, so a block whose occupied cells all lie outside the
// range costs nothing beyond its slot. Per-cell id lists live in pooled
// 64-byte slabs (a chunked arena threaded through a freelist), so
// AddPoint / RemovePoint / the collects are allocation-free in steady
// state. Both arenas double when they fill: a cold build re-copies each
// about once over in total, and the capacity hint — a point count, which
// says little about cells — sizes only the directory. Deletion is
// tombstone-free: a block whose lists all emptied merely turns dead and
// is dropped in bulk when the load factor passing 3/4 triggers a
// rebuild. The probe walk is inlined per dimensionality — plain loop
// nests with hoisted partial hashes for d = 1/2/3, an odometer for
// higher d — so the hottest loop makes no indirect calls.
//
// Invariants:
//
//   - Quantization is monotone (floor(x/cellSize)), so the cell range
//     of a box covers the home cell of every point inside it — probes
//     may over-approximate but never miss.
//   - A collect returns the multiset of ids registered in the cells of
//     its range, whatever blocks they fall into. Id order — within a
//     cell (RemovePoint back-fills the hole from the head slab) and
//     across the cells of a probe — is not meaningful; consumers that
//     need determinism sort collected ids, as the SGB-All grid finder
//     does.
//   - The caller keeps coordinates, and the corners of the boxes it
//     probes, within 2^52 cell sides of the origin, where x / cellSize
//     is an integer that float64 and int64 both hold. The table does
//     not check: the conversion of a quotient that overflowed to ±Inf
//     is MinInt64, and a range that starts there has 2^63 cells.
//     internal/core refuses such input where it enters (checkCoords,
//     Options.Validate), for this table, for internal/partition's
//     tiles and for geom.MortonPerm alike.
//   - Read-only probes (CollectBox, CollectRange) are safe from many
//     goroutines at once when each brings its own Cursor; mutations are
//     single-threaded.
package grid
