package grid

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// slabIDs is the id capacity of one slab. With the two header fields a
// slab is exactly 64 bytes — one cache line — so walking a cell's chain
// touches one line per slab.
const slabIDs = 14

// slab is one pooled chunk of a cell's id list. Cells chain slabs
// head-first: the head slab is partially filled (n in [1, slabIDs]),
// every later slab in the chain is full. Freed slabs are threaded onto
// the table's freelist through next, so steady-state add/remove churn
// recycles chunks instead of allocating.
type slab struct {
	next int32 // next slab in the chain (or freelist), -1 = none
	n    int32 // ids used in this slab
	ids  [slabIDs]int32
}

// slot is one entry of the open-addressed block directory. A slot with
// off < 0 has never held a block; a slot with off >= 0 and occ == 0 is
// a dead block (every id list emptied) that stays addressable until the
// next rebuild compacts it away — the tombstone-free deletion scheme.
type slot struct {
	hash uint64 // cached block hash: skips coordinate compares on probe
	off  int32  // the block's record in the blocks arena, -1 = free slot
	occ  uint8  // bit k set: cell k of the block has a non-empty id list
}

// Table is a uniform ε-cell hash grid over points of any
// dimensionality. A flat, open-addressed directory maps occupied blocks
// — 2^d neighbouring cells up to d = 3, one cell above — keyed by a
// 64-bit hash of their integer coordinates (verified against the
// coordinate arena on probe) to one id list per cell of the block,
// stored in pooled slabs. A probe three cells wide per axis always lies
// in two blocks per axis, so it costs 2^d hashed lookups. Linear
// probing over a power-of-two capacity keeps a lookup to one or two
// cache lines; the directory rebuilds — dropping blocks whose lists all
// emptied — when the load factor passes 3/4, so no tombstones are ever
// chased. AddPoint, RemovePoint, and the collects are allocation-free
// in steady state.
type Table struct {
	dims int
	inv  float64 // 1 / cellSize

	// shift turns a cell coordinate into its block coordinate
	// (c >> shift) and, being 0 or 1, is also the mask of the bit that
	// picks the cell inside the block: a block is 1 << (dims*shift)
	// cells.
	shift uint

	// stride is the length of one block record in the blocks arena:
	// dims coordinates, then the head slab of each cell's id list
	// (-1 = empty), two to a word. Coordinates and heads share the
	// record so that the line a lookup verifies is the line it reads
	// the heads from.
	stride int

	slots []slot
	mask  uint64
	used  int // slots holding a block, live or dead
	live  int // blocks with a non-empty id list

	blocks []int64 // block records, stride words each, indexed by slot.off
	slabs  []slab
	free   int32 // slab freelist head, -1 = empty

	// Probe and update scratch: cur is the block coordinates of AddPoint
	// and RemovePoint and the odometer row of a probe above blockDims,
	// lo and hi that probe's cell range. A probe writes them, so one
	// table takes one probe or update at a time.
	cur, lo, hi []int64
}

// minSlots is the initial directory capacity (power of two).
const minSlots = 64

// blockDims is the highest dimensionality whose cells are blocked: up
// to there a block's 2^d heads fit one cache line with its coordinates
// and its occupancy one byte. Above it a block is one cell.
const blockDims = 3

// New returns an empty grid over dims-dimensional space with the given
// cell side length. Any dims >= 1 is supported.
func New(dims int, cellSize float64) *Table {
	return NewCap(dims, cellSize, 0)
}

// NewCap is New with a capacity hint: the directory is pre-sized for
// about cells occupied cells, so a table filled right after it is made
// skips the doubling rebuilds.
// The hint is a point count, which says little about how many cells or
// blocks those points fall into, so the arenas are not sized from it:
// they double as they fill (grown).
func NewCap(dims int, cellSize float64, cells int) *Table {
	if dims < 1 {
		panic(fmt.Sprintf("grid: dims %d must be >= 1", dims))
	}
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		panic("grid: cell size must be positive and finite")
	}
	slots := minSlots
	for slots*3 < cells*4 { // size for load factor <= 3/4 at the hint
		slots *= 2
	}
	t := &Table{
		dims:  dims,
		inv:   1 / cellSize,
		slots: newSlots(slots),
		mask:  uint64(slots - 1),
		free:  -1,
		cur:   make([]int64, dims),
	}
	perBlock := 1
	if dims <= blockDims {
		t.shift, perBlock = 1, 1<<dims
	}
	t.stride = dims + (perBlock+1)/2
	return t
}

func newSlots(n int) []slot {
	slots := make([]slot, n)
	for i := range slots {
		slots[i].off = -1
	}
	return slots
}

// Dims returns the grid's dimensionality.
func (t *Table) Dims() int { return t.dims }

// cellIdx quantizes one coordinate to its cell index. Quantization is
// monotone, so the cell range of a box covers the home cell of every
// point inside it.
//
//sgb:allocfree
func (t *Table) cellIdx(x float64) int64 {
	return int64(math.Floor(x * t.inv))
}

// CellOf fills dst with the home cell of p and returns it (dst is
// reused when its capacity suffices).
func (t *Table) CellOf(p []float64, dst []int64) []int64 {
	dst = resizeCells(dst, t.dims)
	for i := 0; i < t.dims; i++ {
		dst[i] = t.cellIdx(p[i])
	}
	return dst
}

// RangeOfBox fills lo, hi with the inclusive cell range covered by the
// box [center-radius, center+radius] — the per-probe neighborhood of
// the finders — and returns them.
func (t *Table) RangeOfBox(center []float64, radius float64, lo, hi []int64) ([]int64, []int64) {
	lo, hi = resizeCells(lo, t.dims), resizeCells(hi, t.dims)
	for i := 0; i < t.dims; i++ {
		lo[i] = t.cellIdx(center[i] - radius)
		hi[i] = t.cellIdx(center[i] + radius)
	}
	return lo, hi
}

func resizeCells(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// Hashing: each block coordinate is folded into a running 64-bit state
// with a multiply + splitmix64 finalizer. The per-axis chaining is what
// lets the specialized d = 2/3 range loops hoist the partial hash of
// the outer coordinates out of the inner loop.

const hashSeed = 0x9AE16A3B2F90404F
const hashMul = 0x9E3779B97F4A7C15

//sgb:allocfree
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

//sgb:allocfree
func hashNext(h uint64, c int64) uint64 {
	return mix64(h + uint64(c)*hashMul)
}

// locate quantizes p to its home cell: the block's coordinates land in
// t.cur, its hash and the cell's index inside the block are returned.
// Axis k contributes bit k of the index, the low bit of its cell
// coordinate.
//
//sgb:allocfree
func (t *Table) locate(p []float64) (h uint64, sub int) {
	h = hashSeed
	for k := range t.cur {
		c := t.cellIdx(p[k])
		sub |= int(c&int64(t.shift)) << k
		c >>= t.shift
		t.cur[k] = c
		h = hashNext(h, c)
	}
	return h, sub
}

// findSlot locates the slot of block c (pre-hashed as h), or -1. The
// directory always keeps free slots (load factor <= 3/4), so the linear
// probe terminates.
//
//sgb:allocfree
func (t *Table) findSlot(h uint64, c []int64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			return -1
		}
		if s.hash == h && t.coordsEqual(s.off, c) {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

// findSlot1 / findSlot2 / findSlot3 are findSlot with the coordinate
// compare unrolled, so the d = 1/2/3 probe loops never materialize a
// coordinate slice.
//
//sgb:allocfree
func (t *Table) findSlot1(h uint64, x int64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			return -1
		}
		if s.hash == h && t.blocks[s.off] == x {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

//sgb:allocfree
func (t *Table) findSlot2(h uint64, x, y int64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			return -1
		}
		if s.hash == h {
			b := int(s.off)
			if t.blocks[b] == x && t.blocks[b+1] == y {
				return int32(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

//sgb:allocfree
func (t *Table) findSlot3(h uint64, x, y, z int64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			return -1
		}
		if s.hash == h {
			b := int(s.off)
			if t.blocks[b] == x && t.blocks[b+1] == y && t.blocks[b+2] == z {
				return int32(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

//sgb:allocfree
func (t *Table) coordsEqual(off int32, c []int64) bool {
	b := int(off)
	for k, v := range c {
		if t.blocks[b+k] != v {
			return false
		}
	}
	return true
}

// ensureSlot returns the slot of block c, creating it if absent. A
// rebuild may run first to keep the load factor below 3/4.
func (t *Table) ensureSlot(h uint64, c []int64) int32 {
	if (t.used+1)*4 > len(t.slots)*3 {
		t.rebuild()
	}
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			off := int32(len(t.blocks))
			t.blocks = append(grown(t.blocks, t.stride), c...)
			for k := t.dims; k < t.stride; k++ {
				t.blocks = append(t.blocks, -1) // two empty heads
			}
			*s = slot{hash: h, off: off}
			t.used++
			return int32(i)
		}
		if s.hash == h && t.coordsEqual(s.off, c) {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

// rebuild re-inserts every live block into a fresh directory,
// compacting the block arena and dropping dead blocks —
// deletion happens here, in bulk, instead of through per-slot
// tombstones. Capacity doubles only when the live blocks alone would
// keep the new directory more than half full, and the new arena holds
// that half.
func (t *Table) rebuild() {
	newCap := len(t.slots)
	for (t.live+1)*2 > newCap {
		newCap *= 2
	}
	slots := newSlots(newCap)
	blocks := make([]int64, 0, newCap/2*t.stride)
	mask := uint64(newCap - 1)
	for _, s := range t.slots {
		if s.off < 0 || s.occ == 0 {
			continue
		}
		off := int32(len(blocks))
		blocks = append(blocks, t.blocks[s.off:][:t.stride]...)
		i := s.hash & mask
		for slots[i].off >= 0 {
			i = (i + 1) & mask
		}
		slots[i] = slot{hash: s.hash, off: off, occ: s.occ}
	}
	t.slots, t.blocks, t.mask = slots, blocks, mask
	t.used = t.live
}

// grown returns s with room for n more elements. A full arena doubles,
// so a cold build copies it about once over in total; append's own
// growth, a quarter at a time, re-copied a 12 000-slab arena some
// twenty times, four times over.
func grown[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// allocSlab pops the freelist or grows the slab arena.
func (t *Table) allocSlab() int32 {
	if t.free >= 0 {
		i := t.free
		t.free = t.slabs[i].next
		return i
	}
	t.slabs = append(grown(t.slabs, 1), slab{})
	return int32(len(t.slabs) - 1)
}

// head returns the head slab of cell sub of the block at off, -1 for an
// empty list. Two heads share a word of the record, the even cell's in
// the low half.
//
//sgb:allocfree
func (t *Table) head(off int32, sub int) int32 {
	return int32(t.blocks[int(off)+t.dims+sub>>1] >> (sub & 1 * 32))
}

//sgb:allocfree
func (t *Table) setHead(off int32, sub int, h int32) {
	w := &t.blocks[int(off)+t.dims+sub>>1]
	sh := sub & 1 * 32
	*w = *w&^(0xFFFFFFFF<<sh) | int64(uint32(h))<<sh
}

// addToCell appends id to the id list of cell sub of the slot's block.
func (t *Table) addToCell(si int32, sub int, id int32) {
	s := &t.slots[si]
	head := t.head(s.off, sub)
	if head >= 0 {
		if sl := &t.slabs[head]; sl.n < slabIDs {
			sl.ids[sl.n] = id
			sl.n++
			return
		}
	} else {
		if s.occ == 0 {
			t.live++
		}
		s.occ |= 1 << sub
	}
	ns := t.allocSlab()
	t.slabs[ns] = slab{next: head, n: 1}
	t.slabs[ns].ids[0] = id
	t.setHead(s.off, sub, ns)
}

// removeFromCell deletes one occurrence of id from the id list of cell
// sub of the slot's block (order within a cell is not meaningful, so
// the hole is filled with the most recently added id). No-op when id is
// absent.
func (t *Table) removeFromCell(si int32, sub int, id int32) {
	s := &t.slots[si]
	head := t.head(s.off, sub)
	for cur := head; cur >= 0; cur = t.slabs[cur].next {
		sl := &t.slabs[cur]
		for k := sl.n - 1; k >= 0; k-- {
			if sl.ids[k] != id {
				continue
			}
			first := &t.slabs[head]
			sl.ids[k] = first.ids[first.n-1]
			first.n--
			if first.n == 0 {
				t.setHead(s.off, sub, first.next)
				if first.next < 0 {
					s.occ &^= 1 << sub
					if s.occ == 0 {
						t.live--
					}
				}
				first.next = t.free
				t.free = head
			}
			return
		}
	}
}

// appendCell appends the ids of the cell whose slab chain starts at cur
// to buf.
//
//sgb:allocfree
func (t *Table) appendCell(cur int32, buf []int32) []int32 {
	for cur >= 0 {
		sl := &t.slabs[cur]
		buf = append(buf, sl.ids[:sl.n]...)
		cur = sl.next
	}
	return buf
}

// AddPoint registers id in the home cell of p. d = 2/3 — every
// registration of the SQL workloads — run locate unrolled over scalars.
func (t *Table) AddPoint(p []float64, id int32) {
	switch t.dims {
	case 2:
		x, y := t.cellIdx(p[0]), t.cellIdx(p[1])
		t.cur[0], t.cur[1] = x>>1, y>>1
		h := hashNext(hashNext(hashSeed, x>>1), y>>1)
		t.addToCell(t.ensureSlot(h, t.cur), int(x&1|y&1<<1), id)
	case 3:
		x, y, z := t.cellIdx(p[0]), t.cellIdx(p[1]), t.cellIdx(p[2])
		t.cur[0], t.cur[1], t.cur[2] = x>>1, y>>1, z>>1
		h := hashNext(hashNext(hashNext(hashSeed, x>>1), y>>1), z>>1)
		t.addToCell(t.ensureSlot(h, t.cur), int(x&1|y&1<<1|z&1<<2), id)
	default:
		h, sub := t.locate(p)
		t.addToCell(t.ensureSlot(h, t.cur), sub, id)
	}
}

// RemovePoint unregisters id from the home cell of p — the inverse of
// AddPoint, used by the decremental paths when a point is deleted from
// the live set. It is a no-op if id is not present. A block whose lists
// all emptied turns dead and is dropped by the next rebuild;
// until then it answers probes with empty lists.
func (t *Table) RemovePoint(p []float64, id int32) {
	switch t.dims {
	case 2:
		x, y := t.cellIdx(p[0]), t.cellIdx(p[1])
		h := hashNext(hashNext(hashSeed, x>>1), y>>1)
		if si := t.findSlot2(h, x>>1, y>>1); si >= 0 {
			t.removeFromCell(si, int(x&1|y&1<<1), id)
		}
	case 3:
		x, y, z := t.cellIdx(p[0]), t.cellIdx(p[1]), t.cellIdx(p[2])
		h := hashNext(hashNext(hashNext(hashSeed, x>>1), y>>1), z>>1)
		if si := t.findSlot3(h, x>>1, y>>1, z>>1); si >= 0 {
			t.removeFromCell(si, int(x&1|y&1<<1|z&1<<2), id)
		}
	default:
		h, sub := t.locate(p)
		if si := t.findSlot(h, t.cur); si >= 0 {
			t.removeFromCell(si, sub, id)
		}
	}
}

// CollectBox appends the ids registered in the cells covered by the box
// [center-radius, center+radius] — the probe neighborhood — to buf.
// The d = 1/2/3 cases run as plain loop nests over scalar coordinates;
// higher dimensionalities walk an odometer over the table's scratch.
func (t *Table) CollectBox(center []float64, radius float64, buf []int32) []int32 {
	switch t.dims {
	case 1:
		return t.collect1(t.cellIdx(center[0]-radius), t.cellIdx(center[0]+radius), buf)
	case 2:
		return t.collect2(t.cellIdx(center[0]-radius), t.cellIdx(center[0]+radius),
			t.cellIdx(center[1]-radius), t.cellIdx(center[1]+radius), buf)
	case 3:
		return t.collect3(t.cellIdx(center[0]-radius), t.cellIdx(center[0]+radius),
			t.cellIdx(center[1]-radius), t.cellIdx(center[1]+radius),
			t.cellIdx(center[2]-radius), t.cellIdx(center[2]+radius), buf)
	default:
		t.lo, t.hi = t.RangeOfBox(center, radius, t.lo, t.hi)
		return t.collectN(t.lo, t.hi, buf)
	}
}

// CollectRange appends the ids registered in the inclusive cell range
// [lo, hi] to buf: CollectBox for a caller that worked the range out
// itself (RangeOfBox, CellOf) — the cell-by-cell closure of the SGB-All
// decremental path probes the cells around a whole cell's points, which
// no single center and radius describes.
func (t *Table) CollectRange(lo, hi []int64, buf []int32) []int32 {
	switch t.dims {
	case 1:
		return t.collect1(lo[0], hi[0], buf)
	case 2:
		return t.collect2(lo[0], hi[0], lo[1], hi[1], buf)
	case 3:
		return t.collect3(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2], buf)
	default:
		return t.collectN(lo, hi, buf)
	}
}

// Occupancy-mask patterns of one axis: the cells of a block whose
// coordinate on axis k is even (the block's low cell there) or odd.
// Cell index bit k is that parity, so they are the numbers below 8
// with bit k clear or set.
const (
	evenX, oddX = 0x55, 0xAA
	evenY, oddY = 0x33, 0xCC
	evenZ, oddZ = 0x0F, 0xF0
)

// axisMask returns the cells of block b that lie in the cell range
// [lo, hi] along one axis, as the union of that axis's even and odd
// patterns. The caller walks b over lo>>1 .. hi>>1, so the block's even
// cell 2b is never above hi and its odd cell 2b+1 never below lo.
//
//sgb:allocfree
func axisMask(b, lo, hi int64, even, odd uint8) uint8 {
	var m uint8
	if lo <= b<<1 {
		m = even
	}
	if hi >= b<<1|1 {
		m |= odd
	}
	return m
}

// appendBlock appends the ids of the cells of the slot's block that are
// occupied and selected by mask. A block none of whose occupied cells
// is in range costs no access beyond its slot.
//
//sgb:allocfree
func (t *Table) appendBlock(si int32, mask uint8, buf []int32) []int32 {
	s := &t.slots[si]
	for m := uint(s.occ & mask); m != 0; m &= m - 1 {
		buf = t.appendCell(t.head(s.off, bits.TrailingZeros(m)), buf)
	}
	return buf
}

// collect1 / collect2 / collect3 look up every block the cell range
// touches — two per axis when the range is three cells wide — and walk
// the lists of the block's cells inside the range.

func (t *Table) collect1(x0, x1 int64, buf []int32) []int32 {
	for bx := x0 >> 1; bx <= x1>>1; bx++ {
		if si := t.findSlot1(hashNext(hashSeed, bx), bx); si >= 0 {
			buf = t.appendBlock(si, axisMask(bx, x0, x1, evenX, oddX), buf)
		}
	}
	return buf
}

func (t *Table) collect2(x0, x1, y0, y1 int64, buf []int32) []int32 {
	for bx := x0 >> 1; bx <= x1>>1; bx++ {
		hx := hashNext(hashSeed, bx)
		mx := axisMask(bx, x0, x1, evenX, oddX)
		for by := y0 >> 1; by <= y1>>1; by++ {
			if si := t.findSlot2(hashNext(hx, by), bx, by); si >= 0 {
				buf = t.appendBlock(si, mx&axisMask(by, y0, y1, evenY, oddY), buf)
			}
		}
	}
	return buf
}

func (t *Table) collect3(x0, x1, y0, y1, z0, z1 int64, buf []int32) []int32 {
	for bx := x0 >> 1; bx <= x1>>1; bx++ {
		hx := hashNext(hashSeed, bx)
		mx := axisMask(bx, x0, x1, evenX, oddX)
		for by := y0 >> 1; by <= y1>>1; by++ {
			hy := hashNext(hx, by)
			mxy := mx & axisMask(by, y0, y1, evenY, oddY)
			for bz := z0 >> 1; bz <= z1>>1; bz++ {
				if si := t.findSlot3(hashNext(hy, bz), bx, by, bz); si >= 0 {
					buf = t.appendBlock(si, mxy&axisMask(bz, z0, z1, evenZ, oddZ), buf)
				}
			}
		}
	}
	return buf
}

// collectN walks the range with an odometer over t.cur. Above
// blockDims a block is one cell, so the cell coordinates it walks are
// block coordinates.
func (t *Table) collectN(lo, hi []int64, buf []int32) []int32 {
	c := t.cur
	copy(c, lo)
	for {
		h := uint64(hashSeed)
		for _, v := range c {
			h = hashNext(h, v)
		}
		if si := t.findSlot(h, c); si >= 0 {
			buf = t.appendBlock(si, 1, buf)
		}
		i := 0
		for ; i < len(c) && c[i] == hi[i]; i++ {
			c[i] = lo[i]
		}
		if i == len(c) {
			return buf
		}
		c[i]++
	}
}
