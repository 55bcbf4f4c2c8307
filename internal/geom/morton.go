package geom

import (
	"math"
	"math/bits"
)

// Z-order (Morton order): sorting a PointSet by the interleaved bits of
// its cell coordinates places points of neighboring cells next to each
// other, so a cut of the sorted order into runs yields compact tiles
// (internal/partition). Consumers keep the input order's ids: the
// permutation only says in which order to visit them.

// mortonBits returns the bits of precision per dimension that fit one
// 64-bit key. Above 64 dimensions an axis gets one bit, and the axes
// past the 64th drop out of the key (MortonKey shifts them off).
func mortonBits(d int) uint {
	return uint(max(1, 64/d))
}

// MortonKey interleaves the low mortonBits(d) bits of each of the d cell
// coordinates into a single Z-order key: bit b of coordinate i lands at
// key position b*d + i. Coordinates are expected to be non-negative and
// within the budget (ZOrder normalizes and coarsens them so); higher
// bits are dropped. Within the budget the key grows with every
// coordinate.
func MortonKey(cells []int64) uint64 {
	switch len(cells) {
	case 1:
		return uint64(cells[0])
	case 2:
		return spread2(uint64(cells[0])) | spread2(uint64(cells[1]))<<1
	case 3:
		return spread3(uint64(cells[0])) | spread3(uint64(cells[1]))<<1 | spread3(uint64(cells[2]))<<2
	}
	d := len(cells)
	bits := mortonBits(d)
	var key uint64
	for i, c := range cells {
		u := uint64(c) & (1<<bits - 1)
		for b := uint(0); b < bits; b++ {
			key |= (u >> b & 1) << (b*uint(d) + uint(i))
		}
	}
	return key
}

// mortonDecode is the inverse of MortonKey for coordinates within the
// per-dimension bit budget; the round-trip property tests pin the pair
// against each other.
func mortonDecode(key uint64, d int, cells []int64) {
	bits := mortonBits(d)
	for i := 0; i < d; i++ {
		var u uint64
		for b := uint(0); b < bits; b++ {
			u |= (key >> (b*uint(d) + uint(i)) & 1) << b
		}
		cells[i] = int64(u)
	}
}

// spread2 spaces the low 32 bits of x to the even bit positions.
func spread2(x uint64) uint64 {
	x &= 0xFFFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// spread3 spaces the low 21 bits of x to every third bit position.
func spread3(x uint64) uint64 {
	x &= 0x1FFFFF
	x = (x | x<<32) & 0x1F00000000FFFF
	x = (x | x<<16) & 0x1F0000FF0000FF
	x = (x | x<<8) & 0x100F00F00F00F00F
	x = (x | x<<4) & 0x10C30C30C30C30C3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// ZOrder is the Z-order of one PointSet's cells, which
// internal/partition cuts its runs from. A point's cell on axis k is
// floor(x / cellSize), normalized against the set's smallest cell on
// that axis; an axis spanning more cells than the key has bits for
// (mortonBits) is keyed in coarser cells, 2^shift of its cells to one,
// with the smallest shift that fits. So the key never aliases, and it
// never decreases when a coordinate grows: every cell of an
// axis-aligned box has a key between those of the box's corners.
type ZOrder struct {
	ps    *PointSet
	inv   float64
	axes  []zAxis
	cells []int64 // Key's scratch
}

// zAxis is one axis of a ZOrder: its smallest cell, its largest cell
// normalized (cell − lo), and its coarsening (key cell = normalized
// cell >> shift).
type zAxis struct {
	lo, hi int64
	shift  uint
}

// NewZOrder returns the Z-order of ps's cellSize-cells. cellSize must
// be positive.
func NewZOrder(ps *PointSet, cellSize float64) *ZOrder {
	d := ps.Dims()
	z := &ZOrder{ps: ps, inv: 1 / cellSize, axes: make([]zAxis, d), cells: make([]int64, d)}
	if ps.Len() == 0 {
		return z
	}
	// Floor is monotone, so the extreme cells are the extreme
	// coordinates' cells.
	ext := make([]float64, 2*d) // per axis: smallest, largest coordinate
	for k, v := range ps.At(0) {
		ext[2*k], ext[2*k+1] = v, v
	}
	for i := d; i < len(ps.data); i += d {
		for k, v := range ps.data[i : i+d] {
			if v < ext[2*k] {
				ext[2*k] = v
			} else if v > ext[2*k+1] {
				ext[2*k+1] = v
			}
		}
	}
	budget := int(mortonBits(d))
	for k := range z.axes {
		a := &z.axes[k]
		a.lo = int64(math.Floor(ext[2*k] * z.inv))
		a.hi = int64(math.Floor(ext[2*k+1]*z.inv)) - a.lo
		a.shift = uint(max(0, bits.Len64(uint64(a.hi))-budget))
	}
	return z
}

// Key returns the key of the cell holding p shifted by off on every
// axis, the cell clamped into the set's extent (cells outside it hold
// no point of the set). Key(p, 0) of a point of the set is its own
// cell's key; Key(p, −r) and Key(p, r) bound the keys of every cell
// p's r-box covers.
func (z *ZOrder) Key(p Point, off float64) uint64 {
	for k, x := range p {
		a := &z.axes[k]
		c := min(max(int64(math.Floor((x+off)*z.inv))-a.lo, 0), a.hi)
		z.cells[k] = c >> a.shift
	}
	return MortonKey(z.cells)
}

// Sort returns the set's points in Z-order, perm[k] being the input
// index of the k-th point and keys[k] its key. Key ties (one cell)
// break by input index, so the order is deterministic.
func (z *ZOrder) Sort() (perm []int32, keys []uint64) {
	n := z.ps.Len()
	perm, keys = make([]int32, n), make([]uint64, n)
	for i := range perm {
		perm[i], keys[i] = int32(i), z.Key(z.ps.At(i), 0)
	}
	sortByKey(keys, perm)
	return perm, keys
}

// sortByKey sorts keys ascending and carries perm along — an LSD radix
// sort over the key bytes, stable, so equal keys keep perm's order. A
// byte that no two keys differ in costs no pass.
func sortByKey(keys []uint64, perm []int32) {
	if len(keys) < 2 {
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or, and = or|k, and&k
	}
	varying := or ^ and
	src, dst := keys, make([]uint64, len(keys))
	srcP, dstP := perm, make([]int32, len(perm))
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if varying>>shift&0xFF == 0 {
			continue
		}
		clear(counts[:])
		for _, k := range src {
			counts[k>>shift&0xFF]++
		}
		pos := 0
		for b, c := range counts {
			counts[b], pos = pos, pos+c
		}
		for i, k := range src {
			b := k >> shift & 0xFF
			dst[counts[b]], dstP[counts[b]] = k, srcP[i]
			counts[b]++
		}
		src, dst, srcP, dstP = dst, src, dstP, srcP
	}
	if &src[0] != &keys[0] { // an odd number of passes ended in the scratch
		copy(keys, src)
		copy(perm, srcP)
	}
}
