package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// cellIdxTest mirrors the quantization ZOrder applies.
func cellIdxTest(x, inv float64) int64 {
	return int64(math.Floor(x * inv))
}

// TestMortonRoundTrip: encode → decode is the identity for coordinates
// within the per-dimension bit budget, across dimensionalities
// including the formerly unsupported d > 4 range.
func TestMortonRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 8} {
		bits := mortonBits(d)
		limit := uint64(1) << bits
		if bits >= 63 {
			limit = 1 << 62
		}
		cells := make([]int64, d)
		back := make([]int64, d)
		for trial := 0; trial < 2000; trial++ {
			for i := range cells {
				cells[i] = int64(r.Uint64() % limit)
			}
			key := MortonKey(cells)
			mortonDecode(key, d, back)
			if !slices.Equal(cells, back) {
				t.Fatalf("d=%d: decode(encode(%v)) = %v (key %x)", d, cells, back, key)
			}
			if again := MortonKey(back); again != key {
				t.Fatalf("d=%d: re-encode %x != %x", d, again, key)
			}
		}
	}
}

// TestMortonFastPathsMatchGeneric pins the d = 2/3 bit-spread fast
// paths against the generic interleaving loop.
func TestMortonFastPathsMatchGeneric(t *testing.T) {
	generic := func(cells []int64) uint64 {
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
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		c2 := []int64{int64(r.Uint64() >> 32), int64(r.Uint64() >> 32)}
		if got, want := MortonKey(c2), generic(c2); got != want {
			t.Fatalf("d=2 %v: %x != %x", c2, got, want)
		}
		c3 := []int64{int64(r.Uint64() % (1 << 21)), int64(r.Uint64() % (1 << 21)), int64(r.Uint64() % (1 << 21))}
		if got, want := MortonKey(c3), generic(c3); got != want {
			t.Fatalf("d=3 %v: %x != %x", c3, got, want)
		}
	}
}

// TestMortonKeyLocality: within one quadrant-aligned block, every key
// of the block precedes every key outside it along the same axis —
// the prefix property of the Z-curve the layout optimization relies
// on (spot-checked on power-of-two blocks).
func TestMortonKeyLocality(t *testing.T) {
	// All cells of the 2-D block [0,4)² must sort before any cell with
	// a coordinate ≥ 4 whose other coordinate is < 4... in Z-order the
	// [0,4)² block occupies one contiguous key range.
	var blockMax, outsideMin uint64 = 0, ^uint64(0)
	for x := int64(0); x < 8; x++ {
		for y := int64(0); y < 8; y++ {
			k := MortonKey([]int64{x, y})
			if x < 4 && y < 4 {
				if k > blockMax {
					blockMax = k
				}
			} else if k < outsideMin {
				outsideMin = k
			}
		}
	}
	if blockMax >= outsideMin {
		t.Fatalf("Z-order block not contiguous: blockMax %d >= outsideMin %d", blockMax, outsideMin)
	}
}

// TestZOrderSort: Sort returns a permutation with its keys, the keys
// are the points' normalized Morton keys and never decrease, and equal
// keys keep ascending input order — the order internal/partition cuts
// its runs from.
func TestZOrderSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 40; trial++ {
			n := 2 + r.Intn(300)
			ps := NewPointSetCap(d, n)
			for i := 0; i < n; i++ {
				p := ps.Extend()
				for j := range p {
					p[j] = r.Float64()*40 - 20
				}
			}
			cellSize := 0.25 + r.Float64()
			perm, keys := NewZOrder(ps, cellSize).Sort()
			if len(perm) != n || len(keys) != n {
				t.Fatalf("d=%d: %d ids and %d keys, want %d", d, len(perm), len(keys), n)
			}
			seen := make([]bool, n)
			for _, v := range perm {
				if v < 0 || int(v) >= n || seen[v] {
					t.Fatalf("d=%d: not a permutation: %v", d, perm)
				}
				seen[v] = true
			}
			want := mortonKeysOf(ps, cellSize)
			for k, id := range perm {
				if keys[k] != want[id] {
					t.Fatalf("d=%d: key %d of point %d, want %d", d, keys[k], id, want[id])
				}
				if k == 0 {
					continue
				}
				if keys[k-1] > keys[k] || (keys[k-1] == keys[k] && perm[k-1] > id) {
					t.Fatalf("d=%d: not sorted by (key, index) at %d", d, k)
				}
			}
		}
	}
}

// mortonKeysOf recomputes the normalized Morton keys the same way
// ZOrder does on an input no axis of which needs coarsening, for
// verification.
func mortonKeysOf(ps *PointSet, cellSize float64) []uint64 {
	n, d := ps.Len(), ps.Dims()
	inv := 1 / cellSize
	mins := make([]int64, d)
	for j := 0; j < d; j++ {
		mins[j] = int64(1) << 62
		for i := 0; i < n; i++ {
			if c := cellIdxTest(ps.At(i)[j], inv); c < mins[j] {
				mins[j] = c
			}
		}
	}
	keys := make([]uint64, n)
	cells := make([]int64, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			cells[j] = cellIdxTest(ps.At(i)[j], inv) - mins[j]
		}
		keys[i] = MortonKey(cells)
	}
	return keys
}

// FuzzMortonRoundTrip fuzzes the encode/decode pair at d = 2 and 3.
func FuzzMortonRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(2), uint64(3))
	f.Add(^uint64(0), uint64(1)<<40, uint64(12345))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		c2 := []int64{int64(a & 0xFFFFFFFF), int64(b & 0xFFFFFFFF)}
		back2 := make([]int64, 2)
		mortonDecode(MortonKey(c2), 2, back2)
		if back2[0] != c2[0] || back2[1] != c2[1] {
			t.Fatalf("d=2 round trip %v -> %v", c2, back2)
		}
		c3 := []int64{int64(a % (1 << 21)), int64(b % (1 << 21)), int64(c % (1 << 21))}
		back3 := make([]int64, 3)
		mortonDecode(MortonKey(c3), 3, back3)
		if back3[0] != c3[0] || back3[1] != c3[1] || back3[2] != c3[2] {
			t.Fatalf("d=3 round trip %v -> %v", c3, back3)
		}
	})
}

// TestZOrderKeyBoundsBox pins the property internal/partition's
// frontier test rests on: every point of the set inside the box
// p ± r has a key between Key(p, −r) and Key(p, r) — also on an axis
// wider than the key has bits for, which is keyed in coarser cells
// instead of aliasing.
func TestZOrderKeyBoundsBox(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 3, 4, 5} {
		ps := NewPointSetCap(d, 400)
		for i := 0; i < 400; i++ {
			p := ps.Extend()
			for j := range p {
				p[j] = r.Float64()*20 - 10
			}
			if d == 4 {
				p[0] *= 1 << 14 // 2^18 cells of 0.5: past 16 bits
			}
		}
		z := NewZOrder(ps, 0.5)
		if d == 4 && z.axes[0].shift == 0 {
			t.Fatal("d=4: a 2^18-cell axis must be keyed in coarser cells")
		}
		for trial := 0; trial < 200; trial++ {
			c := ps.At(r.Intn(ps.Len()))
			rad := r.Float64() * 3
			if d == 4 {
				rad *= 1 << 12
			}
			lo, hi := z.Key(c, -rad), z.Key(c, rad)
			for i := 0; i < ps.Len(); i++ {
				inside := true
				for j, v := range ps.At(i) {
					inside = inside && v >= c[j]-rad && v <= c[j]+rad
				}
				if k := z.Key(ps.At(i), 0); inside && (k < lo || k > hi) {
					t.Fatalf("d=%d: key %d of a point in the box lies outside [%d, %d]", d, k, lo, hi)
				}
			}
		}
	}
}
