package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// distKeyDims are the dimensionalities the key kernel is held to: the
// unrolled arms (2, 3) and the generic fallback on either side.
var distKeyDims = []int{1, 2, 3, 4, 6}

// checkDistKeys holds AppendDistKeys to DistKey bit for bit for every
// ordered pair of ps, appending behind a prefix that must survive.
func checkDistKeys(t *testing.T, ps *PointSet, m Metric) {
	t.Helper()
	ids := make([]int32, ps.Len())
	for j := range ids {
		ids[j] = int32(len(ids) - 1 - j) // not in storage order
	}
	prefix := []float64{-1, math.Copysign(0, -1)}
	for i := 0; i < ps.Len(); i++ {
		got := ps.AppendDistKeys(append([]float64(nil), prefix...), m, ps.At(i), ids)
		if len(got) != len(prefix)+len(ids) {
			t.Fatalf("d=%d %v: %d keys for %d ids", ps.Dims(), m, len(got)-len(prefix), len(ids))
		}
		for k, v := range prefix {
			if math.Float64bits(got[k]) != math.Float64bits(v) {
				t.Fatalf("d=%d %v: prefix[%d] overwritten: %v", ps.Dims(), m, k, got[k])
			}
		}
		for k, j := range ids {
			want := ps.DistKey(m, i, int(j))
			if g := got[len(prefix)+k]; math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("d=%d %v: key(%v, %v) = %v (%#x), DistKey %v (%#x)",
					ps.Dims(), m, ps.At(i), ps.At(int(j)), g, math.Float64bits(g), want, math.Float64bits(want))
			}
		}
	}
}

// distKeySets returns the coordinate families the kernel must key
// exactly at dimensionality d: uniform reals, lattice-aligned values
// k/2^m, signed zeros, magnitudes near the ε-grid's quantization limit
// (2^52 ε-cells, checkCoords in core), and pairs placed exactly at
// distance ε along one axis, whose key equals EpsKey(ε).
func distKeySets(r *rand.Rand, d int) map[string]*PointSet {
	sets := map[string]*PointSet{}
	fill := func(name string, n int, coord func(i, c int) float64) {
		ps := NewPointSet(d)
		for i := 0; i < n; i++ {
			p := ps.Extend()
			for c := range p {
				p[c] = coord(i, c)
			}
		}
		sets[name] = ps
	}
	fill("uniform", 24, func(int, int) float64 { return r.Float64()*20 - 10 })
	fill("lattice", 24, func(int, int) float64 { return float64(r.Intn(33)-16) / float64(int(1)<<r.Intn(6)) })
	fill("zeros", 8, func(i, c int) float64 {
		if (i>>c)&1 == 1 {
			return math.Copysign(0, -1)
		}
		return 0
	})
	for _, eps := range []float64{1e-3, 1, 1e3} {
		limit := eps * (1 << 52)
		fill("far/eps="+strconv.FormatFloat(eps, 'g', -1, 64), 16, func(int, int) float64 {
			return (r.Float64()*2 - 1) * limit
		})
	}
	for _, eps := range []float64{0.25, 0.375, 1.5} {
		fill("ontheedge/eps="+strconv.FormatFloat(eps, 'g', -1, 64), 16, func(i, c int) float64 {
			base := float64(i/2) / 8 // lattice-aligned, so p ± ε is exact
			if i%2 == 1 && c == (i/2)%d {
				return base + eps
			}
			return base
		})
	}
	return sets
}

// TestAppendDistKeysExact: the probe's key kernel returns DistKey's
// bits at every dimensionality and metric, on every coordinate family —
// a kernel loop that reassociates a sum (say a 3-D L2 one) fails here.
func TestAppendDistKeysExact(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for _, d := range distKeyDims {
		for name, ps := range distKeySets(r, d) {
			for _, m := range []Metric{L2, LInf} {
				t.Run(name, func(t *testing.T) { checkDistKeys(t, ps, m) })
			}
		}
	}
}

// TestAppendDistKeysOnTheEdge: the on-the-edge pairs really sit at
// their level's key, so the exactness test covers keys equal to
// EpsKey(ε), where a kernel differing in the last bit would flip a
// level.
func TestAppendDistKeysOnTheEdge(t *testing.T) {
	for _, d := range distKeyDims {
		for _, eps := range []float64{0.25, 0.375, 1.5} {
			ps := NewPointSet(d)
			p := ps.Extend()
			p[0] = 0.125
			q := ps.Extend()
			copy(q, p)
			q[d-1] += eps
			for _, m := range []Metric{L2, LInf} {
				keys := ps.AppendDistKeys(nil, m, ps.At(0), []int32{1, 0})
				if keys[0] != m.EpsKey(eps) || keys[1] != 0 {
					t.Fatalf("d=%d %v ε=%v: keys %v, want [%v 0]", d, m, eps, keys, m.EpsKey(eps))
				}
			}
		}
	}
}

// TestAppendDistKeysEmpty: no ids append nothing, under any metric.
func TestAppendDistKeysEmpty(t *testing.T) {
	ps := FromPoints([]Point{{1, 2}})
	if got := ps.AppendDistKeys(nil, Metric(99), ps.At(0), nil); len(got) != 0 {
		t.Fatalf("keys for no ids: %v", got)
	}
}

// FuzzDistKeys holds AppendDistKeys to DistKey bit for bit over points
// read from the fuzz input: the first byte picks the dimensionality and
// metric, the rest are little-endian float64 coordinates (non-finite
// ones, which no operator admits, are dropped).
func FuzzDistKeys(f *testing.F) {
	r := rand.New(rand.NewSource(3501))
	for di, d := range distKeyDims {
		for mi := 0; mi < 2; mi++ {
			for _, ps := range distKeySets(r, d) {
				b := []byte{byte(di<<1 | mi)}
				for _, v := range ps.Data()[:min(len(ps.Data()), 8*d)] {
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
				}
				f.Add(b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 1 {
			return
		}
		d := distKeyDims[int(b[0]>>1)%len(distKeyDims)]
		m := []Metric{L2, LInf}[b[0]&1]
		var data []float64
		for b = b[1:]; len(b) >= 8 && len(data) < 16*d; b = b[8:] {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(b)); !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		checkDistKeys(t, Wrap(d, data[:len(data)/d*d]), m)
	})
}
