package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPointSetBasics(t *testing.T) {
	ps := NewPointSet(3)
	if ps.Len() != 0 || ps.Dims() != 3 {
		t.Fatalf("empty set: Len=%d Dims=%d", ps.Len(), ps.Dims())
	}
	ps.AppendPoint(Point{1, 2, 3})
	dst := ps.Extend()
	dst[0], dst[1], dst[2] = 4, 5, 6
	if ps.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ps.Len())
	}
	if !ps.At(0).Equal(Point{1, 2, 3}) || !ps.At(1).Equal(Point{4, 5, 6}) {
		t.Fatalf("At views wrong: %v %v", ps.At(0), ps.At(1))
	}
	pts := ps.Points()
	if len(pts) != 2 || !pts[1].Equal(Point{4, 5, 6}) {
		t.Fatalf("Points() = %v", pts)
	}
}

func TestFromPointsCopies(t *testing.T) {
	in := []Point{{1, 2}, {3, 4}, {5, 6}}
	ps := FromPoints(in)
	if ps.Len() != 3 || ps.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d", ps.Len(), ps.Dims())
	}
	for i := range in {
		if !ps.At(i).Equal(in[i]) {
			t.Fatalf("At(%d) = %v, want %v", i, ps.At(i), in[i])
		}
	}
	if FromPoints(nil).Len() != 0 {
		t.Fatal("FromPoints(nil) not empty")
	}
}

// TestFromPointsZeroCopy: points sliced from one flat buffer are
// adopted without copying.
func TestFromPointsZeroCopy(t *testing.T) {
	flat := []float64{1, 2, 3, 4, 5, 6}
	in := []Point{flat[0:2], flat[2:4], flat[4:6]}
	ps := FromPoints(in)
	if &ps.At(0)[0] != &flat[0] || &ps.At(2)[0] != &flat[4] {
		t.Fatal("expected the flat buffer to be adopted zero-copy")
	}

	// Same coordinates from separate allocations must be copied, not
	// aliased.
	sep := []Point{{1, 2}, {3, 4}, {5, 6}}
	ps2 := FromPoints(sep)
	if &ps2.At(1)[0] == &sep[1][0] {
		t.Fatal("separately allocated points must be copied")
	}
}

func TestWrap(t *testing.T) {
	ps := Wrap(2, []float64{1, 2, 3, 4})
	if ps.Len() != 2 || !ps.At(1).Equal(Point{3, 4}) {
		t.Fatalf("Wrap: %v", ps.At(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap accepted a ragged buffer")
		}
	}()
	Wrap(2, []float64{1, 2, 3})
}

// TestKernelEquivalence: the unrolled d=2/d=3 kernels must agree with a
// straightforward reference implementation on random inputs, including
// the boundary δ = ε exactly.
func TestKernelEquivalence(t *testing.T) {
	refDist := func(m Metric, p, q Point) float64 {
		switch m {
		case L2:
			var s float64
			for i := range p {
				d := p[i] - q[i]
				s += d * d
			}
			return math.Sqrt(s)
		default:
			var mx float64
			for i := range p {
				if d := math.Abs(p[i] - q[i]); d > mx {
					mx = d
				}
			}
			return mx
		}
	}
	r := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 4, 7} {
		for _, m := range []Metric{L2, LInf} {
			for trial := 0; trial < 200; trial++ {
				p := make(Point, d)
				q := make(Point, d)
				for i := 0; i < d; i++ {
					p[i] = r.Float64()*20 - 10
					q[i] = r.Float64()*20 - 10
				}
				if got, want := m.Dist(p, q), refDist(m, p, q); got != want {
					t.Fatalf("d=%d %v: Dist=%v want %v", d, m, got, want)
				}
				eps := r.Float64() * 15
				if got, want := m.Within(p, q, eps), m.Dist(p, q) <= eps; got != want {
					t.Fatalf("d=%d %v eps=%v: Within=%v Dist=%v", d, m, eps, got, m.Dist(p, q))
				}
				// Exact-boundary case: a point at distance exactly ε
				// along one axis must be within (zero origin keeps the
				// difference exactly representable).
				z := make(Point, d)
				b := make(Point, d)
				b[0] = eps
				if !m.Within(z, b, eps) {
					t.Fatalf("d=%d %v: boundary δ=ε not within", d, m)
				}
				// Non-finite coordinates must decide exactly like the
				// reference loops regardless of dimensionality (the
				// unrolled kernels must not invert NaN comparisons).
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					n := q.Clone()
					n[d-1] = bad
					if got, want := m.Dist(p, n), refDist(m, p, n); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("d=%d %v coord=%v: Dist=%v want %v", d, m, bad, got, want)
					}
					refWithin := true
					for i := range p {
						if math.Abs(p[i]-n[i]) > eps && m == LInf {
							refWithin = false
						}
					}
					if m == L2 {
						var s float64
						for i := range p {
							dd := p[i] - n[i]
							s += dd * dd
						}
						refWithin = s <= eps*eps
					}
					if got := m.Within(p, n, eps); got != refWithin {
						t.Fatalf("d=%d %v coord=%v: Within=%v want %v", d, m, bad, got, refWithin)
					}
				}
			}
		}
	}
}

func TestPointSetDistWithin(t *testing.T) {
	ps := FromPoints([]Point{{0, 0}, {3, 4}})
	if got := ps.Dist(L2, 0, 1); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if !ps.Within(L2, 0, 1, 5) || ps.Within(L2, 0, 1, 4.999) {
		t.Fatal("Within thresholds wrong")
	}
	if got := ps.Dist(LInf, 0, 1); got != 4 {
		t.Fatalf("LInf Dist = %v, want 4", got)
	}
}

func TestEpsBoxIntoAndShrink(t *testing.T) {
	var box Rect
	EpsBoxInto(&box, Point{1, 2}, 0.5)
	if !box.Min.Equal(Point{0.5, 1.5}) || !box.Max.Equal(Point{1.5, 2.5}) {
		t.Fatalf("EpsBoxInto: %v", box)
	}
	// Reuse must not reallocate the corners.
	min0 := &box.Min[0]
	EpsBoxInto(&box, Point{3, 3}, 1)
	if &box.Min[0] != min0 {
		t.Fatal("EpsBoxInto reallocated matching-dims corners")
	}

	r := EpsBox(Point{0, 0}, 2)
	r.ShrinkToEpsBox(Point{1, 1}, 2)
	want := EpsBox(Point{0, 0}, 2).Intersect(EpsBox(Point{1, 1}, 2))
	if !r.Min.Equal(want.Min) || !r.Max.Equal(want.Max) {
		t.Fatalf("ShrinkToEpsBox = %v, want %v", r, want)
	}
}

func TestGather(t *testing.T) {
	ps := NewPointSet(2)
	for i := 0; i < 5; i++ {
		ps.AppendPoint(Point{float64(i), float64(i) * 10})
	}
	sub := ps.Gather([]int32{4, 0, 2})
	if sub.Len() != 3 || sub.Dims() != 2 {
		t.Fatalf("gathered %d points of dim %d", sub.Len(), sub.Dims())
	}
	for k, want := range []int{4, 0, 2} {
		if !sub.At(k).Equal(ps.At(want)) {
			t.Fatalf("gathered point %d = %v, want copy of %v", k, sub.At(k), ps.At(want))
		}
	}
	// The gather owns its storage: mutating the source must not leak in.
	ps.At(4)[0] = -99
	if sub.At(0)[0] == -99 {
		t.Fatal("Gather aliases the source buffer")
	}
	if empty := ps.Gather(nil); empty.Len() != 0 {
		t.Fatal("empty gather should have no points")
	}
}
