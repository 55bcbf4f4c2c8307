package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestL2Dist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{1, 1}, 2 * math.Sqrt2},
		{Point{0, 0, 0}, Point{1, 2, 2}, 3},
		{Point{5}, Point{2}, 3},
	}
	for _, c := range cases {
		if got := L2.Dist(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("L2(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestLInfDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 4},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 5}, Point{3, 4}, 5},
		{Point{0, 0, 0}, Point{1, -7, 2}, 7},
	}
	for _, c := range cases {
		if got := LInf.Dist(c.p, c.q); got != c.want {
			t.Errorf("LInf(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	L2.Dist(Point{1, 2}, Point{1, 2, 3})
}

func randPoint(r *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = r.Float64()*20 - 10
	}
	return p
}

// Property: the similarity predicate DistKey(p, q) <= EpsKey(eps)
// agrees with Dist(p, q) <= eps for both metrics (the key skips L2's
// square root; this proves the fast path is exact).
func TestWithinMatchesDist(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range []Metric{L2, LInf} {
		for i := 0; i < 2000; i++ {
			d := 1 + r.Intn(4)
			p, q := randPoint(r, d), randPoint(r, d)
			eps := r.Float64() * 15
			if got, want := m.DistKey(p, q) <= m.EpsKey(eps), m.Dist(p, q) <= eps; got != want {
				t.Fatalf("%v: DistKey(%v,%v) <= EpsKey(%v) is %v, dist = %v", m, p, q, eps, got, m.Dist(p, q))
			}
		}
	}
}

// Property: metric axioms — non-negativity, identity, symmetry, and the
// triangle inequality (Definition 1 of the paper).
func TestMetricAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, m := range []Metric{L2, LInf} {
		for i := 0; i < 2000; i++ {
			d := 1 + r.Intn(4)
			a, b, c := randPoint(r, d), randPoint(r, d), randPoint(r, d)
			if m.Dist(a, b) < 0 {
				t.Fatalf("%v: negative distance", m)
			}
			if m.Dist(a, a) != 0 {
				t.Fatalf("%v: d(a,a) != 0", m)
			}
			if math.Abs(m.Dist(a, b)-m.Dist(b, a)) > 1e-12 {
				t.Fatalf("%v: asymmetric", m)
			}
			if m.Dist(a, c) > m.Dist(a, b)+m.Dist(b, c)+1e-9 {
				t.Fatalf("%v: triangle inequality violated", m)
			}
		}
	}
}

func TestL2NeverExceedsLInfScaled(t *testing.T) {
	// L∞ ≤ L2 ≤ sqrt(d)·L∞ — the containment the ε-box filter relies on.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		d := 1 + r.Intn(4)
		p, q := randPoint(r, d), randPoint(r, d)
		linf, l2 := LInf.Dist(p, q), L2.Dist(p, q)
		if linf > l2+1e-12 {
			t.Fatalf("LInf %v > L2 %v", linf, l2)
		}
		if l2 > math.Sqrt(float64(d))*linf+1e-9 {
			t.Fatalf("L2 %v > sqrt(d)*LInf %v", l2, math.Sqrt(float64(d))*linf)
		}
	}
}

// TestDistKeyBoundsEveryAxis pins the fact SGB-All's rectangle test
// rests on under L2 (internal/core's classify): a pair within ε by the
// distance key is within ε on every axis, rounded difference by rounded
// difference. It holds because a float d > ε is at least ε's
// successor, whose square exceeds ε² by more than an ulp of it, so
// fl(d²) > fl(ε²), and the other axes' squares only add to the key.
// Checked for ε across the usable range (2^-511 up) at mantissas where
// the ulp ratio is tightest (near 1, √2 and 2), on random pairs whose
// first axis is a few ulps either side of ε apart, at d = 1, 2, 3, 5.
func TestDistKeyBoundsEveryAxis(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	mantissas := []float64{1, math.Nextafter(1, 2), math.Sqrt2, math.Nextafter(math.Sqrt2, 0), math.Nextafter(2, 0), 1.1, 1.7}
	for _, e := range []int{-511, -100, -3, 0, 1, 7, 100, 500} {
		for _, m := range append(mantissas, 1+r.Float64()) {
			eps := math.Ldexp(m, e)
			if next := math.Nextafter(eps, math.Inf(1)); L2.EpsKey(next) <= L2.EpsKey(eps) {
				t.Fatalf("ε = %v: its successor's key %v does not exceed its own %v", eps, L2.EpsKey(next), L2.EpsKey(eps))
			}
			for trial := 0; trial < 200; trial++ {
				d := []int{1, 2, 3, 5}[trial%4]
				p, q := make(Point, d), make(Point, d)
				for i := range p {
					p[i] = eps * (r.Float64() - 0.5) * 64
					q[i] = p[i] + eps*r.Float64()*0x1p-20
				}
				q[0] = p[0] + eps + float64(r.Intn(9)-4)*math.Ldexp(1, math.Ilogb(eps)-52)
				if L2.DistKey(p, q) > L2.EpsKey(eps) {
					continue
				}
				for i := range p {
					if math.Abs(p[i]-q[i]) > eps {
						t.Fatalf("ε = %v: p %v and q %v are within ε by the key, but %v apart on axis %d", eps, p, q, math.Abs(p[i]-q[i]), i)
					}
				}
			}
		}
	}
}

func TestEpsBox(t *testing.T) {
	b := EpsBox(Point{1, 2}, 3)
	if !b.Min.Equal(Point{-2, -1}) || !b.Max.Equal(Point{4, 5}) {
		t.Fatalf("EpsBox = %v", b)
	}
	// ε-box ≡ L∞ ball: membership in the box equals the L∞ predicate.
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		p, q := randPoint(r, 2), randPoint(r, 2)
		eps := r.Float64() * 10
		if got, want := EpsBox(p, eps).Contains(q), LInf.DistKey(p, q) <= LInf.EpsKey(eps); got != want {
			t.Fatalf("box containment %v != LInf within %v for p=%v q=%v eps=%v", got, want, p, q, eps)
		}
	}
}

func TestRectOps(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{4, 4})
	b := NewRect(Point{2, 2}, Point{6, 6})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("expected intersection")
	}
	i := a.Intersect(b)
	if !i.Min.Equal(Point{2, 2}) || !i.Max.Equal(Point{4, 4}) {
		t.Fatalf("Intersect = %v", i)
	}
	u := a.Union(b)
	if !u.Min.Equal(Point{0, 0}) || !u.Max.Equal(Point{6, 6}) {
		t.Fatalf("Union = %v", u)
	}
	far := NewRect(Point{10, 10}, Point{11, 11})
	if a.Intersects(far) {
		t.Fatal("unexpected intersection")
	}
	if !a.Intersect(far).IsEmpty() {
		t.Fatal("expected empty intersection")
	}
	if a.Area() != 16 || u.Area() != 36 {
		t.Fatalf("areas: %v %v", a.Area(), u.Area())
	}
	// Touching boundaries intersect (matches the ≤ predicate).
	touch := NewRect(Point{4, 0}, Point{8, 4})
	if !a.Intersects(touch) {
		t.Fatal("touching rects must intersect")
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	for _, c := range []struct {
		p  Point
		in bool
	}{
		{Point{1, 1}, true},
		{Point{0, 0}, true},
		{Point{2, 2}, true},
		{Point{2.0001, 1}, false},
		{Point{-0.0001, 1}, false},
	} {
		if got := r.Contains(c.p); got != c.in {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.in)
		}
	}
}

func TestRectExtend(t *testing.T) {
	r := PointRect(Point{1, 1})
	r.ExtendPoint(Point{3, 0})
	r.ExtendPoint(Point{-1, 2})
	if !r.Min.Equal(Point{-1, 0}) || !r.Max.Equal(Point{3, 2}) {
		t.Fatalf("Extend = %v", r)
	}
	s := NewRect(Point{0, 0}, Point{5, 5})
	r.Extend(s)
	if !r.Min.Equal(Point{-1, 0}) || !r.Max.Equal(Point{5, 5}) {
		t.Fatalf("Extend rect = %v", r)
	}
}

// Property via testing/quick: intersection is commutative and contained
// in both operands; union contains both operands.
func TestRectAlgebraQuick(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		norm := func(a, b float64) (float64, float64) {
			if a > b {
				return b, a
			}
			return a, b
		}
		ax, bx = norm(ax, bx)
		ay, by = norm(ay, by)
		cx, dx = norm(cx, dx)
		cy, dy = norm(cy, dy)
		r := NewRect(Point{ax, ay}, Point{bx, by})
		s := NewRect(Point{cx, cy}, Point{dx, dy})
		i1, i2 := r.Intersect(s), s.Intersect(r)
		if i1.IsEmpty() != i2.IsEmpty() {
			return false
		}
		if !i1.IsEmpty() && (!r.ContainsRect(i1) || !s.ContainsRect(i1)) {
			return false
		}
		u := r.Union(s)
		return u.ContainsRect(r) && u.ContainsRect(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
	r := NewRect(Point{0, 0}, Point{1, 1})
	s := r.Clone()
	s.Min[0] = -5
	if r.Min[0] != 0 {
		t.Fatal("Rect Clone aliases the original")
	}
}

func TestStringFormats(t *testing.T) {
	if got := (Point{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("Point.String = %q", got)
	}
	if got := L2.String(); got != "L2" {
		t.Errorf("L2.String = %q", got)
	}
	if got := LInf.String(); got != "LINF" {
		t.Errorf("LInf.String = %q", got)
	}
	if got := NewRect(Point{0}, Point{1}).String(); got != "[(0); (1)]" {
		t.Errorf("Rect.String = %q", got)
	}
}
