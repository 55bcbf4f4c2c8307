package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in d-dimensional space. Points are immutable by
// convention: operators never modify a caller's coordinates.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String formats the point as "(x1, x2, ...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Metric identifies a Minkowski distance function δ (Definition 1).
type Metric int

const (
	// L2 is the Euclidean distance δ2(p,q) = sqrt(Σ (p_y - q_y)²).
	L2 Metric = iota
	// LInf is the maximum distance δ∞(p,q) = max_y |p_y - q_y|.
	LInf
)

// String returns the SQL keyword for the metric ("L2" or "LINF").
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case LInf:
		return "LINF"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Dist computes δ(p, q) under the metric: DistKey mapped back to a
// distance (keyToDist). Panics if dimensions differ; mixing
// dimensionalities is a programming error, not a data error.
func (m Metric) Dist(p, q Point) float64 {
	return m.keyToDist(m.DistKey(p, q))
}

// keyToDist maps a comparison key back to the distance it keys: the
// square root under L2, the key itself under L∞.
//
//sgb:allocfree
func (m Metric) keyToDist(key float64) float64 {
	if m == L2 {
		return math.Sqrt(key)
	}
	return key
}

// DistKey returns the comparison key of the similarity predicate
// ξδ,ε(p, q) (Definition 2), δ(p, q) ≤ ε, which is decided as
// DistKey(p, q) <= EpsKey(ε). The key is the squared distance for L2
// (no square root, which could round a distance just past ε onto it)
// and the maximum coordinate difference for L∞; keys order exactly as
// distances do. It is the one membership test of both operators:
// SGB-All compares against its ε's key, and SGB-Any's level forests
// against each level's EpsKey, so every level reproduces a one-shot
// grouping exactly.
func (m Metric) DistKey(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	return m.distKeyCoords(p, q)
}

// distKeyCoords is DistKey over raw coordinate slices of equal length,
// unrolled for d=2/d=3 (the paper's target dimensionalities; the
// unrolled bodies keep the loop counter and bounds checks out of the
// innermost kernel). The L2 accumulation order matches the generic
// loop, so the unrolled kernels decide every boundary case the same
// way bit-for-bit; the L∞ ones keep the generic loop's comparison
// shape (d > mx, never math.Max), so non-finite coordinates decide
// identically at every dimensionality.
//
//sgb:allocfree
func (m Metric) distKeyCoords(p, q []float64) float64 {
	switch m {
	case L2:
		switch len(p) {
		case 2:
			dx := p[0] - q[0]
			dy := p[1] - q[1]
			return dx*dx + dy*dy
		case 3:
			dx := p[0] - q[0]
			dy := p[1] - q[1]
			dz := p[2] - q[2]
			return dx*dx + dy*dy + dz*dz
		}
		var s float64
		for i := range p {
			d := p[i] - q[i]
			s += d * d
		}
		return s
	case LInf:
		switch len(p) {
		case 2:
			var mx float64
			if d := math.Abs(p[0] - q[0]); d > mx {
				mx = d
			}
			if d := math.Abs(p[1] - q[1]); d > mx {
				mx = d
			}
			return mx
		case 3:
			var mx float64
			if d := math.Abs(p[0] - q[0]); d > mx {
				mx = d
			}
			if d := math.Abs(p[1] - q[1]); d > mx {
				mx = d
			}
			if d := math.Abs(p[2] - q[2]); d > mx {
				mx = d
			}
			return mx
		}
		var mx float64
		for i := range p {
			d := math.Abs(p[i] - q[i])
			if d > mx {
				mx = d
			}
		}
		return mx
	default:
		panic("geom: unknown metric")
	}
}

// EpsKey maps a similarity threshold into DistKey's comparison space:
// eps*eps for L2 and eps unchanged for L∞.
//
//sgb:allocfree
func (m Metric) EpsKey(eps float64) float64 {
	if m == L2 {
		return eps * eps
	}
	return eps
}

// Rect is an axis-aligned d-dimensional rectangle given by its lower
// (Min) and upper (Max) corners. A Rect is valid when Min[i] <= Max[i]
// in every dimension; an "empty" rectangle (from an intersection that
// vanished) has Min[i] > Max[i] in at least one dimension.
type Rect struct {
	Min, Max Point
}

// NewRect returns a rectangle with the given corners. It panics when
// the corner dimensionalities differ.
func NewRect(min, max Point) Rect {
	if len(min) != len(max) {
		panic("geom: rect corner dimension mismatch")
	}
	return Rect{Min: min, Max: max}
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// EpsBox returns the ε-box of p: [p_i - eps, p_i + eps] in every
// dimension. Under L∞ this is exactly the set of points within eps of p;
// under L2 it is a conservative superset (the circumscribing box of the
// ε-ball), which is what the filter step of the paper's filter-refine
// paradigm relies on.
func EpsBox(p Point, eps float64) Rect {
	min := make(Point, len(p))
	max := make(Point, len(p))
	for i, v := range p {
		min[i] = v - eps
		max[i] = v + eps
	}
	return Rect{Min: min, Max: max}
}

// EpsBoxInto fills dst with the ε-box of p, reusing dst's corner
// storage when the dimensionalities already match — the allocation-free
// variant of EpsBox for per-probe scratch rectangles.
func EpsBoxInto(dst *Rect, p Point, eps float64) {
	if len(dst.Min) != len(p) {
		dst.Min = make(Point, len(p))
		dst.Max = make(Point, len(p))
	}
	for i, v := range p {
		dst.Min[i] = v - eps
		dst.Max[i] = v + eps
	}
}

// PaddedReach widens a probe radius by what rounding can hide. That
// everything within reach of p lies in the cells of p ± reach is exact
// over the reals, but the filters compare against ROUNDED box corners
// (fl(a-ε) ≤ p, fl(a-ε) ≤ fl(p+ε), ...), so a point may sit a few ulps
// of the larger coordinate beyond p ± reach — and when p lies near a
// cell edge (lattice-aligned data) those ulps decide the cell. The pad,
// 2⁻⁵⁰ of |p|∞ + 2·reach, is comfortably above the three roundings
// involved and far below any usable ε; quantization is monotone, so a
// box that contains a point yields a cell range that contains its cell.
// internal/core's probes that must see every point within reach and
// internal/partition's frontier test use it.
func PaddedReach(p Point, reach float64) float64 {
	m := 0.0
	for _, v := range p {
		m = math.Max(m, math.Abs(v))
	}
	return PadReach(m, reach)
}

// PadReach is PaddedReach for every point whose coordinates are at most
// maxAbs in magnitude: reach + (maxAbs + 2·reach)·2⁻⁵⁰. A cell side
// padded so covers a whole set at once (internal/core's cell graph).
func PadReach(maxAbs, reach float64) float64 {
	return reach + (maxAbs+2*reach)*0x1p-50
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Contains reports whether p lies inside r (inclusive bounds).
func (r Rect) Contains(p Point) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point
// (touching boundaries count, matching the ≤ similarity predicate).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Min {
		if r.Min[i] > s.Max[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle enclosing both r and s.
func (r Rect) Union(s Rect) Rect {
	min := make(Point, len(r.Min))
	max := make(Point, len(r.Min))
	for i := range r.Min {
		min[i] = math.Min(r.Min[i], s.Min[i])
		max[i] = math.Max(r.Max[i], s.Max[i])
	}
	return Rect{Min: min, Max: max}
}

// Extend grows r in place to also cover s.
func (r *Rect) Extend(s Rect) {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
}

// ExtendPoint grows r in place to also cover p.
func (r *Rect) ExtendPoint(p Point) {
	for i := range r.Min {
		if p[i] < r.Min[i] {
			r.Min[i] = p[i]
		}
		if p[i] > r.Max[i] {
			r.Max[i] = p[i]
		}
	}
}

// Area returns the d-dimensional volume of r (0 for empty rectangles).
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		side := r.Max[i] - r.Min[i]
		if side < 0 {
			return 0
		}
		a *= side
	}
	return a
}

// EnlargementArea returns the area increase of r if extended to cover
// s, computed without materializing the union (R-tree hot path).
func (r Rect) EnlargementArea(s Rect) float64 {
	union, area := 1.0, 1.0
	for i := range r.Min {
		lo := r.Min[i]
		if s.Min[i] < lo {
			lo = s.Min[i]
		}
		hi := r.Max[i]
		if s.Max[i] > hi {
			hi = s.Max[i]
		}
		union *= hi - lo
		side := r.Max[i] - r.Min[i]
		if side < 0 {
			side = 0
		}
		area *= side
	}
	return union - area
}

// String formats the rectangle as "[min; max]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s; %s]", r.Min, r.Max)
}
