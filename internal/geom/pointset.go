package geom

import (
	"fmt"
	"math"
	"slices"
)

// PointSet is flat storage for a sequence of points of uniform
// dimensionality: one contiguous []float64 backing buffer with stride
// Dims. It replaces []Point on the operators' hot paths — probing a
// point is a bounds-checked slice of the backing array rather than a
// pointer chase to a separately allocated coordinate slice, so member
// scans walk memory sequentially and the distance kernels stay in
// cache.
//
// A PointSet with zero points may have dimensionality 0 (unknown); any
// non-empty PointSet has Dims ≥ 1.
type PointSet struct {
	dims int
	data []float64
}

// NewPointSet returns an empty PointSet for dims-dimensional points.
func NewPointSet(dims int) *PointSet {
	if dims < 1 {
		panic("geom: PointSet dims must be >= 1")
	}
	return &PointSet{dims: dims}
}

// NewPointSetCap returns an empty PointSet with capacity preallocated
// for n points.
func NewPointSetCap(dims, n int) *PointSet {
	ps := NewPointSet(dims)
	ps.data = make([]float64, 0, dims*n)
	return ps
}

// Wrap adopts data as the backing buffer of a PointSet without
// copying. len(data) must be a multiple of dims. The caller must not
// alias mutations into the buffer afterwards.
func Wrap(dims int, data []float64) *PointSet {
	if dims < 1 {
		panic("geom: PointSet dims must be >= 1")
	}
	if len(data)%dims != 0 {
		panic(fmt.Sprintf("geom: Wrap: %d coordinates is not a multiple of dims %d", len(data), dims))
	}
	return &PointSet{dims: dims, data: data}
}

// FromPoints builds a PointSet from a point slice. When the points
// already alias one contiguous backing array in order (pts[i] ==
// base[i*d : (i+1)*d], as produced by slicing a flat buffer) the buffer
// is adopted zero-copy; otherwise the coordinates are copied once into
// a fresh flat buffer. Points must share one dimensionality ≥ 1; the
// operators validate that before converting.
func FromPoints(pts []Point) *PointSet {
	if len(pts) == 0 {
		return &PointSet{}
	}
	d := len(pts[0])
	if d == 0 {
		panic("geom: FromPoints: zero-dimensional point")
	}
	if flat := contiguous(pts, d); flat != nil {
		return &PointSet{dims: d, data: flat}
	}
	ps := NewPointSetCap(d, len(pts))
	for _, p := range pts {
		if len(p) != d {
			panic(fmt.Sprintf("geom: FromPoints: mixed dimensionality %d vs %d", len(p), d))
		}
		ps.data = append(ps.data, p...)
	}
	return ps
}

// contiguous reports whether pts views one flat backing array at
// stride d, returning that array if so. The check stays within the
// capacity of pts[0], so it never compares addresses across distinct
// allocations.
func contiguous(pts []Point, d int) []float64 {
	n := len(pts)
	if cap(pts[0]) < n*d {
		return nil
	}
	base := pts[0][:n*d]
	for i, p := range pts {
		if len(p) != d || &p[0] != &base[i*d] {
			return nil
		}
	}
	return base
}

// Dims returns the dimensionality (0 only for an empty set built from
// no points).
func (s *PointSet) Dims() int { return s.dims }

// Len returns the number of stored points.
func (s *PointSet) Len() int {
	if s.dims == 0 {
		return 0
	}
	return len(s.data) / s.dims
}

// At returns point i as a view into the backing buffer — no copy, no
// allocation. The view must be treated as read-only.
func (s *PointSet) At(i int) Point {
	d := s.dims
	return s.data[i*d : i*d+d : i*d+d]
}

// AppendPoint copies p onto the end of the set. Panics on a
// dimensionality mismatch.
func (s *PointSet) AppendPoint(p Point) {
	if len(p) != s.dims {
		panic(fmt.Sprintf("geom: AppendPoint: dimension %d, want %d", len(p), s.dims))
	}
	s.data = append(s.data, p...)
}

// Extend appends one zeroed point and returns its mutable view, so
// callers can fill coordinates in place without a scratch slice.
func (s *PointSet) Extend() Point {
	n := len(s.data)
	for i := 0; i < s.dims; i++ {
		s.data = append(s.data, 0)
	}
	return s.data[n : n+s.dims : n+s.dims]
}

// AppendSet copies every point of other onto the end of the set — the
// batch-append entry of the incremental evaluators. Panics on a
// dimensionality mismatch; an empty other is a no-op. When the
// receiver is empty with unknown dimensionality (built from no
// points), it adopts other's dimensionality.
func (s *PointSet) AppendSet(other *PointSet) {
	if other == nil || other.Len() == 0 {
		return
	}
	if s.dims == 0 && len(s.data) == 0 {
		s.dims = other.dims
	}
	if other.dims != s.dims {
		panic(fmt.Sprintf("geom: AppendSet: dimension %d, want %d", other.dims, s.dims))
	}
	s.data = append(s.data, other.data...)
}

// Slice returns a view of points [i, j) sharing the receiver's backing
// buffer — no copy. The view must be treated as read-only, and appends
// to the receiver may or may not be visible through it; use it
// immediately (the incremental SQL path slices the freshly extracted
// suffix of a query's points to hand to AppendSet, which copies).
func (s *PointSet) Slice(i, j int) *PointSet {
	if i < 0 || j < i || j > s.Len() {
		panic(fmt.Sprintf("geom: Slice [%d, %d) out of range [0, %d)", i, j, s.Len()))
	}
	d := s.dims
	return &PointSet{dims: d, data: s.data[i*d : j*d : j*d]}
}

// Gather returns a compact PointSet holding the points at the given
// indices, in index order — a subset such as the survivors a maintained
// evaluator compacts its log to, or a permuted input. The result owns
// its buffer; mutating the source afterwards does not affect it.
func (s *PointSet) Gather(indices []int32) *PointSet {
	out := NewPointSetCap(s.dims, len(indices))
	for _, i := range indices {
		out.data = append(out.data, s.At(int(i))...)
	}
	return out
}

// Data returns the flat backing buffer (stride Dims) — the
// serialization view the checkpoint writer copies out. The returned
// slice aliases the set's storage: treat it as read-only, and use it
// before the next append (which may move the buffer).
func (s *PointSet) Data() []float64 { return s.data }

// Points materializes the set as a []Point of zero-copy views.
func (s *PointSet) Points() []Point {
	out := make([]Point, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// CheckFinite reports the first non-finite coordinate in the set, if
// any. NaN and ±Inf coordinates have no place in a similarity
// grouping: NaN compares false with everything (so a point could be
// "within ε of no point including itself"), and both poison the
// ε-grid's integer cell quantization and the Morton key bit-spread.
// The operators reject them at ingestion instead of computing garbage.
func (s *PointSet) CheckFinite() error {
	d := s.dims
	for i, v := range s.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("geom: point %d has non-finite coordinate %d (%v)", i/d, i%d, v)
		}
	}
	return nil
}

// DistKey computes the metric comparison key of (points[i], points[j])
// — the value the similarity predicate tests against m.EpsKey(eps).
// See Metric.DistKey.
func (s *PointSet) DistKey(m Metric, i, j int) float64 {
	return m.distKeyCoords(s.At(i), s.At(j))
}

// AppendDistKeys appends to dst the comparison key of p against each
// point the ids name, in order — bit for bit DistKey of p's own index
// and each id — and returns the extended slice. It is the one key
// kernel of an ε-grid probe: the candidates a probe collects are keyed
// in one call. d = 2 runs a per-metric loop that mirrors
// distKeyCoords term for term; other dimensionalities call it per id.
//
//sgb:allocfree
func (s *PointSet) AppendDistKeys(dst []float64, m Metric, p Point, ids []int32) []float64 {
	n := len(dst)
	dst = slices.Grow(dst, len(ids))[:n+len(ids)]
	out := dst[n:]
	switch dims := s.dims; {
	case dims == 2 && m == L2:
		px, py := p[0], p[1]
		for k, j := range ids {
			q := s.data[2*int(j) : 2*int(j)+2 : 2*int(j)+2]
			dx := px - q[0]
			dy := py - q[1]
			out[k] = dx*dx + dy*dy
		}
	case dims == 2 && m == LInf:
		px, py := p[0], p[1]
		for k, j := range ids {
			q := s.data[2*int(j) : 2*int(j)+2 : 2*int(j)+2]
			var mx float64
			if d := math.Abs(px - q[0]); d > mx {
				mx = d
			}
			if d := math.Abs(py - q[1]); d > mx {
				mx = d
			}
			out[k] = mx
		}
	default:
		for k, j := range ids {
			out[k] = m.distKeyCoords(p, s.At(int(j)))
		}
	}
	return dst
}
