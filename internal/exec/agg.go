package exec

import (
	"fmt"
	"slices"
	"strings"

	"github.com/sgb-db/sgb/internal/convexhull"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/types"
)

// AggKind enumerates the supported aggregate functions — the standard
// five plus the paper's user-defined aggregates: array_agg / List-ID
// (Query 3) and ST_Polygon (Queries 1 and 3), which returns the WKT
// polygon of the group's convex hull.
type AggKind int

const (
	AggCountStar AggKind = iota // count(*): rows in the group
	AggCount                    // count(e): non-NULL values
	AggSum                      // sum(e)
	AggAvg                      // avg(e)
	AggMin                      // min(e)
	AggMax                      // max(e)
	AggArrayAgg                 // array_agg(e): values joined in row order
	AggSTPolygon                // st_polygon: WKT hull of the group's points
)

// ParseAggKind maps a function name to its aggregate kind; ok is false
// for non-aggregate functions.
func ParseAggKind(name string) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg", "average", "mean":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "array_agg", "list_id":
		return AggArrayAgg, true
	case "st_polygon":
		return AggSTPolygon, true
	default:
		return 0, false
	}
}

// AggSpec is one aggregate computation: the kind plus its compiled
// argument expressions (empty for count(*); two for st_polygon).
type AggSpec struct {
	Kind AggKind
	Args []Scalar
	// Key, when non-empty, identifies the aggregate's value on a given
	// table: two specs with equal keys compute the same column over the
	// same grouping, so the similarity node may memoize it on a shared
	// Grouping. The planner leaves it empty for aggregates that are not
	// a pure function of the table's rows (subquery arguments).
	Key string
	// ArgCol, when positive, says the single argument is a bare column
	// reference: Args[0] returns row[ArgCol-1] as is. The similarity node
	// may then read the column once and fold it with the typed kernels
	// (fold.go). Zero — what a literal that does not mention it gets —
	// promises nothing.
	ArgCol int
}

// Validate checks the arity.
func (a AggSpec) Validate() error {
	switch a.Kind {
	case AggCountStar:
		if len(a.Args) != 0 {
			return fmt.Errorf("exec: count(*) takes no arguments")
		}
	case AggSTPolygon:
		if len(a.Args) != 2 {
			return fmt.Errorf("exec: st_polygon takes exactly two arguments")
		}
	default:
		if len(a.Args) != 1 {
			return fmt.Errorf("exec: aggregate takes exactly one argument")
		}
	}
	return nil
}

// accumulator folds rows into one aggregate value; reset returns it
// to its initial state so one accumulator serves every group of a
// column.
type accumulator interface {
	add(row types.Row) error
	result() types.Value
	reset()
}

func (a AggSpec) newAccumulator() accumulator {
	switch a.Kind {
	case AggCountStar:
		return &countAcc{}
	case AggCount:
		return &countAcc{arg: a.Args[0]}
	case AggSum:
		return &sumAcc{arg: a.Args[0]}
	case AggAvg:
		return &avgAcc{arg: a.Args[0]}
	case AggMin:
		return &minmaxAcc{arg: a.Args[0], min: true}
	case AggMax:
		return &minmaxAcc{arg: a.Args[0]}
	case AggArrayAgg:
		return &arrayAcc{arg: a.Args[0]}
	case AggSTPolygon:
		return &polygonAcc{x: a.Args[0], y: a.Args[1]}
	default:
		panic("exec: unknown aggregate")
	}
}

type countAcc struct {
	arg Scalar // nil for count(*)
	n   int64
}

func (c *countAcc) add(row types.Row) error {
	if c.arg != nil {
		v, err := c.arg(row)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
	}
	c.n++
	return nil
}
func (c *countAcc) result() types.Value { return types.Int(c.n) }
func (c *countAcc) reset()              { c.n = 0 }

// sumAcc keeps integer sums exact, promoting to float on the first
// float input (SQL numeric promotion).
type sumAcc struct {
	arg     Scalar
	anyRow  bool
	isFloat bool
	i       int64
	f       float64
}

func (s *sumAcc) add(row types.Row) error {
	v, err := s.arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	s.anyRow = true
	switch v.Kind {
	case types.KindInt:
		s.i += v.I
		s.f += float64(v.I)
	case types.KindFloat:
		s.isFloat = true
		s.f += v.F
	default:
		return fmt.Errorf("exec: sum over non-numeric %s", v.Kind)
	}
	return nil
}
func (s *sumAcc) result() types.Value {
	if !s.anyRow {
		return types.Null()
	}
	if s.isFloat {
		return types.Float(s.f)
	}
	return types.Int(s.i)
}
func (s *sumAcc) reset() { *s = sumAcc{arg: s.arg} }

type avgAcc struct {
	arg Scalar
	sum float64
	n   int64
}

func (a *avgAcc) add(row types.Row) error {
	v, err := a.arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return err
	}
	a.sum += f
	a.n++
	return nil
}
func (a *avgAcc) result() types.Value {
	if a.n == 0 {
		return types.Null()
	}
	return types.Float(a.sum / float64(a.n))
}
func (a *avgAcc) reset() { a.sum, a.n = 0, 0 }

type minmaxAcc struct {
	arg  Scalar
	min  bool
	best types.Value
	seen bool
}

func (m *minmaxAcc) add(row types.Row) error {
	v, err := m.arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if !m.seen {
		m.best, m.seen = v, true
		return nil
	}
	c, err := types.Compare(v, m.best)
	if err != nil {
		return err
	}
	if (m.min && c < 0) || (!m.min && c > 0) {
		m.best = v
	}
	return nil
}
func (m *minmaxAcc) result() types.Value {
	if !m.seen {
		return types.Null()
	}
	return m.best
}
func (m *minmaxAcc) reset() { m.best, m.seen = types.Value{}, false }

// arrayAcc realizes array_agg / List-ID: it renders the collected
// values as "[v1, v2, ...]" text (the engine has no array type; the
// paper's List-ID likewise "returns a list that contains all the
// user-ids within a group").
type arrayAcc struct {
	arg  Scalar
	vals []string
}

func (a *arrayAcc) add(row types.Row) error {
	v, err := a.arg(row)
	if err != nil {
		return err
	}
	a.vals = append(a.vals, v.String())
	return nil
}
func (a *arrayAcc) result() types.Value {
	return types.Text("[" + strings.Join(a.vals, ", ") + "]")
}
func (a *arrayAcc) reset() { a.vals = a.vals[:0] }

// polygonAcc realizes ST_Polygon(x, y): the WKT polygon of the convex
// hull of the group's points — "a polygon that encompasses the group's
// geographical location" (Query 3).
type polygonAcc struct {
	x, y Scalar
	pts  []geom.Point
}

func (p *polygonAcc) add(row types.Row) error {
	xv, err := p.x(row)
	if err != nil {
		return err
	}
	yv, err := p.y(row)
	if err != nil {
		return err
	}
	xf, err := xv.AsFloat()
	if err != nil {
		return err
	}
	yf, err := yv.AsFloat()
	if err != nil {
		return err
	}
	p.pts = append(p.pts, geom.Point{xf, yf})
	return nil
}

func (p *polygonAcc) result() types.Value {
	hull := convexhull.Compute(p.pts)
	vs := hull.Vertices()
	if len(vs) == 0 {
		return types.Text("POLYGON EMPTY")
	}
	var b strings.Builder
	b.WriteString("POLYGON((")
	for i, v := range vs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g %g", v[0], v[1])
	}
	// Close the ring.
	fmt.Fprintf(&b, ", %g %g", vs[0][0], vs[0][1])
	b.WriteString("))")
	return types.Text(b.String())
}
func (p *polygonAcc) reset() { p.pts = p.pts[:0] }

// HashAgg is the standard (equality) GROUP BY operator: one output row
// per distinct grouping key, laid out as groupValues ++ aggResults.
// With no grouping keys it degenerates to a single-row scalar aggregate
// (emitted even for empty input, per SQL).
type HashAgg struct {
	Input  Operator
	Groups []Scalar
	Aggs   []AggSpec

	out []types.Row
	pos int
}

// Open drains the input, accumulating one aggregate row per group key.
func (h *HashAgg) Open() error {
	h.out = nil
	h.pos = 0
	for _, a := range h.Aggs {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	if err := h.Input.Open(); err != nil {
		return err
	}
	defer h.Input.Close()

	type bucket struct {
		keyVals types.Row
		accs    []accumulator
	}
	buckets := make(map[string]*bucket)
	var order []*bucket // deterministic output: first-seen order
	// Per-row scratch: a lookup by string(key) does not allocate, so
	// only the first row of a group copies its key and values.
	keyVals := make(types.Row, len(h.Groups))
	var key []byte

	newAccs := func() []accumulator {
		accs := make([]accumulator, len(h.Aggs))
		for i, a := range h.Aggs {
			accs[i] = a.newAccumulator()
		}
		return accs
	}

	for {
		row, err := h.Input.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		for i, g := range h.Groups {
			v, err := g(row)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		key = appendRowKey(key[:0], keyVals)
		b, ok := buckets[string(key)]
		if !ok {
			b = &bucket{keyVals: slices.Clone(keyVals), accs: newAccs()}
			buckets[string(key)] = b
			order = append(order, b)
		}
		for _, acc := range b.accs {
			if err := acc.add(row); err != nil {
				return err
			}
		}
	}

	if len(buckets) == 0 && len(h.Groups) == 0 {
		// Scalar aggregate over empty input still yields one row.
		accs := newAccs()
		row := make(types.Row, len(h.Aggs))
		for i, acc := range accs {
			row[i] = acc.result()
		}
		h.out = append(h.out, row)
		return nil
	}

	for _, b := range order {
		row := make(types.Row, 0, len(b.keyVals)+len(h.Aggs))
		row = append(row, b.keyVals...)
		for _, acc := range b.accs {
			row = append(row, acc.result())
		}
		h.out = append(h.out, row)
	}
	return nil
}

// Next emits the grouped rows in first-seen key order.
func (h *HashAgg) Next() (types.Row, error) {
	if h.pos >= len(h.out) {
		return nil, nil
	}
	row := h.out[h.pos]
	h.pos++
	return row, nil
}

// Close releases the materialized output.
func (h *HashAgg) Close() error { h.out = nil; return nil }
