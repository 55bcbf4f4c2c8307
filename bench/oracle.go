package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/types"
)

// digest is an order-independent summary of a result set: the row
// count and, per column, an exact commutative hash of the integer
// values (group sizes, cell ids) or the sum and sum of squares of the
// float values (aggregate results), which are compared with a
// tolerance because a float sum depends on the order it was folded in.
type digest struct {
	rows int
	cols []colDigest
}

type colDigest struct {
	float          bool
	hash           uint64  // Σ mix(v) over integer values
	sum, abs, sqrs float64 // Σ v, Σ |v|, Σ v² over float values
}

func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	return v ^ v>>31
}

func digestRows(rows []types.Row) *digest {
	d := &digest{rows: len(rows)}
	for _, r := range rows {
		if d.cols == nil {
			d.cols = make([]colDigest, len(r))
		}
		for j, v := range r {
			c := &d.cols[j]
			if v.Kind == types.KindFloat {
				c.float = true
				c.sum += v.F
				c.abs += math.Abs(v.F)
				c.sqrs += v.F * v.F
			} else {
				c.hash += mix(uint64(v.I))
			}
		}
	}
	return d
}

func (d *digest) equal(o *digest) bool {
	if d.rows != o.rows || len(d.cols) != len(o.cols) {
		return false
	}
	for j, a := range d.cols {
		b := o.cols[j]
		if a.float != b.float || a.hash != b.hash {
			return false
		}
		if math.Abs(a.sum-b.sum) > 1e-9*(a.abs+1) || math.Abs(a.sqrs-b.sqrs) > 1e-9*(a.sqrs+1) {
			return false
		}
	}
	return true
}

// rowsDigest hashes table contents (id and every coordinate, bit for
// bit) so that a set of rows can be compared without knowing its order.
func rowsDigest(rows []row) (d uint64) {
	for _, r := range rows {
		d += mix(uint64(r.id) ^ mix(math.Float64bits(r.x)^mix(math.Float64bits(r.y)^mix(math.Float64bits(r.z)))))
	}
	return d
}

// oracle computes expected answers with the public operator API:
// sgb.GroupByAnySet / GroupByAllSet / SweepAnySet on the ε-grid with
// Parallelism = 1 and the sessions' JOIN-ANY seed (0). Groupings are
// memoized because the workloads' variants share them.
type oracle struct {
	rows   []row
	single map[string]*sgb.Result
	levels map[sgb.Metric]map[float64]*sgb.Result
	err    error
}

// newOracle prepares reference groupings over rows for the variants
// vs; all ε levels of one metric's sweeps are cut from one dendrogram.
func newOracle(rows []row, vs []variant) *oracle {
	o := &oracle{rows: rows, single: map[string]*sgb.Result{}, levels: map[sgb.Metric]map[float64]*sgb.Result{}}
	want := map[sgb.Metric]map[float64]bool{}
	for _, v := range vs {
		if v.sweep() {
			if want[v.metric] == nil {
				want[v.metric] = map[float64]bool{}
			}
			for _, e := range v.eps {
				want[v.metric][e] = true
			}
		}
	}
	for _, m := range []sgb.Metric{sgb.L2, sgb.LInf} {
		if len(want[m]) == 0 {
			continue
		}
		var eps []float64
		for e := range want[m] {
			eps = append(eps, e)
		}
		sort.Float64s(eps)
		res, err := sgb.SweepAnySet(points(rows, 2), eps, sgb.Options{Metric: m, Algorithm: sgb.GridIndex, Parallelism: 1})
		if err != nil {
			o.err = err
			return o
		}
		o.levels[m] = map[float64]*sgb.Result{}
		for i, e := range eps {
			o.levels[m][e] = res[i]
		}
	}
	return o
}

func points(rows []row, dims int) *sgb.PointSet {
	ps := sgb.NewPointSet(dims)
	for _, r := range rows {
		p := ps.Extend()
		p[0], p[1] = r.x, r.y
		if dims == 3 {
			p[2] = r.z
		}
	}
	return ps
}

func (o *oracle) group(v variant) (*sgb.Result, error) {
	key := fmt.Sprint(v.any, v.metric, v.overlap, v.dims, v.eps[0])
	if res, ok := o.single[key]; ok {
		return res, nil
	}
	opt := sgb.Options{Metric: v.metric, Eps: v.eps[0], Overlap: v.overlap, Algorithm: sgb.GridIndex, Parallelism: 1}
	var res *sgb.Result
	var err error
	if v.any {
		res, err = sgb.GroupByAnySet(points(o.rows, v.dims), opt)
	} else {
		res, err = sgb.GroupByAllSet(points(o.rows, v.dims), opt)
	}
	if err == nil {
		o.single[key] = res
	}
	return res, err
}

// expect returns the digest of the rows v must return over o.rows.
func (o *oracle) expect(v variant) (*digest, error) {
	if o.err != nil {
		return nil, o.err
	}
	if v.eq {
		return digestRows(o.eqRows()), nil
	}
	var out []types.Row
	if v.sweep() {
		eps := append([]float64(nil), v.eps...)
		sort.Float64s(eps) // the engine emits levels in ascending ε order
		for _, e := range eps {
			res := o.levels[v.metric][e]
			if v.cube {
				out = append(out, cubeRow(e, res, len(o.rows)))
				continue
			}
			out = append(out, o.aggRows(v, res, []types.Value{types.Float(e)})...)
		}
	} else {
		res, err := o.group(v)
		if err != nil {
			return nil, err
		}
		out = o.aggRows(v, res, nil)
	}
	if v.topK > 0 {
		sort.Slice(out, func(i, j int) bool {
			if out[i][0].I != out[j][0].I {
				return out[i][0].I > out[j][0].I
			}
			return out[i][1].F > out[j][1].F
		})
		if len(out) > v.topK {
			out = out[:v.topK]
		}
	}
	return digestRows(out), nil
}

func cubeRow(eps float64, res *sgb.Result, n int) types.Row {
	largest, grouped := 0, 0
	for _, g := range res.Groups {
		if len(g.Members) > largest {
			largest = len(g.Members)
		}
		if len(g.Members) >= 2 {
			grouped += len(g.Members)
		}
	}
	return types.Row{types.Float(eps), types.Int(int64(len(res.Groups))), types.Int(int64(largest)),
		types.Float(float64(grouped) / float64(n))}
}

// aggRows folds v's aggregates over each group and applies its HAVING.
func (o *oracle) aggRows(v variant, res *sgb.Result, prefix []types.Value) []types.Row {
	var out []types.Row
	for _, g := range res.Groups {
		if len(g.Members) < v.minCount {
			continue
		}
		sumX, maxY, minY := 0.0, math.Inf(-1), math.Inf(1)
		for _, m := range g.Members {
			r := o.rows[m]
			sumX += r.x
			maxY = math.Max(maxY, r.y)
			minY = math.Min(minY, r.y)
		}
		r := append(types.Row(nil), prefix...)
		for _, a := range v.aggs {
			switch a {
			case aCount:
				r = append(r, types.Int(int64(len(g.Members))))
			case aAvgX:
				r = append(r, types.Float(sumX/float64(len(g.Members))))
			case aSumX:
				r = append(r, types.Float(sumX))
			case aMaxY:
				r = append(r, types.Float(maxY))
			case aMinY:
				r = append(r, types.Float(minY))
			}
		}
		out = append(out, r)
	}
	return out
}

// eqRows is the standard GROUP BY cell answer.
func (o *oracle) eqRows() []types.Row {
	type acc struct {
		n    int64
		sumX float64
		maxY float64
	}
	cells := map[int64]*acc{}
	for _, r := range o.rows {
		a := cells[r.cell]
		if a == nil {
			a = &acc{maxY: math.Inf(-1)}
			cells[r.cell] = a
		}
		a.n++
		a.sumX += r.x
		a.maxY = math.Max(a.maxY, r.y)
	}
	out := make([]types.Row, 0, len(cells))
	for c, a := range cells {
		out = append(out, types.Row{types.Int(c), types.Int(a.n), types.Float(a.sumX / float64(a.n)), types.Float(a.maxY)})
	}
	return out
}

// check decides whether a statement's answer is acceptable.
func (s *stmt) check(rows *sgb.Rows, n int, err error) bool {
	if err != nil {
		return false
	}
	if s.write {
		return n == s.wantN
	}
	if rows == nil {
		return false
	}
	if s.want != nil {
		return s.want.equal(digestRows(rows.Data))
	}
	if s.wantSum > 0 {
		var sum int64
		for _, r := range rows.Data {
			sum += r[s.sumCol].I
		}
		return sum == s.wantSum
	}
	return true
}
