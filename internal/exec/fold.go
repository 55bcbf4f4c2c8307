package exec

import (
	"math"
	"sync"

	"github.com/sgb-db/sgb/internal/types"
)

// Typed aggregate kernels. count, sum, avg, min and max over a bare
// column whose values are all INT or all FLOAT — what a similarity
// query over a table almost always asks for — fold machine numbers out
// of a vector read once from the rows, straight into a packed column,
// instead of calling an accumulator and a compiled expression per
// (row, aggregate). The accumulators (agg.go) stay the definition: a
// kernel reproduces its accumulator's result bit for bit, and anything
// the kernels do not cover — expression arguments, other kinds, mixed
// or non-numeric columns, array_agg, st_polygon, HashAgg — folds
// through the accumulators as before.

// foldInput is what one statement folds its aggregates over: the input
// rows and, by column index, the numeric vectors read from them so far
// — each at most once, however many aggregates and ε levels use it.
// Inputs are recycled through foldInputs with their vectors' buffers,
// so a statement that folds allocates no vector once the pool is warm:
// as garbage, the two or three 8·n-byte payloads per statement raised
// peak RSS on the small-table workloads (docs/pr21-typed-fold.md).
type foldInput struct {
	rows []types.Row
	vecs []numVector
}

var foldInputs = sync.Pool{New: func() any { return new(foldInput) }}

// newFoldInput returns an input over rows; release it after the last
// fold.
func newFoldInput(rows []types.Row) *foldInput {
	in := foldInputs.Get().(*foldInput)
	in.rows = rows
	return in
}

// release forgets the rows and what was read from them, and hands the
// buffers on to a later statement.
func (in *foldInput) release() {
	in.rows = nil
	for i := range in.vecs {
		in.vecs[i].read = false
	}
	foldInputs.Put(in)
}

// numVector is one input column as machine numbers: ints for an INT
// column, floats for a FLOAT one, each len(rows) long when in use and
// empty otherwise (the capacity is what the pool recycles). An
// all-NULL column counts as FLOAT with no payload — the kernels never
// index a NULL row's number.
type numVector struct {
	read   bool       // gathered from the current rows
	kind   types.Kind // KindInt or KindFloat; KindNull: not a numeric column
	ints   []int64
	floats []float64
	nulls  []bool // empty unless the column holds a NULL
}

// kernelShape reports whether a kernel exists for the aggregate as
// written: count(*), or count, sum, avg, min or max of a bare column.
// Only a bare column is ever read ahead of the groups: an expression
// argument could fail on a row no group holds (ELIMINATE drops rows),
// and today that error stays unseen.
func (a AggSpec) kernelShape() bool {
	return a.Kind == AggCountStar || (a.Kind <= AggMax && a.ArgCol > 0)
}

// typed reports whether aggregate a folds through the kernels over
// this input: its shape has one, and the column's non-NULL values are
// all INT or all FLOAT.
func (in *foldInput) typed(a AggSpec) bool {
	return a.kernelShape() && (a.Kind == AggCountStar || in.vector(a.ArgCol-1).kind != types.KindNull)
}

// typedAll is typed for a whole aggregate list; it reads no column
// unless every aggregate passes on its shape.
func (in *foldInput) typedAll(aggs []AggSpec) bool {
	for _, a := range aggs {
		if !a.kernelShape() {
			return false
		}
	}
	for _, a := range aggs {
		if !in.typed(a) {
			return false
		}
	}
	return true
}

// vector returns column col of the input, reading it on first use.
func (in *foldInput) vector(col int) *numVector {
	for len(in.vecs) <= col {
		in.vecs = append(in.vecs, numVector{})
	}
	v := &in.vecs[col]
	if !v.read {
		v.gather(in.rows, col)
	}
	return v
}

// gather reads column col of every row, in row order, into the vector.
// The payload is sized when the first number shows the column's kind
// and the NULL mask when the first NULL is met; a second kind, a value
// that is neither number nor NULL, or a row too short to have the
// column leaves the vector's kind KindNull.
func (v *numVector) gather(rows []types.Row, col int) {
	v.read, v.kind = true, types.KindNull
	v.ints, v.floats, v.nulls = v.ints[:0], v.floats[:0], v.nulls[:0]
	for r := 0; ; {
		if r = v.fill(rows, col, r); r == len(rows) {
			break
		}
		// rows[r][col] is something fill had no place for.
		k := types.KindText // any kind the kernels do not take
		if col < len(rows[r]) {
			k = rows[r][col].Kind
		}
		switch {
		case k == types.KindNull && len(v.nulls) == 0:
			v.nulls = sized(v.nulls, len(rows))
			clear(v.nulls)
		case k == types.KindInt && v.kind == types.KindNull:
			v.kind, v.ints = k, sized(v.ints, len(rows))
		case k == types.KindFloat && v.kind == types.KindNull:
			v.kind, v.floats = k, sized(v.floats, len(rows))
		default:
			v.kind = types.KindNull
			return
		}
	}
	if v.kind == types.KindNull {
		v.kind = types.KindFloat // no number at all: every row is NULL
	}
}

// sized returns a slice of n elements, buf's own array when it is
// large enough; the elements hold whatever they held. A new array has
// an eighth to spare, so that a table growing between statements does
// not outgrow the recycled buffer every time.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/8)
	}
	return buf[:n]
}

// fill copies rows[from:]'s column into the vector and returns the
// first row it cannot store — a NULL before the mask exists, the first
// number before the payload does, anything else — or len(rows).
//
//sgb:allocfree
func (v *numVector) fill(rows []types.Row, col, from int) int {
	kind, ints, floats, nulls := v.kind, v.ints, v.floats, v.nulls
	for r := from; r < len(rows); r++ {
		row := rows[r]
		if col >= len(row) {
			return r
		}
		switch x := &row[col]; {
		case x.Kind == types.KindNull:
			if len(nulls) == 0 {
				return r
			}
			nulls[r] = true
		case x.Kind != kind:
			return r
		case kind == types.KindInt:
			ints[r] = x.I
		default:
			floats[r] = x.F
		}
	}
	return len(rows)
}

// sink is where a kernel leaves its results: the packed column a
// shared Grouping memoizes, or — vals set — every stride-th Value of
// the output rows of a statement whose grouping nobody shares. A NULL
// result is left as it is: both start out all NULL.
type sink struct {
	kinds  []uint8 // a column's, with nums
	nums   []uint64
	vals   []types.Value // group i's result is vals[i*stride]
	stride int
}

// put stores group i's result, packed as a column packs it, or into
// its row cell by kind as column.store writes one: Kind and the payload
// field, no whole Value (and so no write barrier).
//
//sgb:allocfree
func (s sink) put(i int, kind types.Kind, num uint64) {
	if s.vals == nil {
		s.kinds[i], s.nums[i] = uint8(kind), num
		return
	}
	switch v := &s.vals[i*s.stride]; kind {
	case types.KindInt:
		v.Kind, v.I = kind, int64(num)
	case types.KindFloat:
		v.Kind, v.F = kind, math.Float64frombits(num)
	}
}

// foldTyped folds aggregate a, which in.typed admitted, over every
// group.
func (g *Grouping) foldTyped(a AggSpec, in *foldInput, to sink) {
	if a.Kind == AggCountStar {
		countKernel(g, nil, to)
	} else if v := in.vector(a.ArgCol - 1); v.kind == types.KindInt {
		foldVector(g, a.Kind, v.ints, v.nulls, v.kind, intBits, to)
	} else {
		foldVector(g, a.Kind, v.floats, v.nulls, v.kind, math.Float64bits, to)
	}
}

func intBits(i int64) uint64 { return uint64(i) }

// foldVector runs one aggregate's kernel over a vector's payload; bits
// is how a result of the payload's type is packed.
func foldVector[T int64 | float64](g *Grouping, agg AggKind, vals []T, nulls []bool, kind types.Kind, bits func(T) uint64, to sink) {
	switch agg {
	case AggCount:
		countKernel(g, nulls, to)
	case AggSum:
		sumKernel(g, vals, nulls, kind, bits, to)
	case AggAvg:
		avgKernel(g, vals, nulls, to)
	case AggMin, AggMax:
		extremeKernel(g, vals, nulls, agg == AggMin, kind, bits, to)
	}
}

// countKernel is countAcc: the members that are not NULL, an INT even
// for a group with none.
//
//sgb:allocfree
func countKernel(g *Grouping, nulls []bool, to sink) {
	start := int32(0)
	for i, end := range g.ends {
		n := int64(end - start)
		if len(nulls) != 0 {
			for _, m := range g.members[start:end] {
				if nulls[m] {
					n--
				}
			}
		}
		to.put(i, types.KindInt, uint64(n))
		start = end
	}
}

// sumKernel is sumAcc over a column of one kind: the members added in
// member order in the column's own type — an INT sum exact in int64,
// wrapping as sumAcc.i does; a FLOAT sum the same additions from the
// same +0 — and NULL for a group with no number.
//
//sgb:allocfree
func sumKernel[T int64 | float64](g *Grouping, vals []T, nulls []bool, kind types.Kind, bits func(T) uint64, to sink) {
	start := int32(0)
	for i, end := range g.ends {
		var sum T
		n := 0
		for _, m := range g.members[start:end] {
			if len(nulls) != 0 && nulls[m] {
				continue
			}
			sum += vals[m]
			n++
		}
		if n > 0 {
			to.put(i, kind, bits(sum))
		}
		start = end
	}
}

// avgKernel is avgAcc: the float sum of the members (an INT converted
// as AsFloat converts it) in member order, divided by their number;
// always a FLOAT, NULL for a group with no number.
//
//sgb:allocfree
func avgKernel[T int64 | float64](g *Grouping, vals []T, nulls []bool, to sink) {
	start := int32(0)
	for i, end := range g.ends {
		sum, n := 0.0, int64(0)
		for _, m := range g.members[start:end] {
			if len(nulls) != 0 && nulls[m] {
				continue
			}
			sum += float64(vals[m])
			n++
		}
		if n > 0 {
			to.put(i, types.KindFloat, math.Float64bits(sum/float64(n)))
		}
		start = end
	}
}

// extremeKernel is minmaxAcc over a column of one kind: the first
// number is the best so far and a later one replaces it only when
// types.Compare orders it strictly before (min) or after (max) — v <
// best, v > best on the payload for two INTs as for two FLOATs — so
// the first of equals wins (−0 = +0 included), a leading NaN is never
// replaced and a later one never chosen. The result keeps the column's
// type; NULL for a group with no number.
//
//sgb:allocfree
func extremeKernel[T int64 | float64](g *Grouping, vals []T, nulls []bool, min bool, kind types.Kind, bits func(T) uint64, to sink) {
	start := int32(0)
	for i, end := range g.ends {
		var best T
		seen := false
		for _, m := range g.members[start:end] {
			if len(nulls) != 0 && nulls[m] {
				continue
			}
			switch v := vals[m]; {
			case !seen:
				best, seen = v, true
			case min && v < best, !min && v > best:
				best = v
			}
		}
		if seen {
			to.put(i, kind, bits(best))
		}
		start = end
	}
}
