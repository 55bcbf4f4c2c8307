package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/types"
)

// foldKinds are the aggregates the typed kernels cover.
var foldKinds = []AggKind{AggCountStar, AggCount, AggSum, AggAvg, AggMin, AggMax}

// argCol is the input column the differential suite aggregates over:
// not column 0, so that a kernel reading the wrong column would show.
const argCol = 1

// specOver returns the aggregate of the given kind over column argCol
// as the planner builds it for a bare column reference.
func specOver(kind AggKind) AggSpec {
	if kind == AggCountStar {
		return AggSpec{Kind: kind}
	}
	return AggSpec{Kind: kind, Args: []Scalar{col(argCol)}, ArgCol: argCol + 1}
}

// sameValue is == on types.Value with floats compared by bit pattern,
// so that −0 differs from +0, and any NaN equal to any other: which
// payload NaN + NaN keeps is the operand order the compiler picks for
// one commutative ADDSD, not a property of either fold.
func sameValue(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && a.B == b.B &&
		(math.Float64bits(a.F) == math.Float64bits(b.F) || (a.F != a.F && b.F != b.F))
}

// rowsWith puts vals in column argCol of otherwise unrelated rows.
func rowsWith(vals ...types.Value) []types.Row {
	rows := make([]types.Row, len(vals))
	for i, v := range vals {
		rows[i] = types.Row{types.Text("pad"), v, types.Int(int64(i))}
	}
	return rows
}

// checkFold is the differential oracle: for every kernel kind, the
// result of folding column argCol of rows over groups through
// foldColumn (a packed column when the input is typed) and through the
// Value sink must equal, value for value, what the accumulators alone
// produce — or fail with their error. It reports whether the column
// took the typed path.
func checkFold(t testing.TB, rows []types.Row, groups []core.Group) (typed bool) {
	t.Helper()
	g := groupingOf(groups)
	members := int64(len(g.members))
	for _, kind := range foldKinds {
		spec := specOver(kind)
		want := make([]types.Value, len(groups))
		wantErr := g.fold([]AggSpec{spec}, rows, nil, want, 1)

		// A recycled input: its buffers hold whatever the last column
		// folded through the pool left there.
		in := newFoldInput(rows)
		defer in.release()
		var st core.Stats
		got, err := g.foldColumn(spec, in, &st, true)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("aggregate %d: error %v, the accumulator's is %v", kind, err, wantErr)
		}
		if err != nil {
			continue
		}
		if st.RowsFolded != members {
			t.Fatalf("aggregate %d: charged %d rows folded, want %d", kind, st.RowsFolded, members)
		}
		for i := range groups {
			if !sameValue(got.at(i), want[i]) {
				t.Fatalf("aggregate %d, group %d: column holds %#v, the accumulator gives %#v", kind, i, got.at(i), want[i])
			}
		}
		if !in.typed(spec) {
			continue
		}
		if kind != AggCountStar {
			typed = true
		}
		if got.vals != nil {
			t.Fatalf("aggregate %d: a typed fold left a boxed column", kind)
		}
		// The Value sink: every third cell from the second on; the
		// cells between stay untouched.
		const stride = 3
		dst := make([]types.Value, len(groups)*stride)
		if len(groups) > 0 {
			g.foldTyped(spec, in, sink{vals: dst[1:], stride: stride})
		}
		for i := range groups {
			if !sameValue(dst[i*stride+1], want[i]) {
				t.Fatalf("aggregate %d, group %d: row cell holds %#v, the accumulator gives %#v", kind, i, dst[i*stride+1], want[i])
			}
			if dst[i*stride] != (types.Value{}) || dst[i*stride+2] != (types.Value{}) {
				t.Fatalf("aggregate %d, group %d: the fold wrote outside its column", kind, i)
			}
		}
	}
	return typed
}

// TestTypedFoldMatchesAccumulators is the differential fold: every
// kernel kind over every column shape the kernels distinguish, against
// the accumulators, in both sinks — and the shapes that must fall back
// do.
func TestTypedFoldMatchesAccumulators(t *testing.T) {
	f, n, null := types.Float, types.Int, types.Null()
	nan, inf := math.NaN(), math.Inf(1)
	const big = int64(1) << 53
	run := func(members ...int32) core.Group { return core.Group{Members: members} }
	cases := []struct {
		name   string
		vals   []types.Value
		groups []core.Group
		typed  bool
	}{
		{"all FLOAT", []types.Value{f(1.5), f(-2.25), f(1e300), f(3), f(1e-300)}, []core.Group{run(4, 0, 2), run(3, 1)}, true},
		{"all INT", []types.Value{n(4), n(-9), n(0), n(7), n(7)}, []core.Group{run(1, 3), run(0, 4, 2)}, true},
		{"FLOAT with NULLs", []types.Value{f(2), null, f(-1), null, f(8)}, []core.Group{run(0, 1, 2), run(3, 4)}, true},
		{"INT with a leading NULL", []types.Value{null, n(5), n(-5), null}, []core.Group{run(0, 1), run(3, 2)}, true},
		{"all NULL", []types.Value{null, null, null}, []core.Group{run(0, 2), run(1)}, true},
		{"a group of only NULLs", []types.Value{n(1), null, null, n(2)}, []core.Group{run(1, 2), run(0, 3)}, true},
		{"empty grouping", []types.Value{f(1), f(2)}, nil, true},
		{"no rows", nil, nil, true},
		{"a group without members", []types.Value{f(1), f(2)}, []core.Group{run(), run(1, 0)}, true},
		{"single-member groups", []types.Value{f(3), f(-0.0), f(inf)}, []core.Group{run(2), run(0), run(1)}, true},
		{"rows outside every group", []types.Value{n(1), n(2), n(3), n(4)}, []core.Group{run(3, 1)}, true},
		{"negative zero first", []types.Value{f(math.Copysign(0, -1)), f(0)}, []core.Group{run(0, 1), run(0), run(0, 0)}, true},
		{"positive zero first", []types.Value{f(0), f(math.Copysign(0, -1))}, []core.Group{run(0, 1)}, true},
		{"infinities", []types.Value{f(inf), f(-inf), f(1)}, []core.Group{run(0, 1), run(2, 0), run(1, 2)}, true},
		{"NaN first", []types.Value{f(nan), f(1), f(-1)}, []core.Group{run(0, 1, 2)}, true},
		{"NaN later", []types.Value{f(1), f(nan), f(-1), f(2)}, []core.Group{run(0, 1, 2, 3), run(2, 1)}, true},
		{"INT sum wraps", []types.Value{n(math.MaxInt64), n(1), n(math.MinInt64), n(-1)}, []core.Group{run(0, 1), run(2, 3), run(0, 1, 2, 3)}, true},
		{"INT beyond 2^53", []types.Value{n(big), n(big + 1), n(-big - 1), n(-big)}, []core.Group{run(0, 1), run(1, 0), run(3, 2), run(2, 3)}, true},
		{"mixed INT and FLOAT", []types.Value{n(1), f(2.5), n(3)}, []core.Group{run(0, 1, 2)}, false},
		{"FLOAT then INT after NULLs", []types.Value{null, f(1), null, n(2)}, []core.Group{run(0, 1), run(2, 3)}, false},
		{"TEXT", []types.Value{types.Text("b"), types.Text("a")}, []core.Group{run(0, 1)}, false},
		{"a TEXT among INTs", []types.Value{n(1), types.Text("a")}, []core.Group{run(0, 1)}, false},
		{"BOOL", []types.Value{types.Bool(true), types.Bool(false)}, []core.Group{run(0, 1)}, false},
		{"DATE", []types.Value{types.Date(10), types.Date(big + 1), types.Date(big)}, []core.Group{run(0, 1, 2)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if typed := checkFold(t, rowsWith(tc.vals...), tc.groups); typed != tc.typed && len(tc.vals) > 0 {
				t.Fatalf("typed path taken: %v, want %v", typed, tc.typed)
			}
		})
	}
}

// TestTypedFoldSelection: what the planner did not mark, what the
// kernels do not cover, and a row too short to hold the column all
// stay with the accumulators — and asking reads no column.
func TestTypedFoldSelection(t *testing.T) {
	rows := rowsWith(types.Int(1), types.Int(2))
	for _, spec := range []AggSpec{
		{Kind: AggSum, Args: []Scalar{col(argCol)}},                                        // the planner promised nothing
		{Kind: AggArrayAgg, Args: []Scalar{col(argCol)}, ArgCol: argCol + 1},               // no kernel
		{Kind: AggSTPolygon, Args: []Scalar{col(argCol), col(argCol)}, ArgCol: argCol + 1}, // no kernel
	} {
		in := &foldInput{rows: rows}
		if in.typed(spec) || in.typedAll([]AggSpec{specOver(AggAvg), spec}) || len(in.vecs) != 0 {
			t.Errorf("aggregate %+v: admitted to the typed path, or a column was read for it", spec)
		}
	}
	short := append(rowsWith(types.Int(1)), types.Row{types.Text("pad")})
	if in := (&foldInput{rows: short}); in.typed(specOver(AggSum)) {
		t.Error("a column some row does not have was admitted to the typed path")
	}
	// One read per column, whatever asks.
	in := &foldInput{rows: rows}
	in.typedAll([]AggSpec{specOver(AggAvg), specOver(AggMax), specOver(AggCountStar)})
	v := &in.vecs[argCol]
	v.ints[0] = 41
	if in.typed(specOver(AggSum)); v.ints[0] != 41 || len(v.nulls) != 0 || len(v.floats) != 0 {
		t.Error("the column was read again, or a mask or float payload was sized for an INT column without NULLs")
	}
	// A released input forgets its rows and what it read, and keeps the
	// buffers for the statement that gets it next.
	in.release()
	if in.rows != nil || v.read || cap(v.ints) < len(rows) {
		t.Error("release kept the rows or the column, or dropped the buffer")
	}
}

// TestSGBNodeFoldsTypedAndBoxedAlike runs the similarity node over the
// same rows with the planner's column marks and without them — the
// aggregates' alone, and theirs with the grouping attributes', which
// has the node read the points in place and lend the fold the FLOAT
// columns it grouped on — through a shared grouping (packed, memoized
// columns, the hook extracting every point as a cache entry's build
// does) and through a private one (straight into the rows), single-ε
// and as a sweep: the same output every time, the same RowsFolded and
// PointsExtracted, and the same points.
func TestSGBNodeFoldsTypedAndBoxedAlike(t *testing.T) {
	var rows []types.Row
	var groups []core.Group
	for g := 0; g < 30; g++ {
		var members []int32
		for m := 0; m <= g%4; m++ {
			members = append(members, int32(len(rows)))
			v := types.Null()
			if (g+m)%5 != 0 {
				v = types.Int(int64(g*7 - m*m))
			}
			rows = append(rows, types.Row{types.Float(float64(g)), v, types.Float(float64(m) / 3)})
		}
		groups = append(groups, core.Group{Members: members})
	}
	var marked, bare []AggSpec
	for c := 0; c <= 2; c++ {
		for _, kind := range foldKinds[1:] {
			a := AggSpec{Kind: kind, Args: []Scalar{col(c)}, Key: fmt.Sprint(kind, c), ArgCol: c + 1}
			marked = append(marked, a)
			a.ArgCol = 0
			bare = append(bare, a)
		}
	}
	marked = append(marked, AggSpec{Kind: AggCountStar, Key: "count(*)"})
	bare = append(bare, AggSpec{Kind: AggCountStar, Key: "count(*)"})
	arms := []struct {
		name      string
		aggs      []AggSpec
		groupCols []int
	}{{"unmarked", bare, nil}, {"aggregates marked", marked, nil}, {"all marked", marked, []int{1, 3}}}
	for _, eps := range [][]float64{nil, {0.25, 0.5}} {
		var want []types.Row
		var wantPoints []float64
		var wantFolded, wantExtracted int64
		for _, arm := range arms {
			for _, share := range []bool{false, true} {
				var st core.Stats
				s := &SGB{Input: &ValuesOp{Rows: rows}, GroupExprs: []Scalar{col(0), col(2)}, GroupCols: arm.groupCols,
					Any: true, Opt: core.Options{Eps: 0.5, Stats: &st}, Aggs: arm.aggs, EpsList: eps}
				var points []float64
				if share {
					gs := []*Grouping{groupingOf(groups)}
					if eps != nil {
						gs = append(gs, groupingOf(groups[:7]))
					}
					s.Answer = func(src Snapshot) ([]*Grouping, error) {
						ps, err := src.Points(0)
						if err != nil {
							return nil, err
						}
						points = ps.Data()
						return gs, nil
					}
				} else {
					s.Group = func(ps *geom.PointSet, _ int64) (*core.Result, error) {
						points = ps.Data()
						return core.SGBAnySet(ps, s.Opt)
					}
					s.SweepGroup = func(ps *geom.PointSet, _ int64) ([]*core.Result, error) {
						points = ps.Data()
						return core.SweepAnySet(ps, eps, s.Opt)
					}
				}
				got, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				if wantPoints == nil {
					wantPoints, wantExtracted = points, st.PointsExtracted
				}
				if !slices.Equal(points, wantPoints) || st.PointsExtracted != wantExtracted {
					t.Fatalf("eps %v, %s, shared %v: extracted %d points %v, want %d: %v", eps, arm.name, share, st.PointsExtracted, points, wantExtracted, wantPoints)
				}
				if share && eps != nil {
					continue // other groups than the private sweep finds: only that it runs
				}
				if want == nil && !share {
					want, wantFolded = got, st.RowsFolded
				}
				if len(got) != len(want) || st.RowsFolded != wantFolded {
					t.Fatalf("eps %v, %s, shared %v: %d rows and %d rows folded, want %d and %d", eps, arm.name, share, len(got), st.RowsFolded, len(want), wantFolded)
				}
				for r := range got {
					for c := range got[r] {
						if !sameValue(got[r][c], want[r][c]) {
							t.Fatalf("eps %v, %s, shared %v: row %d column %d is %#v, want %#v", eps, arm.name, share, r, c, got[r][c], want[r][c])
						}
					}
				}
			}
		}
	}
}

// FuzzFold drives the differential oracle with arbitrary columns: the
// first byte picks the column's kind, then every nine bytes are one row
// — a control byte (NULL, the other numeric kind, TEXT; where a group
// ends; whether the row joins its group at the front) and the eight
// payload bytes of its number, any bit pattern, so infinities, −0,
// NaNs and sums that wrap or cancel all occur.
func FuzzFold(f *testing.F) {
	row := func(ctl byte, payload uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{ctl}, payload)
	}
	join := func(kind byte, rows ...[]byte) []byte {
		out := []byte{kind}
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	fb := math.Float64bits
	f.Add(join(0, row(0, fb(1.5)), row(0, fb(-2)), row(0x10, fb(4)), row(0, fb(0.1)), row(0x20, fb(0.2))))
	f.Add(join(1, row(0, 7), row(0x20, ^uint64(0)), row(0x10, 1<<62), row(0, 1<<62), row(0, 1<<62)))
	f.Add(join(0, row(1, 0), row(0, fb(math.Inf(1))), row(0, fb(math.Inf(-1))), row(0x10, fb(math.NaN())), row(0, fb(1))))
	f.Add(join(1, row(1, 0), row(0x11, 0), row(0, 1<<53), row(0x20, 1<<53+1)))
	f.Add(join(0, row(0, 1<<63), row(0x20, 0), row(0x10, 0), row(0, 1<<63)))
	f.Add(join(0, row(0, fb(1)), row(2, 3)))
	f.Add(join(1, row(0, 1), row(3, 0)))
	f.Add(join(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+9*512 {
			return
		}
		isInt := data[0]&1 == 1
		var vals []types.Value
		var groups []core.Group
		var cur []int32
		for data = data[1:]; len(data) >= 9; data = data[9:] {
			ctl, payload := data[0], binary.LittleEndian.Uint64(data[1:9])
			number := func(asInt bool) types.Value {
				if asInt {
					return types.Int(int64(payload))
				}
				return types.Float(math.Float64frombits(payload))
			}
			id := int32(len(vals))
			switch ctl & 3 {
			case 0:
				vals = append(vals, number(isInt))
			case 1:
				vals = append(vals, types.Null())
			case 2:
				vals = append(vals, number(!isInt))
			default:
				vals = append(vals, types.Text(fmt.Sprint(payload%7)))
			}
			if ctl&0x20 != 0 {
				cur = append([]int32{id}, cur...)
			} else {
				cur = append(cur, id)
			}
			if ctl&0x10 != 0 {
				groups, cur = append(groups, core.Group{Members: cur}), nil
			}
		}
		if cur != nil {
			groups = append(groups, core.Group{Members: cur})
		}
		checkFold(t, rowsWith(vals...), groups)
	})
}
