package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/types"
)

// FuzzExtract holds the similarity node's extraction over marked
// columns to the expression path it replaces. The first byte picks
// the number of attributes (1–3) and, with its top bit set, a suffix
// to extract instead of every row; then every nine bytes are one cell
// — a control byte choosing FLOAT, INT, DATE, BOOL, TEXT or NULL and
// eight payload bytes, any bit pattern, so INTs above 2^53, NaNs and
// bad cells in any attribute of any row all occur. Both nodes must
// give the same point bits and count, or the same error text. The
// marked node lends the fold an attribute's column exactly when it
// extracted every row and the column is FLOAT in all of them, and a
// lent column folds, bit for bit, as the column read from the rows.
func FuzzExtract(f *testing.F) {
	cell := func(ctl byte, payload uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{ctl}, payload)
	}
	join := func(head byte, cells ...[]byte) []byte {
		out := []byte{head}
		for _, c := range cells {
			out = append(out, c...)
		}
		return out
	}
	fb := math.Float64bits
	const big = uint64(1)<<53 + 1
	// Control bytes: 0–2 FLOAT, 3 INT, 4 DATE, 5 BOOL, 6 TEXT, 7 NULL.
	f.Add(join(1, cell(0, fb(1.5)), cell(1, fb(-2)), cell(2, fb(0.25)), cell(0, fb(math.Copysign(0, -1)))))
	f.Add(join(2, cell(3, big), cell(3, 1<<63), cell(3, 7), cell(3, big+2), cell(3, 0), cell(3, ^uint64(0))))
	f.Add(join(1, cell(0, fb(1)), cell(3, big), cell(0, fb(2)), cell(0, fb(3))))
	f.Add(join(1, cell(0, fb(1)), cell(0, fb(2)), cell(0, fb(3)), cell(7, 0), cell(6, 5), cell(0, fb(4))))
	f.Add(join(1, cell(6, 1), cell(7, 0), cell(0, fb(3)), cell(0, fb(4))))
	f.Add(join(2, cell(4, big), cell(5, 1), cell(0, fb(math.NaN())), cell(5, 0), cell(4, 0), cell(0, fb(math.Inf(-1)))))
	f.Add(join(0x80|1<<2|1, cell(0, fb(1)), cell(0, fb(2)), cell(0, fb(3)), cell(7, 0), cell(0, fb(5)), cell(0, fb(6))))
	f.Add(join(0x80|3<<2, cell(0, fb(1)), cell(0, fb(2)), cell(0, fb(3))))
	f.Add(join(0))
	f.Add(join(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+9*3*128 {
			return
		}
		head, d := data[0], 1+int(data[0]%3)
		// A row is a TEXT pad and then the d attributes: attribute i is
		// column i+1, marked i+2.
		var rows []types.Row
		row := types.Row{types.Text("pad")}
		for data = data[1:]; len(data) >= 9; data = data[9:] {
			payload := binary.LittleEndian.Uint64(data[1:9])
			switch data[0] & 7 {
			case 0, 1, 2:
				row = append(row, types.Float(math.Float64frombits(payload)))
			case 3:
				row = append(row, types.Int(int64(payload)))
			case 4:
				row = append(row, types.Date(int64(payload)))
			case 5:
				row = append(row, types.Bool(payload&1 == 1))
			case 6:
				row = append(row, types.Text(fmt.Sprint(payload%7)))
			default:
				row = append(row, types.Null())
			}
			if len(row) == 1+d {
				rows, row = append(rows, row), types.Row{types.Text("pad")}
			}
		}
		from := 0
		if head&0x80 != 0 {
			from = int(head>>2&0x1f) % (len(rows) + 1)
		}
		checkExtract(t, rows, d, from)
	})
}

// checkExtract is FuzzExtract's oracle over rows of a pad column and d
// attributes, extracted from row from on.
func checkExtract(t *testing.T, rows []types.Row, d, from int) {
	t.Helper()
	exprs, marks := make([]Scalar, d), make([]int, d)
	var aggs []AggSpec
	for i := range exprs {
		exprs[i], marks[i] = col(i+1), i+2
		for _, kind := range []AggKind{AggSum, AggAvg, AggMin, AggMax} {
			aggs = append(aggs, AggSpec{Kind: kind, Args: []Scalar{col(i + 1)}, ArgCol: i + 2})
		}
	}
	var sts [2]core.Stats
	marked := &SGB{GroupExprs: exprs, GroupCols: marks, Aggs: aggs, Opt: core.Options{Stats: &sts[0]}}
	bare := &SGB{GroupExprs: exprs, Aggs: aggs, Opt: core.Options{Stats: &sts[1]}}
	in, ref := newFoldInput(rows), newFoldInput(rows)
	defer in.release()
	defer ref.release()
	got, err := marked.extract(rows, from, in)
	want, wantErr := bare.extract(rows, from, ref)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("from %d: marked extraction fails with %v, the expressions with %v", from, err, wantErr)
	}
	if sts[0] != sts[1] {
		t.Fatalf("from %d: marked extraction charged %+v, the expressions %+v", from, sts[0], sts[1])
	}
	for c := range ref.vecs {
		if ref.vecs[c].read {
			t.Fatalf("the unmarked node lent column %d", c)
		}
	}
	if err != nil {
		return
	}
	a, b := got.Data(), want.Data()
	if got.Dims() != want.Dims() || len(a) != len(b) {
		t.Fatalf("from %d: %d points of %d dims, the expressions give %d of %d", from, got.Len(), got.Dims(), want.Len(), want.Dims())
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			t.Fatalf("from %d: coordinate %d of point %d is %v, the expressions give %v", from, k%d, k/d, a[k], b[k])
		}
	}
	// Groups of three rows in order, the last one shorter.
	var groups []core.Group
	for r := 0; r < len(rows); r += 3 {
		var members []int32
		for m := r; m < len(rows) && m < r+3; m++ {
			members = append(members, int32(m))
		}
		groups = append(groups, core.Group{Members: members})
	}
	g := groupingOf(groups)
	for i := 0; i < d; i++ {
		allFloat := true
		for _, row := range rows {
			allFloat = allFloat && row[i+1].Kind == types.KindFloat
		}
		c := i + 1
		if lent := c < len(in.vecs) && in.vecs[c].read; lent != (from == 0 && allFloat) {
			t.Fatalf("from %d: attribute %d lent %v, its column FLOAT in every row %v", from, i, lent, allFloat)
		}
		if from != 0 || !allFloat {
			continue
		}
		v, w := in.vector(c), ref.vector(c)
		if v.kind != w.kind || len(v.floats) != len(w.floats) || len(v.ints) != len(w.ints) || len(v.nulls) != len(w.nulls) {
			t.Fatalf("attribute %d: lent vector %v/%d/%d/%d, read %v/%d/%d/%d", i, v.kind, len(v.floats), len(v.ints), len(v.nulls), w.kind, len(w.floats), len(w.ints), len(w.nulls))
		}
		for _, a := range aggs[4*i : 4*i+4] {
			x, err := g.foldColumn(a, in, nil, true)
			y, wantErr := g.foldColumn(a, ref, nil, true)
			if err != nil || wantErr != nil {
				t.Fatalf("attribute %d, aggregate %d: %v, %v", i, a.Kind, err, wantErr)
			}
			for k := range groups {
				p, q := x.at(k), y.at(k)
				if p.Kind != q.Kind || p.I != q.I || math.Float64bits(p.F) != math.Float64bits(q.F) {
					t.Fatalf("attribute %d, aggregate %d, group %d: %#v over the lent column, %#v over the rows", i, a.Kind, k, p, q)
				}
			}
		}
	}
}
