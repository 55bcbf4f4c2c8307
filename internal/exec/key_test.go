package exec

import (
	"math"
	"testing"

	"github.com/sgb-db/sgb/internal/types"
)

// TestEqualityKeyEncoding pins which rows share a GROUP BY / DISTINCT /
// hash-join key: numerics that are the same number, whatever their
// kind; every NaN; nothing else.
func TestEqualityKeyEncoding(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	if !math.IsNaN(otherNaN) {
		t.Fatal("second NaN payload is not a NaN")
	}
	same := [][]types.Row{
		{{types.Int(2)}, {types.Float(2)}, {types.Date(2)}},
		{{types.Int(0)}, {types.Float(0)}, {types.Float(negZero)}},
		{{types.Float(math.NaN())}, {types.Float(otherNaN)}},
		{{types.Int(1 << 53)}, {types.Float(0x1p53)}},
		{{types.Interval(1, 2)}, {types.Interval(1, 2)}},
	}
	for _, rows := range same {
		for _, r := range rows[1:] {
			if string(appendRowKey(nil, rows[0])) != string(appendRowKey(nil, r)) {
				t.Errorf("%v and %v have different keys", rows[0], r)
			}
		}
	}
	distinct := []types.Row{
		{types.Int(1 << 53)}, {types.Int(1<<53 + 1)}, {types.Date(1<<53 + 2)},
		{types.Int(math.MaxInt64)}, {types.Float(0x1p63)},
		{types.Float(math.NaN())}, {types.Float(math.Inf(1))}, {types.Float(math.Inf(-1))},
		{types.Float(0.5)}, {types.Float(-0.5)},
		{types.Null()}, {types.Int(0)}, {types.Bool(false)}, {types.Bool(true)}, {types.Text("")},
		{types.Interval(1, 2)}, {types.Interval(2, 1)},
		// Column boundaries are part of the key.
		{types.Text("ab"), types.Text("")}, {types.Text("a"), types.Text("b")}, {types.Text(""), types.Text("ab")},
		{types.Text("a|4:b")}, {types.Int(1), types.Int(2)}, {types.Int(2), types.Int(1)},
	}
	seen := map[string]types.Row{}
	for _, r := range distinct {
		k := string(appendRowKey(nil, r))
		if prev, dup := seen[k]; dup {
			t.Errorf("%v and %v share a key", prev, r)
		}
		seen[k] = r
	}
}

// TestEqualityKeysAbove2p53: float64 holds 53 bits, so keys folded into
// floats merged 2⁵³ and 2⁵³ + 1 in GROUP BY, DISTINCT and the hash join.
func TestEqualityKeysAbove2p53(t *testing.T) {
	const big = int64(1) << 53
	rows := func() Operator { return &ValuesOp{Rows: rowsOf([]int64{big, 1}, []int64{big + 1, 2})} }

	got, err := Run(&HashAgg{Input: rows(), Groups: []Scalar{col(0)}, Aggs: []AggSpec{{Kind: AggCountStar}}})
	if err != nil || len(got) != 2 || got[0][0].I != big || got[1][0].I != big+1 || got[0][1].I != 1 || got[1][1].I != 1 {
		t.Errorf("GROUP BY: %v, %v", got, err)
	}
	got, err = Run(&Distinct{Input: &Project{Input: rows(), Exprs: []Scalar{col(0)}}})
	if err != nil || len(got) != 2 {
		t.Errorf("DISTINCT: %v, %v", got, err)
	}
	got, err = Run(&HashJoin{Left: rows(), Right: rows(), LeftKeys: []Scalar{col(0)}, RightKeys: []Scalar{col(0)}})
	if err != nil || len(got) != 2 {
		t.Fatalf("JOIN: %v, %v", got, err)
	}
	for _, r := range got {
		if r[0].I != r[2].I || r[1].I != r[3].I {
			t.Errorf("JOIN paired %v", r)
		}
	}
}

// TestEqualityKeysZeroAndNaN: −0.0, +0.0 and the integer 0 are one
// group, reported under its first-seen value; the NaNs are another.
// Each output row carries its own group's key, not the scratch row's
// last contents.
func TestEqualityKeysZeroAndNaN(t *testing.T) {
	src := &ValuesOp{Rows: []types.Row{
		{types.Float(math.Copysign(0, -1))}, {types.Float(math.NaN())}, {types.Float(0)},
		{types.Int(0)}, {types.Float(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1))}, {types.Float(1.5)},
	}}
	got, err := Run(&HashAgg{Input: src, Groups: []Scalar{col(0)}, Aggs: []AggSpec{{Kind: AggCountStar}}})
	if err != nil || len(got) != 3 {
		t.Fatalf("GROUP BY: %v, %v", got, err)
	}
	if z := got[0]; z[0].Kind != types.KindFloat || z[0].F != 0 || !math.Signbit(z[0].F) || z[1].I != 3 {
		t.Errorf("zero group = %v, want [-0 3]", z)
	}
	if n := got[1]; !math.IsNaN(n[0].F) || n[1].I != 2 {
		t.Errorf("NaN group = %v, want [NaN 2]", n)
	}
	if r := got[2]; r[0].F != 1.5 || r[1].I != 1 {
		t.Errorf("last group = %v, want [1.5 1]", r)
	}
}
