package exec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/types"
)

// freshFold is the reference: a new accumulator per group, rows added
// in member order.
func freshFold(a AggSpec, groups []core.Group, rows []types.Row) []types.Value {
	out := make([]types.Value, len(groups))
	for i, g := range groups {
		acc := a.newAccumulator()
		for _, m := range g.Members {
			if err := acc.add(rows[m]); err != nil {
				panic(err)
			}
		}
		out[i] = acc.result()
	}
	return out
}

// TestGroupingMemoMatchesFreshFold folds every aggregate kind through a
// shared Grouping — first request, memoized repeat — and requires the
// values of a fresh per-group fold, including the cases the packed
// column must carry exactly: NULL results, mixed INT/FLOAT sums,
// negative zero, and text (which stays boxed).
func TestGroupingMemoMatchesFreshFold(t *testing.T) {
	rows := []types.Row{
		{types.Int(3), types.Float(-0.0), types.Text("a")},
		{types.Int(-7), types.Float(2.5), types.Text("b")},
		{types.Null(), types.Null(), types.Null()},
		{types.Int(math.MaxInt64), types.Float(1e-300), types.Text("c")},
		{types.Int(1), types.Float(math.MaxFloat64), types.Text("d")},
	}
	groups := []core.Group{{Members: []int{3, 0}}, {Members: []int{2}}, {Members: []int{4, 1}}}
	g := NewGrouping(groups)
	var specs []AggSpec
	for c := 0; c < 3; c++ {
		for _, k := range []AggKind{AggCount, AggMin, AggMax, AggArrayAgg} {
			specs = append(specs, AggSpec{Kind: k, Args: []Scalar{col(c)}, Key: fmt.Sprint(k, c)})
		}
	}
	for c := 0; c < 2; c++ {
		specs = append(specs,
			AggSpec{Kind: AggSum, Args: []Scalar{col(c)}, Key: fmt.Sprint("sum", c)},
			AggSpec{Kind: AggAvg, Args: []Scalar{col(c)}, Key: fmt.Sprint("avg", c)})
	}
	specs = append(specs,
		AggSpec{Kind: AggCountStar, Key: "count(*)"},
		AggSpec{Kind: AggArrayAgg, Args: []Scalar{col(2)}}) // unkeyed: never memoized
	for pass := 0; pass < 2; pass++ {
		var st core.Stats
		for _, a := range specs {
			c, err := g.column(a, &foldInput{rows: rows}, &st)
			if err != nil {
				t.Fatal(err)
			}
			want := freshFold(a, groups, rows)
			for i := range groups {
				got := c.at(i)
				if !reflect.DeepEqual(got, want[i]) || math.Signbit(got.F) != math.Signbit(want[i].F) {
					t.Fatalf("pass %d, aggregate %q, group %d: got %#v, want %#v", pass, a.Key, i, got, want[i])
				}
			}
		}
		wantFolded := int64(len(specs) * 5)
		if pass == 1 {
			wantFolded = 5 // only the unkeyed aggregate folds again
		}
		if st.RowsFolded != wantFolded {
			t.Fatalf("pass %d folded %d rows, want %d", pass, st.RowsFolded, wantFolded)
		}
	}
}

// TestGroupingMemoBound: the aggregate past maxMemoAggs is answered
// correctly, folds on every request, and leaves the memo at its bound.
func TestGroupingMemoBound(t *testing.T) {
	rows := rowsOf([]int64{1}, []int64{2}, []int64{3})
	g := NewGrouping([]core.Group{{Members: []int{0, 2}}, {Members: []int{1}}})
	plus := func(k int64) Scalar {
		return func(row types.Row) (types.Value, error) { return types.Int(row[0].I + k), nil }
	}
	for pass := 0; pass < 2; pass++ {
		for k := int64(0); k <= maxMemoAggs; k++ {
			var st core.Stats
			c, err := g.column(AggSpec{Kind: AggSum, Args: []Scalar{plus(k)}, Key: fmt.Sprint("sum", k)}, &foldInput{rows: rows}, &st)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := c.at(0).I, 4+2*k; got != want {
				t.Fatalf("sum(a + %d) over group 0 = %d, want %d", k, got, want)
			}
			memoized := k < maxMemoAggs
			if folded := st.RowsFolded > 0; folded == (memoized && pass == 1) {
				t.Fatalf("pass %d, aggregate %d: folded = %v", pass, k, folded)
			}
		}
		if len(g.cols) != maxMemoAggs {
			t.Fatalf("memo holds %d columns, want the bound %d", len(g.cols), maxMemoAggs)
		}
	}
}
