package exec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/types"
)

// groupingOf lays groups out as a Grouping, in order: the layout
// NewGrouping adopts from a core.Result, built here from groups no
// evaluation produced.
func groupingOf(groups []core.Group) *Grouping {
	g := &Grouping{ends: make([]int32, len(groups))}
	for i, grp := range groups {
		g.members = append(g.members, grp.Members...)
		g.ends[i] = int32(len(g.members))
	}
	return g
}

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
	groups := []core.Group{{Members: []int32{3, 0}}, {Members: []int32{2}}, {Members: []int32{4, 1}}}
	g := groupingOf(groups)
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
	g := groupingOf([]core.Group{{Members: []int32{0, 2}}, {Members: []int32{1}}})
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

// TestGroupingAdoptsLayout: NewGrouping adopts a core result's member
// run and ends, sharing their backing arrays, and a grouping hook that
// hands back a Result built outside core — whose groups are no windows
// of a layout — is refused with an error, single-ε and swept.
func TestGroupingAdoptsLayout(t *testing.T) {
	ps := geom.NewPointSet(1)
	rows := make([]types.Row, 12)
	for i := range rows {
		x := float64(i/3) * 10
		ps.AppendPoint(geom.Point{x})
		rows[i] = types.Row{types.Float(x)}
	}
	res, err := core.SGBAnySet(ps, core.Options{Metric: geom.L2, Eps: 1, Algorithm: core.GridIndex})
	if err != nil {
		t.Fatal(err)
	}
	members, ends := res.Layout()
	g := NewGrouping(res)
	if g.Len() != 4 || len(g.members) != len(rows) || &g.members[0] != &members[0] || &g.ends[0] != &ends[0] {
		t.Fatalf("the grouping does not share the result's layout: %d groups, %d members", g.Len(), len(g.members))
	}
	if &res.Groups[1].Members[0] != &g.members[3] {
		t.Fatal("the result's groups are not windows of the run the grouping keeps")
	}

	copied := *res // the layout, beside groups of which one is a copy
	copied.Groups = slices.Clone(res.Groups)
	copied.Groups[2].Members = slices.Clone(res.Groups[2].Members)
	opt := core.Options{Metric: geom.L2, Eps: 1, Algorithm: core.GridIndex}
	for name, hooked := range map[string]*core.Result{
		"a core result":      res,
		"no groups":          {},
		"hand-built":         {Groups: []core.Group{{Members: []int32{0, 1, 2}}}},
		"a group dropped":    {Groups: res.Groups[1:]},
		"a group copied out": &copied,
	} {
		for _, sweep := range []bool{false, true} {
			s := &SGB{Input: &ValuesOp{Rows: rows}, GroupExprs: []Scalar{col(0)}, Any: true, Opt: opt,
				Aggs: []AggSpec{{Kind: AggCountStar}}}
			if sweep {
				s.EpsList = []float64{1}
				s.SweepGroup = func(*geom.PointSet, int64) ([]*core.Result, error) { return []*core.Result{hooked}, nil }
			} else {
				s.Group = func(*geom.PointSet, int64) (*core.Result, error) { return hooked, nil }
			}
			got, err := Run(s)
			if ok := name == "a core result" || name == "no groups"; ok != (err == nil) {
				t.Fatalf("%s, sweep %t: %d rows, error %v", name, sweep, len(got), err)
			}
		}
	}
}
