package exec

import (
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

func col(i int) Scalar {
	return func(row types.Row) (types.Value, error) { return row[i], nil }
}

func constant(v types.Value) Scalar {
	return func(types.Row) (types.Value, error) { return v, nil }
}

func rowsOf(vals ...[]int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, vs := range vals {
		r := make(types.Row, len(vs))
		for j, v := range vs {
			r[j] = types.Int(v)
		}
		out[i] = r
	}
	return out
}

func TestSeqScan(t *testing.T) {
	tab := storage.NewTable("t", storage.Schema{{Name: "a", Type: types.KindInt}})
	tab.MustInsert(types.Row{types.Int(1)})
	tab.MustInsert(types.Row{types.Int(2)})
	got, err := Run(&SeqScan{Table: tab})
	if err != nil || len(got) != 2 {
		t.Fatalf("scan: %v, %v", got, err)
	}
	// Re-open rescans.
	got, err = Run(&SeqScan{Table: tab})
	if err != nil || len(got) != 2 {
		t.Fatalf("rescan: %v, %v", got, err)
	}
}

func TestFilterProjectLimit(t *testing.T) {
	src := &ValuesOp{Rows: rowsOf([]int64{1}, []int64{2}, []int64{3}, []int64{4})}
	pred := func(row types.Row) (types.Value, error) {
		return types.Bool(row[0].I%2 == 0), nil
	}
	double := func(row types.Row) (types.Value, error) {
		return types.Int(row[0].I * 2), nil
	}
	op := &Limit{N: 1, Input: &Project{Exprs: []Scalar{double}, Input: &Filter{Pred: pred, Input: src}}}
	got, err := Run(op)
	if err != nil || len(got) != 1 || got[0][0].I != 4 {
		t.Fatalf("pipeline: %v, %v", got, err)
	}
}

func TestDistinctOp(t *testing.T) {
	src := &ValuesOp{Rows: rowsOf([]int64{1, 2}, []int64{1, 2}, []int64{1, 3})}
	got, err := Run(&Distinct{Input: src})
	if err != nil || len(got) != 2 {
		t.Fatalf("distinct: %v, %v", got, err)
	}
	// Int/Float canonicalization: 2 and 2.0 are duplicates.
	mixed := &ValuesOp{Rows: []types.Row{{types.Int(2)}, {types.Float(2)}}}
	got, err = Run(&Distinct{Input: mixed})
	if err != nil || len(got) != 1 {
		t.Fatalf("mixed distinct: %v, %v", got, err)
	}
}

func TestSortOp(t *testing.T) {
	src := &ValuesOp{Rows: rowsOf([]int64{3, 1}, []int64{1, 2}, []int64{3, 0}, []int64{2, 5})}
	op := &Sort{Input: src, Keys: []SortKey{{Expr: col(0), Desc: true}, {Expr: col(1)}}}
	got, err := Run(op)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{3, 0}, {3, 1}, {2, 5}, {1, 2}}
	for i, w := range want {
		if got[i][0].I != w[0] || got[i][1].I != w[1] {
			t.Fatalf("sort[%d] = %v, want %v", i, got[i], w)
		}
	}
}

func TestHashJoinOp(t *testing.T) {
	left := &ValuesOp{Rows: rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{2, 21})}
	right := &ValuesOp{Rows: rowsOf([]int64{2, 200}, []int64{3, 300}, []int64{2, 201})}
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys:  []Scalar{col(0)},
		RightKeys: []Scalar{col(0)},
	}
	got, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // keys 2x2 matching
		t.Fatalf("join rows = %d: %v", len(got), got)
	}
	for _, row := range got {
		if len(row) != 4 || row[0].I != row[2].I {
			t.Fatalf("bad join row %v", row)
		}
	}
	// Residual filters out half.
	j2 := &HashJoin{
		Left: left, Right: right,
		LeftKeys:  []Scalar{col(0)},
		RightKeys: []Scalar{col(0)},
		Residual: func(row types.Row) (types.Value, error) {
			return types.Bool(row[1].I == 20 && row[3].I == 200), nil
		},
	}
	got, err = Run(j2)
	if err != nil || len(got) != 1 {
		t.Fatalf("residual join: %v, %v", got, err)
	}
}

func TestNestedLoopJoinOp(t *testing.T) {
	left := &ValuesOp{Rows: rowsOf([]int64{1}, []int64{2})}
	right := &ValuesOp{Rows: rowsOf([]int64{10}, []int64{20})}
	// Cross join (nil cond).
	got, err := Run(&NestedLoopJoin{Left: left, Right: right})
	if err != nil || len(got) != 4 {
		t.Fatalf("cross: %v, %v", got, err)
	}
	// Conditional.
	got, err = Run(&NestedLoopJoin{
		Left:  &ValuesOp{Rows: rowsOf([]int64{1}, []int64{2})},
		Right: &ValuesOp{Rows: rowsOf([]int64{10}, []int64{20})},
		Cond: func(row types.Row) (types.Value, error) {
			return types.Bool(row[0].I*10 == row[1].I), nil
		},
	})
	if err != nil || len(got) != 2 {
		t.Fatalf("cond: %v, %v", got, err)
	}
}

func TestHashAggGrouped(t *testing.T) {
	src := &ValuesOp{Rows: rowsOf(
		[]int64{1, 10}, []int64{1, 20}, []int64{2, 5}, []int64{2, 7}, []int64{3, 1},
	)}
	agg := &HashAgg{
		Input:  src,
		Groups: []Scalar{col(0)},
		Aggs: []AggSpec{
			{Kind: AggCountStar},
			{Kind: AggSum, Args: []Scalar{col(1)}},
			{Kind: AggMin, Args: []Scalar{col(1)}},
			{Kind: AggMax, Args: []Scalar{col(1)}},
			{Kind: AggAvg, Args: []Scalar{col(1)}},
		},
	}
	got, err := Run(agg)
	if err != nil || len(got) != 3 {
		t.Fatalf("agg: %v, %v", got, err)
	}
	// First-seen group order: group 1 first.
	r := got[0]
	if r[0].I != 1 || r[1].I != 2 || r[2].I != 30 || r[3].I != 10 || r[4].I != 20 || r[5].F != 15 {
		t.Fatalf("group 1 = %v", r)
	}
}

func TestHashAggScalarOverEmpty(t *testing.T) {
	agg := &HashAgg{
		Input: &ValuesOp{},
		Aggs: []AggSpec{
			{Kind: AggCountStar},
			{Kind: AggSum, Args: []Scalar{col(0)}},
			{Kind: AggMin, Args: []Scalar{col(0)}},
		},
	}
	got, err := Run(agg)
	if err != nil || len(got) != 1 {
		t.Fatalf("scalar agg: %v, %v", got, err)
	}
	if got[0][0].I != 0 || !got[0][1].IsNull() || !got[0][2].IsNull() {
		t.Fatalf("empty-input aggregates = %v", got[0])
	}
}

func TestAggNullHandling(t *testing.T) {
	src := &ValuesOp{Rows: []types.Row{
		{types.Int(1)}, {types.Null()}, {types.Int(3)},
	}}
	agg := &HashAgg{
		Input: src,
		Aggs: []AggSpec{
			{Kind: AggCountStar},
			{Kind: AggCount, Args: []Scalar{col(0)}},
			{Kind: AggSum, Args: []Scalar{col(0)}},
			{Kind: AggAvg, Args: []Scalar{col(0)}},
		},
	}
	got, err := Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	r := got[0]
	if r[0].I != 3 || r[1].I != 2 || r[2].I != 4 || r[3].F != 2 {
		t.Fatalf("null handling = %v", r)
	}
}

func TestSumIntOverflowToFloatPromotion(t *testing.T) {
	src := &ValuesOp{Rows: []types.Row{
		{types.Int(1)}, {types.Float(0.5)},
	}}
	agg := &HashAgg{Input: src, Aggs: []AggSpec{{Kind: AggSum, Args: []Scalar{col(0)}}}}
	got, err := Run(agg)
	if err != nil || got[0][0].Kind != types.KindFloat || got[0][0].F != 1.5 {
		t.Fatalf("promotion = %v, %v", got, err)
	}
}

func TestArrayAggAndPolygon(t *testing.T) {
	src := &ValuesOp{Rows: []types.Row{
		{types.Int(1), types.Float(0), types.Float(0)},
		{types.Int(2), types.Float(4), types.Float(0)},
		{types.Int(3), types.Float(0), types.Float(4)},
	}}
	agg := &HashAgg{Input: src, Aggs: []AggSpec{
		{Kind: AggArrayAgg, Args: []Scalar{col(0)}},
		{Kind: AggSTPolygon, Args: []Scalar{col(1), col(2)}},
	}}
	got, err := Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].S != "[1, 2, 3]" {
		t.Errorf("array_agg = %q", got[0][0].S)
	}
	poly := got[0][1].S
	if !strings.HasPrefix(poly, "POLYGON((") || !strings.HasSuffix(poly, "))") {
		t.Errorf("polygon = %q", poly)
	}
	// Ring closes on the first vertex.
	inner := strings.TrimSuffix(strings.TrimPrefix(poly, "POLYGON(("), "))")
	verts := strings.Split(inner, ", ")
	if verts[0] != verts[len(verts)-1] {
		t.Errorf("unclosed ring: %q", poly)
	}
}

func TestPolygonEmptyAndAggValidation(t *testing.T) {
	agg := &HashAgg{Input: &ValuesOp{}, Aggs: []AggSpec{
		{Kind: AggSTPolygon, Args: []Scalar{col(0), col(1)}},
	}}
	got, err := Run(agg)
	if err != nil || got[0][0].S != "POLYGON EMPTY" {
		t.Fatalf("empty polygon: %v, %v", got, err)
	}
	bad := &HashAgg{Input: &ValuesOp{}, Aggs: []AggSpec{
		{Kind: AggSum}, // missing arg
	}}
	if _, err := Run(bad); err == nil {
		t.Error("sum without args accepted")
	}
	bad2 := &HashAgg{Input: &ValuesOp{}, Aggs: []AggSpec{
		{Kind: AggSTPolygon, Args: []Scalar{col(0)}},
	}}
	if _, err := Run(bad2); err == nil {
		t.Error("st_polygon with one arg accepted")
	}
	bad3 := &HashAgg{Input: &ValuesOp{}, Aggs: []AggSpec{
		{Kind: AggCountStar, Args: []Scalar{col(0)}},
	}}
	if _, err := Run(bad3); err == nil {
		t.Error("count(*) with args accepted")
	}
}

func TestParseAggKind(t *testing.T) {
	for name, want := range map[string]AggKind{
		"count": AggCount, "SUM": AggSum, "Avg": AggAvg, "min": AggMin,
		"max": AggMax, "array_agg": AggArrayAgg, "list_id": AggArrayAgg,
		"st_polygon": AggSTPolygon,
	} {
		got, ok := ParseAggKind(name)
		if !ok || got != want {
			t.Errorf("ParseAggKind(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseAggKind("year"); ok {
		t.Error("year treated as aggregate")
	}
}

func TestSGBOperatorNode(t *testing.T) {
	// The Figure 2 points through the executor node directly.
	src := &ValuesOp{Rows: []types.Row{
		{types.Float(2), types.Float(5)},
		{types.Float(3), types.Float(6)},
		{types.Float(7), types.Float(5)},
		{types.Float(8), types.Float(6)},
		{types.Float(5), types.Float(4)},
	}}
	node := &SGB{
		Input:      src,
		GroupExprs: []Scalar{col(0), col(1)},
		Opt: core.Options{
			Metric: geom.LInf, Eps: 3, Overlap: core.Eliminate,
			Algorithm: core.OnTheFlyIndex,
		},
		Aggs: []AggSpec{{Kind: AggCountStar}},
	}
	got, err := Run(node)
	if err != nil || len(got) != 2 {
		t.Fatalf("sgb node: %v, %v", got, err)
	}
	if got[0][0].I != 2 || got[1][0].I != 2 {
		t.Fatalf("counts = %v", got)
	}
	// NULL grouping attribute errors.
	nullSrc := &ValuesOp{Rows: []types.Row{{types.Null(), types.Float(1)}}}
	node.Input = nullSrc
	if _, err := Run(node); err == nil {
		t.Error("NULL grouping attribute accepted")
	}
	// Text grouping attribute errors.
	textSrc := &ValuesOp{Rows: []types.Row{{types.Text("x"), types.Float(1)}}}
	node.Input = textSrc
	if _, err := Run(node); err == nil {
		t.Error("text grouping attribute accepted")
	}
}

// TestIdentityProjection: an identity projection hands its input's rows
// on as they are — one by one under an operator that pulls them or over
// a filter, whole to Run when the similarity node is directly below —
// and answers what the copying projection answers: over a single-ε
// node, an EPS IN sweep ([eps, aggregates…]) and the ε-cube.
func TestIdentityProjection(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCountStar}, {Kind: AggMax, Args: []Scalar{col(0)}, ArgCol: 1}}
	for _, c := range []struct {
		name    string
		eps     []float64
		cube    bool
		aggs    []AggSpec
		width   int
		wantLen int
	}{
		{name: "single", aggs: aggs, width: 2, wantLen: 3},
		{name: "sweep", eps: []float64{0.5, 2}, aggs: aggs, width: 3, wantLen: 8},
		{name: "cube", eps: []float64{0.5, 2, 20}, cube: true, width: 4, wantLen: 3},
	} {
		node := func() *SGB {
			return &SGB{
				Input: &ValuesOp{Rows: []types.Row{
					{types.Float(0)}, {types.Float(1)}, {types.Float(10)}, {types.Float(20)}, {types.Float(21)},
				}},
				GroupExprs: []Scalar{col(0)}, Any: true,
				Opt:     core.Options{Metric: geom.L2, Eps: 2, Algorithm: core.OnTheFlyIndex},
				Aggs:    c.aggs,
				EpsList: c.eps, Cube: c.cube,
			}
		}
		exprs := make([]Scalar, c.width)
		for i := range exprs {
			exprs[i] = col(i)
		}
		identity := func(in Operator) *Project {
			return &Project{Input: in, Exprs: exprs, Identity: true}
		}
		want, err := Run(&Project{Input: node(), Exprs: exprs})
		if err != nil || len(want) != c.wantLen {
			t.Fatalf("%s: copying projection: %v, %v", c.name, want, err)
		}
		for name, op := range map[string]Operator{
			"taken whole": identity(node()),
			"pulled":      &Limit{Input: identity(node()), N: 10},
			"filtered":    identity(&Filter{Input: node(), Pred: constant(types.Bool(true))}),
		} {
			if got, err := Run(op); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: %v, %v; want %v", c.name, name, got, err, want)
			}
		}
		// The rows are the node's own, and a second Run answers afresh:
		// writing into one run's rows reaches neither the next run nor the
		// plan.
		n := node()
		p := identity(n)
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
		own := n.out[0]
		if first, err := p.Next(); err != nil || &first[0] != &own[0] {
			t.Errorf("%s: identity projection copied the row (%v)", c.name, err)
		}
		p.Close()
		for i := 0; i < 2; i++ {
			got, err := Run(p)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: run %d of one plan: %v, %v; want %v", c.name, i, got, err, want)
			}
			for _, row := range got {
				row[0] = types.Text("overwritten")
			}
		}
	}
}
