package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

func testCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	users := storage.NewTable("users", storage.Schema{
		{Name: "uid", Type: types.KindInt},
		{Name: "name", Type: types.KindText},
		{Name: "bal", Type: types.KindFloat},
	})
	users.MustInsert(types.Row{types.Int(1), types.Text("ann"), types.Float(10)})
	users.MustInsert(types.Row{types.Int(2), types.Text("bob"), types.Float(20)})
	users.MustInsert(types.Row{types.Int(3), types.Text("eve"), types.Float(30)})
	orders := storage.NewTable("orders", storage.Schema{
		{Name: "oid", Type: types.KindInt},
		{Name: "uid", Type: types.KindInt},
		{Name: "amt", Type: types.KindFloat},
	})
	orders.MustInsert(types.Row{types.Int(100), types.Int(1), types.Float(5)})
	orders.MustInsert(types.Row{types.Int(101), types.Int(2), types.Float(7)})
	orders.MustInsert(types.Row{types.Int(102), types.Int(1), types.Float(9)})
	if err := cat.Create(users); err != nil {
		t.Fatal(err)
	}
	if err := cat.Create(orders); err != nil {
		t.Fatal(err)
	}
	return cat
}

func runQuery(t *testing.T, cat *storage.Catalog, sql string) ([]types.Row, []string) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cq, err := NewBuilder(cat).BuildSelect(sel)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rows, err := Execute(cq)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return rows, cq.Columns
}

func mustFail(t *testing.T, cat *storage.Catalog, sql, wantSub string) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	cq, err := NewBuilder(cat).BuildSelect(sel)
	if err == nil {
		_, err = Execute(cq)
	}
	if err == nil {
		t.Fatalf("query %q did not fail", sql)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("query %q error %q does not contain %q", sql, err, wantSub)
	}
}

func TestColumnResolution(t *testing.T) {
	cat := testCatalog(t)
	// Qualified and unqualified references, alias qualification.
	rows, cols := runQuery(t, cat, "SELECT u.name, bal FROM users u WHERE u.uid = 2")
	if len(rows) != 1 || rows[0][0].S != "bob" || rows[0][1].F != 20 {
		t.Fatalf("rows = %v", rows)
	}
	if cols[0] != "name" || cols[1] != "bal" {
		t.Fatalf("cols = %v", cols)
	}
	// Ambiguity across join inputs.
	mustFail(t, cat, "SELECT uid FROM users, orders WHERE users.uid = orders.uid", "ambiguous")
	// Unknown column.
	mustFail(t, cat, "SELECT ghost FROM users", "unknown column")
	// Unknown qualifier.
	mustFail(t, cat, "SELECT x.uid FROM users", "unknown column")
}

func TestJoinKeyExtraction(t *testing.T) {
	cat := testCatalog(t)
	// Equi conjunct becomes a hash join; non-equi residual still applies.
	rows, _ := runQuery(t, cat, `
		SELECT name, amt FROM users, orders
		WHERE users.uid = orders.uid AND amt > 5 ORDER BY amt`)
	if len(rows) != 2 || rows[0][1].F != 7 || rows[1][1].F != 9 {
		t.Fatalf("rows = %v", rows)
	}
	// Swapped operand order still extracts keys.
	rows, _ = runQuery(t, cat, `
		SELECT count(*) FROM users, orders WHERE orders.uid = users.uid`)
	if rows[0][0].I != 3 {
		t.Fatalf("swapped keys: %v", rows)
	}
}

func TestAggregateRewriting(t *testing.T) {
	cat := testCatalog(t)
	// The same aggregate expression in SELECT and HAVING is computed once;
	// arithmetic over aggregates works.
	rows, _ := runQuery(t, cat, `
		SELECT uid, sum(amt) + 1, count(*) FROM orders
		GROUP BY uid HAVING sum(amt) > 6 ORDER BY uid`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 1 || rows[0][1].F != 15 || rows[0][2].I != 2 {
		t.Fatalf("group 1 = %v", rows[0])
	}
	// Grouping expression reuse in select (structural match).
	rows, _ = runQuery(t, cat, `
		SELECT uid % 2, count(*) FROM orders GROUP BY uid % 2 ORDER BY 1`)
	if len(rows) != 2 {
		t.Fatalf("mod groups = %v", rows)
	}
	// Bare column that is neither grouped nor aggregated is an error.
	mustFail(t, cat, "SELECT amt FROM orders GROUP BY uid", "GROUP BY")
}

func TestSimilarityPlanning(t *testing.T) {
	cat := testCatalog(t)
	pts := storage.NewTable("pts", storage.Schema{
		{Name: "x", Type: types.KindFloat},
		{Name: "y", Type: types.KindFloat},
	})
	for _, p := range [][2]float64{{0, 0}, {1, 1}, {10, 10}, {11, 11}} {
		pts.MustInsert(types.Row{types.Float(p[0]), types.Float(p[1])})
	}
	if err := cat.Create(pts); err != nil {
		t.Fatal(err)
	}
	rows, _ := runQuery(t, cat, `
		SELECT count(*) FROM pts
		GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 2 ON-OVERLAP JOIN-ANY`)
	if len(rows) != 2 || rows[0][0].I != 2 || rows[1][0].I != 2 {
		t.Fatalf("sgb rows = %v", rows)
	}
	// ε must be a positive constant.
	mustFail(t, cat, `SELECT count(*) FROM pts
		GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0`, "positive")
	mustFail(t, cat, `SELECT count(*) FROM pts
		GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN x`, "constant")
	// ε can be a constant expression.
	rows, _ = runQuery(t, cat, `
		SELECT count(*) FROM pts
		GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 + 1`)
	if len(rows) != 2 {
		t.Fatalf("const-expr eps rows = %v", rows)
	}
	// Bare columns are rejected under similarity grouping.
	mustFail(t, cat, `SELECT x FROM pts
		GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1`, "")
	// SELECT * is rejected with grouping.
	mustFail(t, cat, `SELECT * FROM pts
		GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1`, "")
}

func TestBuilderAlgorithmOverride(t *testing.T) {
	cat := testCatalog(t)
	pts := storage.NewTable("p2", storage.Schema{
		{Name: "x", Type: types.KindFloat},
		{Name: "y", Type: types.KindFloat},
	})
	for i := 0; i < 50; i++ {
		pts.MustInsert(types.Row{types.Float(float64(i % 7)), types.Float(float64(i % 5))})
	}
	if err := cat.Create(pts); err != nil {
		t.Fatal(err)
	}
	sel, err := sqlparser.ParseSelect(`SELECT count(*) FROM p2
		GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5`)
	if err != nil {
		t.Fatal(err)
	}
	// BoundsCheck silently upgrades to the index for SGB-Any.
	b := NewBuilder(cat)
	b.SGBAlgorithm = core.BoundsCheck
	st := &core.Stats{}
	b.SGBStats = st
	cq, err := b.BuildSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(cq); err != nil {
		t.Fatalf("bounds-check any: %v", err)
	}
	if st.IndexProbes == 0 {
		t.Error("stats did not flow through the builder")
	}
}

func TestBuilderDefaultsAndHighDim(t *testing.T) {
	cat := testCatalog(t)
	if b := NewBuilder(cat); b.SGBAlgorithm != core.GridIndex {
		t.Fatalf("planner default algorithm = %v, want GridIndex", b.SGBAlgorithm)
	}
	// Five grouping attributes: the hashed-cell grid handles any
	// dimensionality, so the plan keeps the GridIndex strategy (the old
	// d > 4 R-tree fallback is gone) and must still execute.
	wide := storage.NewTable("p5", storage.Schema{
		{Name: "a", Type: types.KindFloat},
		{Name: "b", Type: types.KindFloat},
		{Name: "c", Type: types.KindFloat},
		{Name: "d", Type: types.KindFloat},
		{Name: "e", Type: types.KindFloat},
	})
	for i := 0; i < 40; i++ {
		f := types.Float(float64(i % 6))
		wide.MustInsert(types.Row{f, f, f, f, f})
	}
	if err := cat.Create(wide); err != nil {
		t.Fatal(err)
	}
	sel, err := sqlparser.ParseSelect(`SELECT count(*) FROM p5
		GROUP BY a, b, c, d, e DISTANCE-TO-ANY L2 WITHIN 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(cat)
	b.SGBParallelism = 3 // threads through to core.Options
	cq, err := b.BuildSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	if proj, ok := cq.Root.(*exec.Project); ok {
		if sgbNode, ok := proj.Input.(*exec.SGB); !ok || sgbNode.Opt.Algorithm != core.GridIndex {
			t.Fatalf("5-d plan did not keep the GridIndex strategy")
		}
	} else {
		t.Fatalf("unexpected plan root %T", cq.Root)
	}
	rows, err := Execute(cq)
	if err != nil {
		t.Fatalf("5-d similarity grouping: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d groups, want 6", len(rows))
	}
}

func TestOrderByOrdinalAndAlias(t *testing.T) {
	cat := testCatalog(t)
	rows, _ := runQuery(t, cat, "SELECT name, bal AS b FROM users ORDER BY 2 DESC")
	if rows[0][0].S != "eve" {
		t.Fatalf("ordinal sort = %v", rows)
	}
	rows, _ = runQuery(t, cat, "SELECT name, bal AS b FROM users ORDER BY b")
	if rows[0][0].S != "ann" {
		t.Fatalf("alias sort = %v", rows)
	}
	mustFail(t, cat, "SELECT name FROM users ORDER BY 5", "out of range")
}

func TestConstantCompilation(t *testing.T) {
	e, err := sqlparser.ParseSelect("SELECT 2 * 3 + 1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := CompileConstant(e.Items[0].Expr)
	if err != nil || v.I != 7 {
		t.Fatalf("const = %v, %v", v, err)
	}
	// Date arithmetic folds too.
	e, err = sqlparser.ParseSelect("SELECT date '1995-01-01' + interval '1' month")
	if err != nil {
		t.Fatal(err)
	}
	v, err = CompileConstant(e.Items[0].Expr)
	if err != nil || v.String() != "1995-02-01" {
		t.Fatalf("const date = %v, %v", v, err)
	}
}

func TestScalarFunctions(t *testing.T) {
	cat := testCatalog(t)
	ship := storage.NewTable("ship", storage.Schema{
		{Name: "d", Type: types.KindDate},
		{Name: "v", Type: types.KindFloat},
	})
	dv, _ := types.ParseDate("1995-03-15")
	ship.MustInsert(types.Row{dv, types.Float(-2.25)})
	if err := cat.Create(ship); err != nil {
		t.Fatal(err)
	}
	rows, _ := runQuery(t, cat,
		"SELECT year(d), month(d), day(d), abs(v), floor(v), ceil(v), sqrt(4) FROM ship")
	r := rows[0]
	if r[0].I != 1995 || r[1].I != 3 || r[2].I != 15 {
		t.Fatalf("date parts = %v", r)
	}
	if r[3].F != 2.25 || r[4].F != -3 || r[5].F != -2 || r[6].F != 2 {
		t.Fatalf("math funcs = %v", r)
	}
	mustFail(t, cat, "SELECT year(v) FROM ship", "DATE")
	mustFail(t, cat, "SELECT sqrt(v) FROM ship", "negative")
	mustFail(t, cat, "SELECT nosuchfn(v) FROM ship", "unknown function")
	mustFail(t, cat, "SELECT abs(v, v) FROM ship", "argument")
}

func TestGroupByYearFunction(t *testing.T) {
	// The GB2/Q9 pattern: grouping by a scalar function of a column and
	// reusing it in the projection.
	cat := storage.NewCatalog()
	tbl := storage.NewTable("ev", storage.Schema{
		{Name: "d", Type: types.KindDate},
		{Name: "amt", Type: types.KindInt},
	})
	for _, row := range []struct {
		date string
		amt  int64
	}{
		{"1995-01-10", 5}, {"1995-06-10", 7}, {"1996-01-10", 1},
	} {
		dv, _ := types.ParseDate(row.date)
		tbl.MustInsert(types.Row{dv, types.Int(row.amt)})
	}
	if err := cat.Create(tbl); err != nil {
		t.Fatal(err)
	}
	rows, _ := runQuery(t, cat, `
		SELECT year(d) AS y, sum(amt) FROM ev GROUP BY year(d) ORDER BY y`)
	if len(rows) != 2 || rows[0][0].I != 1995 || rows[0][1].I != 12 || rows[1][1].I != 1 {
		t.Fatalf("year grouping = %v", rows)
	}
}

func TestNoFromSelect(t *testing.T) {
	cat := storage.NewCatalog()
	rows, cols := runQuery(t, cat, "SELECT 1 + 1 AS two, 'x'")
	if len(rows) != 1 || rows[0][0].I != 2 || rows[0][1].S != "x" {
		t.Fatalf("no-from = %v", rows)
	}
	if cols[0] != "two" {
		t.Fatalf("cols = %v", cols)
	}
}

func TestHavingWithoutGroupByRejected(t *testing.T) {
	cat := testCatalog(t)
	mustFail(t, cat, "SELECT name FROM users HAVING name = 'ann'", "HAVING")
}

// TestCacheHookShapeAndMemoKeys: the evaluator-cache hook is installed
// only over a bare single-table scan whose grouping expressions are
// pure functions of the row, and only aggregates that are such
// functions carry a memo key.
func TestCacheHookShapeAndMemoKeys(t *testing.T) {
	cat := testCatalog(t)
	hooked := false
	b := NewBuilder(cat)
	b.SGBAnswer = func(table, exprKey string, anySem bool, epsList []float64, opt core.Options) exec.AnswerFunc {
		hooked = true
		return nil
	}
	for _, c := range []struct {
		sql  string
		hook bool
		keys []string
	}{
		{"SELECT count(*), SUM(bal + 1) FROM users GROUP BY bal DISTANCE-TO-ANY L2 WITHIN 15", true, []string{"count(*)", "sum((bal + 1))"}},
		{"SELECT count(*) FROM users GROUP BY bal DISTANCE-TO-ANY L2 EPS IN (5, 15)", true, []string{"count(*)"}},
		{"SELECT count(*) FROM users WHERE uid > 1 GROUP BY bal DISTANCE-TO-ANY L2 WITHIN 15", false, []string{"count(*)"}},
		{"SELECT count(uid IN (SELECT uid FROM orders)), max(name = 'Ann'), max(name = 'ann') FROM users GROUP BY bal DISTANCE-TO-ANY L2 WITHIN 15",
			true, []string{"", "", "max((name = 'ann'))"}},
		{"SELECT max(uid + 0), max(uid + 0.0) FROM users GROUP BY bal DISTANCE-TO-ANY L2 WITHIN 15",
			true, []string{"max((uid + 0))", "max((uid + 0.0))"}},
	} {
		sel, err := sqlparser.ParseSelect(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		hooked = false
		cq, err := b.BuildSelect(sel)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if hooked != c.hook {
			t.Errorf("%s: cache hook consulted = %v, want %v", c.sql, hooked, c.hook)
		}
		var keys []string
		for _, a := range cq.Root.(*exec.Project).Input.(*exec.SGB).Aggs {
			keys = append(keys, a.Key)
		}
		if strings.Join(keys, "|") != strings.Join(c.keys, "|") {
			t.Errorf("%s: memo keys %q, want %q", c.sql, keys, c.keys)
		}
	}
	if rowPure(&sqlparser.InExpr{E: &sqlparser.ColumnRef{Name: "uid"}, Sub: &sqlparser.SelectStmt{}}) {
		t.Error("an expression over a subquery counts as a pure function of the row")
	}
}

// TestAggregateBareColumnMarks: the binder records the input-row index
// of an aggregate argument that is a bare column reference — through a
// qualifier and across a join's concatenated row too — and nothing for
// count(*), an expression, or the two-argument st_polygon.
func TestAggregateBareColumnMarks(t *testing.T) {
	for _, c := range []struct {
		sql  string
		cols []int // AggSpec.ArgCol per aggregate
	}{
		{"SELECT count(*), sum(bal), max(users.uid), avg(bal + 0), min(name), st_polygon(bal, uid) FROM users GROUP BY bal DISTANCE-TO-ANY L2 WITHIN 15",
			[]int{0, 3, 1, 0, 2, 0}},
		{"SELECT eps, count(uid), sum(abs(bal)) FROM users GROUP BY bal DISTANCE-TO-ANY L2 EPS IN (5, 15)", []int{1, 0}},
		{"SELECT max(amt), min(o.uid), count(u.uid) FROM users u JOIN orders o ON u.uid = o.uid GROUP BY bal, amt DISTANCE-TO-ALL LINF WITHIN 15 ON-OVERLAP ELIMINATE",
			[]int{6, 5, 1}},
	} {
		sel, err := sqlparser.ParseSelect(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		cq, err := NewBuilder(testCatalog(t)).BuildSelect(sel)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var cols []int
		for _, a := range cq.Root.(*exec.Project).Input.(*exec.SGB).Aggs {
			cols = append(cols, a.ArgCol)
		}
		if !reflect.DeepEqual(cols, c.cols) {
			t.Errorf("%s: column marks %v, want %v", c.sql, cols, c.cols)
		}
	}
}

// pointsCatalog adds a small 2-d table: two tight clusters and an
// outlier, so similarity groupings have groups of distinct sizes.
func pointsCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := testCatalog(t)
	pts := storage.NewTable("checkins", storage.Schema{
		{Name: "x", Type: types.KindFloat},
		{Name: "y", Type: types.KindFloat},
		{Name: "cell", Type: types.KindInt},
	})
	for i, p := range [][2]float64{{0, 0}, {0.4, 0}, {0.8, 0}, {10, 10}, {10.4, 10}, {50, 50}, {1.6, 0}} {
		pts.MustInsert(types.Row{types.Float(p[0]), types.Float(p[1]), types.Int(int64(i % 3))})
	}
	if err := cat.Create(pts); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestOrderBySelectItemExpression: an ORDER BY key may spell a select
// item out again — the aggregate of a grouped query included — and then
// reads that output column; matching follows the aggBinder's printed-form
// discipline; a bare name still means the output column of that name
// first; an aggregate that is no select item is refused with an error
// that says so. (The first two statements are README.md's and the
// motivating issue's; on the parent they failed with "aggregate count()
// is not allowed here".)
func TestOrderBySelectItemExpression(t *testing.T) {
	cat := pointsCatalog(t)
	for _, c := range []struct{ byExpr, byOrdinal string }{
		{"SELECT eps, count(*) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1, 2, 4) ORDER BY eps, count(*) DESC",
			"SELECT eps, count(*) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1, 2, 4) ORDER BY 1, 2 DESC"},
		{"SELECT cell, count(*) FROM checkins GROUP BY cell ORDER BY count(*) DESC, cell",
			"SELECT cell, count(*) FROM checkins GROUP BY cell ORDER BY 2 DESC, 1"},
		{"SELECT COUNT(*), max(x + 0) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 ORDER BY MAX(X + 0) DESC LIMIT 2",
			"SELECT count(*), max(x + 0) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 ORDER BY 2 DESC LIMIT 2"},
		{"SELECT count(*), sum(x) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 ORDER BY count(*) * 2 + sum(x) DESC",
			"SELECT count(*) AS c, sum(x) AS s FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 ORDER BY c * 2 + s DESC"},
		{"SELECT x + 1, checkins.y FROM checkins ORDER BY checkins.y DESC, x + 1 DESC",
			"SELECT x + 1, checkins.y FROM checkins ORDER BY 2 DESC, 1 DESC"},
		{"SELECT *, x * 2 FROM checkins ORDER BY x * 2 DESC",
			"SELECT *, x * 2 FROM checkins ORDER BY 4 DESC"},
		// A bare name is the output column of that name before it is a
		// select item's expression: here the alias x (= −y), not item 1.
		{"SELECT 0 - y AS x, x AS y FROM checkins ORDER BY x, 2",
			"SELECT 0 - y AS x, x AS y FROM checkins ORDER BY 1, 2"},
	} {
		got, _ := runQuery(t, cat, c.byExpr)
		want, _ := runQuery(t, cat, c.byOrdinal)
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n got %v\nwant %v", c.byExpr, got, want)
		}
	}
	const sim = " FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 "
	mustFail(t, cat, "SELECT count(*)"+sim+"ORDER BY max(x)", "must also be a select item")
	mustFail(t, cat, "SELECT max(x + 0)"+sim+"ORDER BY max(x + 0.0)", "must also be a select item")
	mustFail(t, cat, "SELECT max(x + 0)"+sim+"ORDER BY max(x + 0) + min(y)", "must also be a select item")
	mustFail(t, cat, "SELECT x FROM checkins ORDER BY count(*)", "must also be a select item")
	// Forms whose print does not determine their value match nothing.
	mustFail(t, cat, "SELECT max(name = 'Ann') FROM users GROUP BY bal DISTANCE-TO-ANY L2 WITHIN 15 ORDER BY max(name = 'ann')", "must also be a select item")
}

// TestTopKPlanShapes pins which statements get which operators: ORDER
// BY + LIMIT is always a TopK (never Limit over Sort), ORDER BY alone a
// Sort, LIMIT alone a Limit; and the similarity node receives the Top
// hint exactly when the block is a single-ε similarity GROUP BY without
// HAVING or DISTINCT whose every key is a select item that is a bare
// aggregate.
func TestTopKPlanShapes(t *testing.T) {
	cat := pointsCatalog(t)
	const sim = " FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 "
	type hint struct {
		cols []int
		desc []bool
	}
	for _, c := range []struct {
		sql  string
		root string // operator type of the plan root
		hint *hint  // nil: no SGB node, or one without a hint
	}{
		{"SELECT count(*), max(y)" + sim + "ORDER BY 1 DESC, 2 DESC LIMIT 10", "*exec.TopK", &hint{[]int{0, 1}, []bool{true, true}}},
		{"SELECT max(y) AS m, count(*)" + sim + "ORDER BY count(*), m DESC LIMIT 3", "*exec.TopK", &hint{[]int{1, 0}, []bool{false, true}}},
		// count(*) is bound once: both select items are column 0 of the node.
		{"SELECT count(*), count(*) + 1, max(y), count(*)" + sim + "ORDER BY 4, max(y) LIMIT 3", "*exec.TopK", &hint{[]int{0, 1}, []bool{false, false}}},
		{"SELECT count(*), max(y)" + sim + "ORDER BY 1 DESC LIMIT 0", "*exec.TopK", &hint{[]int{0}, []bool{true}}},
		{"SELECT count(*), max(y) FROM checkins GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP ELIMINATE ORDER BY 2 LIMIT 1", "*exec.TopK", &hint{[]int{1}, []bool{false}}},
		// No hint: a key that is not a bare aggregate, HAVING, DISTINCT, a
		// sweep, an aggregate whose printed form does not determine it.
		{"SELECT count(*), max(y)" + sim + "ORDER BY count(*) + 1 LIMIT 3", "*exec.TopK", nil},
		{"SELECT count(*), max(y) + 1" + sim + "ORDER BY 2 LIMIT 3", "*exec.TopK", nil},
		{"SELECT count(*), max(y)" + sim + "HAVING count(*) > 1 ORDER BY 1 LIMIT 3", "*exec.TopK", nil},
		{"SELECT DISTINCT count(*)" + sim + "ORDER BY 1 LIMIT 3", "*exec.TopK", nil},
		{"SELECT eps, count(*) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1) ORDER BY 2 DESC LIMIT 3", "*exec.TopK", nil},
		{"SELECT * FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1) SIMILARITY CUBE BY EPS ORDER BY 2 DESC LIMIT 1", "*exec.TopK", nil},
		{"SELECT count(*), max(cell IN (SELECT uid FROM users))" + sim + "ORDER BY 2 LIMIT 3", "*exec.TopK", nil},
		{"SELECT cell, count(*) FROM checkins GROUP BY cell ORDER BY count(*) DESC LIMIT 2", "*exec.TopK", nil},
		{"SELECT x, y FROM checkins ORDER BY x DESC LIMIT 2", "*exec.TopK", nil},
		// ORDER BY alone sorts, LIMIT alone limits; neither hints.
		{"SELECT count(*), max(y)" + sim + "ORDER BY 1 DESC", "*exec.Sort", nil},
		{"SELECT count(*), max(y)" + sim + "LIMIT 2", "*exec.Limit", nil},
		{"SELECT x FROM checkins LIMIT 2", "*exec.Limit", nil},
	} {
		sel, err := sqlparser.ParseSelect(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		cq, err := NewBuilder(cat).BuildSelect(sel)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := fmt.Sprintf("%T", cq.Root); got != c.root {
			t.Errorf("%s: plan root %s, want %s", c.sql, got, c.root)
		}
		var node *exec.SGB
		for op := cq.Root; op != nil && node == nil; {
			switch x := op.(type) {
			case *exec.TopK:
				if _, isSort := x.Input.(*exec.Sort); isSort {
					t.Errorf("%s: TopK over a Sort", c.sql)
				}
				op = x.Input
			case *exec.Sort:
				op = x.Input
			case *exec.Limit:
				if _, isSort := x.Input.(*exec.Sort); isSort {
					t.Errorf("%s: Limit over a Sort", c.sql)
				}
				op = x.Input
			case *exec.Distinct:
				op = x.Input
			case *exec.Project:
				op = x.Input
			case *exec.Filter:
				op = x.Input
			case *exec.SGB:
				node = x
			default:
				op = nil
			}
		}
		switch {
		case c.hint == nil && node != nil && node.Top != nil:
			t.Errorf("%s: unexpected hint %+v", c.sql, node.Top)
		case c.hint != nil && (node == nil || node.Top == nil):
			t.Errorf("%s: no hint, want %+v", c.sql, c.hint)
		case c.hint != nil:
			if !reflect.DeepEqual(node.Top.Cols, c.hint.cols) || !reflect.DeepEqual(node.Top.Desc, c.hint.desc) || node.Top.N != *sel.Limit {
				t.Errorf("%s: hint %+v, want %+v with N = %d", c.sql, node.Top, c.hint, *sel.Limit)
			}
		}
		if _, err := Execute(cq); err != nil {
			t.Errorf("%s: %v", c.sql, err)
		}
	}
}

// TestIdentityProjection pins when the projection over an aggregation
// is marked as passing rows through: every select item is a grouping
// expression or an aggregate call on its own, in the column the node
// emits it in, and the node emits no other column. Each statement then
// runs both ways — as planned and with the mark taken off — and must
// answer the same.
func TestIdentityProjection(t *testing.T) {
	cat := pointsCatalog(t)
	const sim = " FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 "
	const sweep = " FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1) "
	project := func(cq *CompiledQuery) *exec.Project {
		for op := cq.Root; ; {
			switch x := op.(type) {
			case *exec.TopK:
				op = x.Input
			case *exec.Sort:
				op = x.Input
			case *exec.Limit:
				op = x.Input
			case *exec.Distinct:
				op = x.Input
			case *exec.Project:
				return x
			default:
				return nil
			}
		}
	}
	for _, c := range []struct {
		sql      string
		identity bool
	}{
		{"SELECT count(*), avg(x), max(y)" + sim, true},
		{"SELECT count(*) AS n, max(y)" + sim + "HAVING count(*) > 1", true},
		{"SELECT count(*), max(y)" + sim + "ORDER BY 1 DESC, 2 LIMIT 2", true},
		{"SELECT DISTINCT count(*)" + sim, true},
		{"SELECT cell, count(*), max(y) FROM checkins GROUP BY cell", true},
		{"SELECT cell + 1, count(*) FROM checkins GROUP BY cell + 1", true},
		{"SELECT count(*), sum(x) FROM checkins", true},
		// An EPS IN sweep's row is [eps, aggregates…]; the cube's is its
		// four rollup columns, which SELECT * reads in order.
		{"SELECT eps, count(*), min(x)" + sweep, true},
		{"SELECT eps AS e, count(*)" + sweep + "HAVING count(*) > 1 ORDER BY 2 DESC, 1 LIMIT 3", true},
		{"SELECT DISTINCT eps, count(*)" + sweep, true},
		{"SELECT * FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1) SIMILARITY CUBE BY EPS", true},
		// An expression over an aggregate, a repeated aggregate (bound once:
		// both items read column 0), another order, a column left out, and
		// an aggregate that only HAVING names (the node emits it too).
		{"SELECT count(*), max(y) + 1" + sim, false},
		{"SELECT count(*), count(*)" + sim, false},
		{"SELECT count(*), eps" + sweep, false},
		{"SELECT count(*), eps" + sweep + "HAVING count(*) > 1 ORDER BY 2 DESC, 1", false},
		{"SELECT eps, count(*)" + sweep + "HAVING max(y) > 1", false},
		{"SELECT count(*)" + sweep, false},
		{"SELECT count(*)" + sim + "HAVING max(y) > 1", false},
		{"SELECT count(*), cell FROM checkins GROUP BY cell", false},
		{"SELECT count(*) FROM checkins GROUP BY cell", false},
		{"SELECT x, y FROM checkins", false},
	} {
		plan := func() (*CompiledQuery, *exec.Project) {
			sel, err := sqlparser.ParseSelect(c.sql)
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			cq, err := NewBuilder(cat).BuildSelect(sel)
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			p := project(cq)
			if p == nil {
				t.Fatalf("%s: no projection in the plan", c.sql)
			}
			return cq, p
		}
		cq, p := plan()
		if p.Identity != c.identity {
			t.Errorf("%s: identity = %v, want %v", c.sql, p.Identity, c.identity)
		}
		got, err := Execute(cq)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		cq, p = plan()
		p.Identity = false
		want, err := Execute(cq)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows %v, copied %v", c.sql, got, want)
		}
	}
}
