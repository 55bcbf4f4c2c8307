package sqlparser

import (
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/types"
)

func mustSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	sel, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return sel
}

func TestBasicSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b AS bee, count(*) FROM t WHERE a > 3 LIMIT 10")
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "bee" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	fc, ok := sel.Items[2].Expr.(*FuncCall)
	if !ok || !fc.Star || fc.Name != "count" {
		t.Errorf("count(*) parsed as %#v", sel.Items[2].Expr)
	}
	if sel.Limit == nil || *sel.Limit != 10 {
		t.Errorf("limit = %v", sel.Limit)
	}
	if sel.Where == nil {
		t.Error("missing WHERE")
	}
}

func TestSGBAllClause(t *testing.T) {
	sel := mustSelect(t, `
		SELECT count(*) FROM GPSPoints
		GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 3
		ON-OVERLAP FORM-NEW-GROUP`)
	gb := sel.GroupBy
	if gb == nil || gb.Similarity == nil {
		t.Fatal("missing similarity clause")
	}
	sim := gb.Similarity
	if sim.Semantics != SemanticsAll || sim.Metric != MetricLInf || sim.Overlap != OverlapFormNewGroup {
		t.Errorf("clause = %+v", sim)
	}
	if len(gb.Exprs) != 2 {
		t.Errorf("grouping exprs = %d", len(gb.Exprs))
	}
	lit, ok := sim.Eps.(*Literal)
	if !ok || lit.Val.I != 3 {
		t.Errorf("eps = %v", sim.Eps)
	}
}

func TestSGBAnyClause(t *testing.T) {
	sel := mustSelect(t, `
		SELECT count(*) FROM GPSPoints
		GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 3`)
	sim := sel.GroupBy.Similarity
	if sim == nil || sim.Semantics != SemanticsAny || sim.Metric != MetricL2 {
		t.Fatalf("clause = %+v", sim)
	}
}

func TestSGBAnyRejectsOverlap(t *testing.T) {
	_, err := ParseSelect(`SELECT count(*) FROM t
		GROUP BY a, b DISTANCE-TO-ANY WITHIN 1 ON-OVERLAP ELIMINATE`)
	if err == nil {
		t.Fatal("accepted ON-OVERLAP with DISTANCE-TO-ANY")
	}
}

// TestTable2Spelling covers the abbreviated forms used in the paper's
// Table 2 queries: DISTANCE-ALL, USING ltwo/lone, "on overlap", FORM-NEW.
func TestTable2Spelling(t *testing.T) {
	sel := mustSelect(t, `
		SELECT count(), sum(tprof), sum(stime)
		FROM profit
		GROUP BY tprof, stime DISTANCE-ALL WITHIN 0.5 USING ltwo
		on overlap form-new`)
	sim := sel.GroupBy.Similarity
	if sim == nil {
		t.Fatal("missing similarity clause")
	}
	if sim.Semantics != SemanticsAll || sim.Metric != MetricL2 || sim.Overlap != OverlapFormNewGroup {
		t.Errorf("clause = %+v", sim)
	}
	// count() ≡ count(*).
	fc := sel.Items[0].Expr.(*FuncCall)
	if !fc.Star {
		t.Error("count() not normalized to count(*)")
	}

	sel = mustSelect(t, `
		SELECT sum(x) FROM t
		GROUP BY a, b DISTANCE-ANY WITHIN 2 USING lone`)
	if sel.GroupBy.Similarity.Metric != MetricLInf {
		t.Error("lone not mapped to LINF")
	}
}

// TestHyphenBacktracking: identifier minus identifier must not be eaten
// by the hyphen-keyword fusion (l_receiptdate-l_shipdate in SGB3).
func TestHyphenBacktracking(t *testing.T) {
	sel := mustSelect(t, "SELECT sum(l_receiptdate-l_shipdate) FROM lineitem")
	fc := sel.Items[0].Expr.(*FuncCall)
	be, ok := fc.Args[0].(*BinaryExpr)
	if !ok || be.Op != "-" {
		t.Fatalf("arg parsed as %#v", fc.Args[0])
	}
	// A word starting a hyphen keyword prefix but not completing one.
	sel = mustSelect(t, "SELECT distance-cost FROM t")
	be, ok = sel.Items[0].Expr.(*BinaryExpr)
	if !ok || be.Op != "-" {
		t.Fatalf("distance-cost parsed as %#v", sel.Items[0].Expr)
	}
}

func TestDerivedTableAndJoin(t *testing.T) {
	sel := mustSelect(t, `
		SELECT r1.a, r2.b
		FROM (SELECT a FROM t1 WHERE a > 0) AS r1, t2 r2
		WHERE r1.a = r2.a`)
	if len(sel.From) != 2 {
		t.Fatalf("from = %d", len(sel.From))
	}
	if _, ok := sel.From[0].(*SubqueryTable); !ok {
		t.Errorf("first ref = %#v", sel.From[0])
	}
	bt, ok := sel.From[1].(*BaseTable)
	if !ok || bt.Alias != "r2" {
		t.Errorf("second ref = %#v", sel.From[1])
	}

	sel = mustSelect(t, "SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y")
	jt, ok := sel.From[0].(*JoinTable)
	if !ok {
		t.Fatalf("join = %#v", sel.From[0])
	}
	if _, ok := jt.Left.(*JoinTable); !ok {
		t.Error("left-deep join expected")
	}
}

func TestInSubquery(t *testing.T) {
	sel := mustSelect(t, `
		SELECT o_orderkey FROM orders
		WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey
		                     HAVING sum(l_quantity) > 300)`)
	in, ok := sel.Where.(*InExpr)
	if !ok || in.Sub == nil {
		t.Fatalf("where = %#v", sel.Where)
	}
	if in.Sub.Having == nil {
		t.Error("subquery HAVING lost")
	}
	sel = mustSelect(t, "SELECT * FROM t WHERE a NOT IN (1, 2, 3)")
	in = sel.Where.(*InExpr)
	if !in.Neg || len(in.List) != 3 {
		t.Errorf("not-in = %#v", in)
	}
}

func TestDateAndInterval(t *testing.T) {
	sel := mustSelect(t, `
		SELECT * FROM lineitem
		WHERE l_shipdate > date '1995-01-01'
		  AND l_shipdate < date '1996-01-01' + interval '10' month`)
	and := sel.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("where = %v", sel.Where)
	}
	right := and.R.(*BinaryExpr)
	plus := right.R.(*BinaryExpr)
	iv := plus.R.(*Literal)
	if iv.Val.Kind != types.KindInterval || iv.Val.I != 10 {
		t.Errorf("interval = %v", iv.Val)
	}
	left := and.L.(*BinaryExpr)
	d := left.R.(*Literal)
	if d.Val.Kind != types.KindDate || d.Val.String() != "1995-01-01" {
		t.Errorf("date = %v", d.Val)
	}
	// Bracketed TPC-H template dates also parse.
	sel = mustSelect(t, "SELECT * FROM t WHERE d > date '[1995-03-15]'")
	cmp := sel.Where.(*BinaryExpr)
	if cmp.R.(*Literal).Val.String() != "1995-03-15" {
		t.Errorf("bracketed date = %v", cmp.R)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT a + b * c - d / 2 FROM t")
	// Expect ((a + (b*c)) - (d/2)).
	e := sel.Items[0].Expr.(*BinaryExpr)
	if e.Op != "-" {
		t.Fatalf("top op = %s", e.Op)
	}
	l := e.L.(*BinaryExpr)
	if l.Op != "+" || l.R.(*BinaryExpr).Op != "*" {
		t.Errorf("left = %v", l)
	}
	if e.R.(*BinaryExpr).Op != "/" {
		t.Errorf("right = %v", e.R)
	}

	sel = mustSelect(t, "SELECT * FROM t WHERE NOT a = 1 OR b = 2 AND c = 3")
	or := sel.Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %s", or.Op)
	}
	if _, ok := or.L.(*UnaryExpr); !ok {
		t.Errorf("NOT binding wrong: %v", or.L)
	}
	if or.R.(*BinaryExpr).Op != "AND" {
		t.Errorf("AND binding wrong: %v", or.R)
	}
}

func TestBetween(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b = 2")
	and := sel.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("top = %v", sel.Where)
	}
	if _, ok := and.L.(*BetweenExpr); !ok {
		t.Errorf("between = %#v", and.L)
	}
}

func TestCreateInsertDrop(t *testing.T) {
	stmt, err := Parse("CREATE TABLE pts (id INT, lat FLOAT, lon FLOAT, name TEXT, d DATE)")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "pts" || len(ct.Columns) != 5 {
		t.Fatalf("create = %+v", ct)
	}
	if ct.Columns[4].Type != types.KindDate {
		t.Errorf("date column type = %v", ct.Columns[4].Type)
	}

	stmt, err = Parse("INSERT INTO pts (id, lat) VALUES (1, 2.5), (2, -3.5)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	u := ins.Rows[1][1].(*UnaryExpr)
	if u.Op != "-" {
		t.Errorf("negative literal = %#v", ins.Rows[1][1])
	}

	stmt, err = Parse("DROP TABLE pts;")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropTableStmt).Name != "pts" {
		t.Errorf("drop = %+v", stmt)
	}
}

func TestStringEscapes(t *testing.T) {
	sel := mustSelect(t, "SELECT 'it''s' FROM t")
	lit := sel.Items[0].Expr.(*Literal)
	if lit.Val.S != "it's" {
		t.Errorf("escaped string = %q", lit.Val.S)
	}
}

func TestComments(t *testing.T) {
	sel := mustSelect(t, `SELECT a -- trailing comment
		FROM t -- another
		WHERE a = 1`)
	if sel.Where == nil {
		t.Error("comment swallowed the query")
	}
}

func TestSetStatement(t *testing.T) {
	cases := []struct {
		src, name, value string
	}{
		{"SET algorithm = grid", "algorithm", "grid"},
		{"SET ALGORITHM TO rtree;", "ALGORITHM", "rtree"},
		{"SET parallelism = 4", "parallelism", "4"},
		{"SET parallelism = 0", "parallelism", "0"},
		{"SET seed = -3", "seed", "-3"},
		{"SET whatever = 'text'", "whatever", "text"},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		set, ok := stmt.(*SetStmt)
		if !ok {
			t.Fatalf("%q: got %T, want *SetStmt", c.src, stmt)
		}
		if set.Name != c.name || set.Value != c.value {
			t.Errorf("%q: got (%q, %q), want (%q, %q)", c.src, set.Name, set.Value, c.name, c.value)
		}
	}
	for _, bad := range []string{"SET", "SET x", "SET x =", "SET = 3", "SET x - 3", "SET x = -foo"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted invalid SET: %q", bad)
		}
	}
	// SET and TO are not reserved: schemas using them as identifiers
	// must keep parsing.
	for _, ok := range []string{
		"SELECT set, to FROM flights",
		"CREATE TABLE flights (origin FLOAT, to FLOAT)",
		"SELECT a FROM set",
	} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP BY",
		"SELECT a FROM (SELECT b FROM t)",     // derived table needs alias
		"SELECT a FROM t GROUP BY a WITHIN 3", // WITHIN without operator
		"SELECT a FROM t LIMIT x",
		"SELECT 'unterminated FROM t",
		"UPDATE t SET a = 1",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a b c FROM t",
		"SELECT count(*) FROM t GROUP BY a DISTANCE-TO-ALL WITHIN", // missing eps
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted invalid SQL: %q", src)
		}
	}
}

// TestPaperQuerySuite parses every query shape from the paper verbatim
// (Queries 1–3 and the Table 2 SGB forms).
func TestPaperQuerySuite(t *testing.T) {
	queries := []string{
		// Query 1 (MANET, SGB-Any).
		`SELECT ST_Polygon(Device_lat, Device_long)
		 FROM MobileDevices
		 GROUP BY Device_lat, Device_long
		 DISTANCE-TO-ANY L2 WITHIN 30`,
		// Query 2 (MANET gateways).
		`SELECT COUNT(*)
		 FROM MobileDevices
		 GROUP BY Device_lat, Device_long
		 DISTANCE-TO-ALL L2 WITHIN 30
		 ON-OVERLAP FORM-NEW-GROUP`,
		// Query 3 (location-based groups).
		`SELECT List_ID(user_id), ST_Polygon(User_lat, User_long)
		 FROM Users_Frequent_Location
		 GROUP BY User_lat, User_long
		 DISTANCE-TO-ALL L2 WITHIN 0.5
		 ON-OVERLAP ELIMINATE`,
		// SGB1/2 core shape (Table 2).
		`SELECT max(ab), min(tp), max(tp), avg(ab), array_agg(c_custkey)
		 FROM (SELECT c_custkey, c_acctbal AS ab FROM Customer WHERE c_acctbal > 100) AS R1,
		      (SELECT o_custkey, sum(o_totalprice) AS tp FROM Orders, Lineitem
		       WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
		                            GROUP BY l_orderkey HAVING sum(l_quantity) > 300)
		         AND o_orderkey = l_orderkey AND o_totalprice > 30000
		       GROUP BY o_custkey) AS R2
		 WHERE R1.c_custkey = R2.o_custkey
		 GROUP BY ab, tp DISTANCE-ALL WITHIN 10 USING ltwo
		 ON OVERLAP JOIN-ANY`,
		// SGB3/4 core shape.
		`SELECT count(), sum(tprof), sum(stime)
		 FROM (SELECT ps_partkey AS partkey,
		              sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS tprof,
		              sum(l_receiptdate - l_shipdate) AS stime
		       FROM lineitem, partsupp, supplier
		       WHERE ps_partkey = l_partkey AND s_suppkey = ps_suppkey
		       GROUP BY ps_partkey) AS profit
		 GROUP BY tprof, stime DISTANCE-ANY WITHIN 5 USING ltwo`,
		// SGB5/6 core shape.
		`SELECT array_agg(suppkey), sum(trevenue)
		 FROM (SELECT l_suppkey AS suppkey,
		              sum(l_extendedprice * (1 - l_discount)) AS trevenue
		       FROM Lineitem
		       WHERE l_shipdate > date '1995-01-01'
		         AND l_shipdate < date '1996-01-01' + interval '10' month
		       GROUP BY l_suppkey) AS r
		 GROUP BY trevenue, acctbal DISTANCE-ALL WITHIN 100 USING ltwo
		 ON OVERLAP ELIMINATE`,
	}
	for i, q := range queries {
		if _, err := ParseSelect(q); err != nil {
			t.Errorf("paper query %d failed to parse: %v\n%s", i+1, err, q)
		}
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// String() output re-parses to an equivalent tree (smoke check on a
	// few representative expressions).
	exprs := []string{
		"SELECT (a + b) * 2 FROM t",
		"SELECT count(*) FROM t",
		"SELECT sum(a - b) FROM t",
	}
	for _, src := range exprs {
		sel := mustSelect(t, src)
		printed := sel.Items[0].Expr.String()
		re := mustSelect(t, "SELECT "+printed+" FROM t")
		if re.Items[0].Expr.String() != printed {
			t.Errorf("round trip: %q -> %q", printed, re.Items[0].Expr.String())
		}
	}
	if !strings.Contains((&InExpr{E: &ColumnRef{Name: "a"}, Sub: &SelectStmt{}}).String(), "subquery") {
		t.Error("InExpr.String subquery form")
	}
}

// TestLiteralStringKeepsKind: printed forms are what the planner
// matches expressions by, so an INT and a FLOAT literal of the same
// value must print differently, and a printed literal must parse back
// to the same kind.
func TestLiteralStringKeepsKind(t *testing.T) {
	for src, want := range map[string]string{
		"2": "2", "2.0": "2.0", "2.": "2.0", "2e0": "2.0", "1e5": "100000.0",
		"1e21": "1e+21", "0.25": "0.25", "100000": "100000", "'2'": "'2'",
	} {
		lit := mustSelect(t, "SELECT "+src+" FROM t").Items[0].Expr.(*Literal)
		if got := lit.String(); got != want {
			t.Errorf("%s prints as %q, want %q", src, got, want)
		}
		re := mustSelect(t, "SELECT "+lit.String()+" FROM t").Items[0].Expr.(*Literal)
		if re.Val != lit.Val {
			t.Errorf("%s: printed form %q parses back to %v (%s)", src, lit, re.Val, re.Val.Kind)
		}
	}
}
