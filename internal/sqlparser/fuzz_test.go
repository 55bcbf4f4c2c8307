package sqlparser

import (
	"fmt"
	"strings"
	"testing"
)

// fuzzSeeds builds the seed corpus in code: the statement shapes of the
// end-to-end benchmark (bench/workload.go: every aggregate list over
// every similarity clause, with its HAVING and top-k variants, the
// writes and the point select) and the examples of docs/sql.md and
// README.md, plus one statement per expression form the printer has.
func fuzzSeeds() []string {
	seeds := []string{
		"SELECT cell, count(*), avg(x), max(y) FROM checkins GROUP BY cell",
		"SELECT id, x, y FROM checkins WHERE id < 100",
		"INSERT INTO checkins VALUES (1, 0.5, -1.25, 3e-2, 7), (2, 1, 2, 3, 4)",
		"DELETE FROM checkins WHERE id = 4294967296",
		"DELETE FROM checkins WHERE id = -9223372036854775808 OR id < - -09223372036854775808 - 1",
		"DELETE FROM checkins WHERE id IN (SELECT id FROM checkins WHERE x > 1)",
		"CREATE TABLE checkins (id INT, x FLOAT, y FLOAT, z FLOAT, cell INT)",
		"DROP TABLE checkins", "SET incremental = on", "SET parallelism TO -1", "CHECKPOINT;",
		// docs/sql.md and README.md.
		"SELECT count(*) FROM gps GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP JOIN-ANY;",
		"SELECT count(*), avg(temp) FROM sensors GROUP BY x, y DISTANCE-TO-ANY WITHIN 2.5 USING ltwo",
		"SELECT eps, count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY EPS IN (0.5, 1, 2, 4) HAVING count(*) >= 10 ORDER BY eps DESC",
		"SELECT * FROM sensors GROUP BY x, y DISTANCE-TO-ANY EPS IN (0.5, 1, 2, 4) SIMILARITY CUBE BY EPS",
		"SELECT eps, count(*) FROM checkins GROUP BY x, y DISTANCE-TO-ANY EPS IN (0.5, 1, 2, 4) ORDER BY eps, count(*) DESC;",
		"SELECT count() FROM t GROUP BY a, b DISTANCE-ALL WITHIN 1 USING lone ON OVERLAP FORM-NEW",
		// One of each expression form, so mutation starts from all of them.
		"SELECT -a + +b * (c - 2) / 4 % 3, NOT (a < b OR a >= c) AND b <> 2, t.a != 1e+300, .5, 1., 'it''s' FROM t u, (SELECT 1) AS v",
		"SELECT a NOT IN (1, 2.0, 'x'), a IN (SELECT b FROM s), a NOT BETWEEN 1 AND b + 2, TRUE, false, NULL FROM t JOIN s ON t.a = s.b",
		"SELECT year(d), month(d), day(d), week(d), d + interval '3' month, d - interval 14 day, date '1995-03-15' FROM ship",
		"SELECT DISTINCT sum(l_extendedprice * (1 - l_discount)) AS revenue, array_agg(o), st_polygon(x, y) FROM lineitem ORDER BY revenue DESC, 2, abs(sum(o)) + 1 ASC LIMIT 9223372036854775807",
		"SELECT max(uid + 0), max(uid + 0.0), max(name = 'Ann') FROM users GROUP BY bal DISTANCE-TO-ANY L2 WITHIN 15 -- memo keys",
	}
	aggs := []string{"count(*), avg(x), max(y)", "count(*), sum(x)", "count(*), min(y)", "count(*), avg(x), min(y)"}
	clauses := []string{
		"DISTANCE-TO-ANY L2 WITHIN 0.2",
		"DISTANCE-TO-ALL LINF WITHIN 0.05 ON-OVERLAP JOIN-ANY",
		"DISTANCE-TO-ALL L2 WITHIN 0.8 ON-OVERLAP ELIMINATE",
	}
	for i, clause := range clauses {
		by := "x, y"
		if i == 2 {
			by = "x, y, z"
		}
		for _, a := range aggs {
			base := fmt.Sprintf("SELECT %s FROM checkins GROUP BY %s %s", a, by, clause)
			seeds = append(seeds, base, base+" HAVING count(*) >= 3", base+" ORDER BY 1 DESC, 2 DESC LIMIT 10")
		}
	}
	for _, list := range []string{"0.1, 0.4, 0.8", "0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8"} {
		seeds = append(seeds,
			"SELECT eps, count(*), avg(x) FROM checkins GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN ("+list+")",
			"SELECT * FROM checkins GROUP BY x, y DISTANCE-TO-ANY LINF EPS IN ("+list+") SIMILARITY CUBE BY EPS")
	}
	return seeds
}

// hasSubquery reports whether the expression contains an IN subquery,
// which the printer elides (as "<subquery>"): such a form is no SQL and
// the planner never matches or keys on it (plan.rowPure).
func hasSubquery(e Expr) bool {
	switch x := e.(type) {
	case *InExpr:
		if x.Sub != nil || hasSubquery(x.E) {
			return true
		}
		for _, l := range x.List {
			if hasSubquery(l) {
				return true
			}
		}
	case *BinaryExpr:
		return hasSubquery(x.L) || hasSubquery(x.R)
	case *UnaryExpr:
		return hasSubquery(x.E)
	case *BetweenExpr:
		return hasSubquery(x.E) || hasSubquery(x.Lo) || hasSubquery(x.Hi)
	case *FuncCall:
		for _, a := range x.Args {
			if hasSubquery(a) {
				return true
			}
		}
	}
	return false
}

// FuzzParse: no input panics the lexer or the parser, and the printer
// is a fixed point of the parser — for every select item and ORDER BY
// key of a statement that parses, the printed expression parses back to
// an expression that prints the same. ORDER BY resolution, the
// aggregate binder, memo columns and evaluator-cache keys all identify
// expressions by that printed form.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			return
		}
		var exprs []Expr
		for _, item := range sel.Items {
			if !item.Star {
				exprs = append(exprs, item.Expr)
			}
		}
		for _, key := range sel.OrderBy {
			exprs = append(exprs, key.Expr)
		}
		for _, e := range exprs {
			if hasSubquery(e) {
				continue
			}
			printed := e.String()
			again, err := ParseSelect("SELECT " + printed)
			if err != nil {
				t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
			}
			if len(again.Items) != 1 || again.Items[0].Star || again.Items[0].Alias != "" {
				t.Fatalf("%q prints as %q, which parses as %d select items", src, printed, len(again.Items))
			}
			if twice := again.Items[0].Expr.String(); twice != printed {
				t.Fatalf("%q prints as %q, which parses and prints as %q", src, printed, twice)
			}
		}
	})
}

// TestFuzzSeedsParse: the seed corpus is made of statements, not of
// parse errors that would start the fuzzer from nothing.
func TestFuzzSeedsParse(t *testing.T) {
	for _, s := range fuzzSeeds() {
		if _, err := Parse(s); err != nil {
			t.Errorf("seed %q: %v", strings.TrimSpace(s), err)
		}
	}
}
