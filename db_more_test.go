package sgb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

func TestExecSelectReturnsRowCount(t *testing.T) {
	db := newGPSDB(t)
	n, err := db.Exec("SELECT id FROM gps WHERE lat > 4")
	if err != nil || n != 3 {
		t.Fatalf("Exec select = %d, %v", n, err)
	}
}

func TestTablesAndTableLen(t *testing.T) {
	db := newGPSDB(t)
	tables := db.Tables()
	if len(tables) != 1 || tables[0] != "gps" {
		t.Fatalf("tables = %v", tables)
	}
	if _, err := db.TableLen("missing"); err == nil {
		t.Error("TableLen of missing table succeeded")
	}
}

func TestInsertPartialColumnsLeavesNulls(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT, c TEXT)")
	mustExec(t, db, "INSERT INTO t (c, a) VALUES ('x', 1)")
	rows := mustQuery(t, db, "SELECT a, b, c FROM t")
	r := rows.Data[0]
	if r[0].I != 1 || !r[1].IsNull() || r[2].S != "x" {
		t.Fatalf("partial insert = %v", r)
	}
}

func TestInsertConstExpressions(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT, d DATE)")
	mustExec(t, db, "INSERT INTO t VALUES (2 + 3 * 4, date '1995-01-01' + interval '2' month)")
	rows := mustQuery(t, db, "SELECT a, d FROM t")
	if rows.Data[0][0].I != 14 || rows.Data[0][1].String() != "1995-03-01" {
		t.Fatalf("const insert = %v", rows.Data[0])
	}
	// Column refs are not constants.
	if _, err := db.Exec("INSERT INTO t VALUES (a, date '1995-01-01')"); err == nil {
		t.Error("non-constant insert accepted")
	}
}

func TestQueryParseErrorSurfaceIsClean(t *testing.T) {
	db := newGPSDB(t)
	_, err := db.Query("SELEC id FROM gps")
	if err == nil || !strings.Contains(err.Error(), "sql:") {
		t.Fatalf("parse error = %v", err)
	}
	_, err = db.QueryOpt("INSERT INTO gps VALUES (9, 0, 0)", QueryOptions{})
	if err == nil {
		t.Error("QueryOpt accepted a non-SELECT")
	}
}

func TestDumpCSVUnknownTable(t *testing.T) {
	db := Open()
	if err := db.DumpCSV("ghost", nil); err == nil {
		t.Error("DumpCSV of missing table succeeded")
	}
}

// TestSQLMatchesOperatorAPI: running the SGB grouping through SQL and
// through the operator API on identical data yields identical group
// size multisets — the end-to-end pipeline adds or drops nothing.
func TestSQLMatchesOperatorAPI(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE p (x FLOAT, y FLOAT)")
	pts := make([]Point, 0, 60)
	for i := 0; i < 60; i++ {
		x := float64(i%10) * 0.7
		y := float64(i/10) * 0.9
		pts = append(pts, Point{x, y})
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO p VALUES (%g, %g)", x, y)); err != nil {
			t.Fatal(err)
		}
	}
	for _, variant := range []struct {
		clause  string
		overlap Overlap
	}{
		{"ON-OVERLAP JOIN-ANY", JoinAny},
		{"ON-OVERLAP ELIMINATE", Eliminate},
		{"ON-OVERLAP FORM-NEW-GROUP", FormNewGroup},
	} {
		rows, err := db.QueryOpt(`SELECT count(*) FROM p
			GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1.1 `+variant.clause,
			QueryOptions{Algorithm: OnTheFlyIndex, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := GroupByAll(pts, Options{
			Metric: L2, Eps: 1.1, Overlap: variant.overlap,
			Algorithm: OnTheFlyIndex, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		sqlSizes := sortedCounts(rows)
		opSizes := res.Sizes()
		sortInt64sAndInts(sqlSizes, opSizes)
		if len(sqlSizes) != len(opSizes) {
			t.Fatalf("%s: SQL %d groups, operator %d", variant.clause, len(sqlSizes), len(opSizes))
		}
		for i := range sqlSizes {
			if sqlSizes[i] != int64(opSizes[i]) {
				t.Fatalf("%s: size mismatch %v vs %v", variant.clause, sqlSizes, opSizes)
			}
		}
	}
}

func sortInt64sAndInts(a []int64, b []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j-1] > b[j]; j-- {
			b[j-1], b[j] = b[j], b[j-1]
		}
	}
}

// TestSQLKeysAbove2p53: equality keys keep all 64 bits of an INT. Folded
// into float64 they merged 2⁵³ and 2⁵³ + 1 — one group, one distinct
// row, four join rows — while 2 and 2.0 must still share a key.
func TestSQLKeysAbove2p53(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE a (id INT, v INT)")
	mustExec(t, db, "CREATE TABLE b (id INT, v INT)")
	mustExec(t, db, "INSERT INTO a VALUES (9007199254740992, 1), (9007199254740993, 2)")
	mustExec(t, db, "INSERT INTO b VALUES (9007199254740992, 1), (9007199254740993, 2)")

	rows := mustQuery(t, db, "SELECT id, count(*) FROM a GROUP BY id")
	if len(rows.Data) != 2 || rows.Data[0][0].I != 1<<53 || rows.Data[1][0].I != 1<<53+1 ||
		rows.Data[0][1].I != 1 || rows.Data[1][1].I != 1 {
		t.Errorf("GROUP BY id = %v", rows.Data)
	}
	if rows := mustQuery(t, db, "SELECT DISTINCT id FROM a"); len(rows.Data) != 2 {
		t.Errorf("SELECT DISTINCT id = %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT a.v, b.v FROM a JOIN b ON a.id = b.id")
	if len(rows.Data) != 2 || rows.Data[0][0].I != rows.Data[0][1].I || rows.Data[1][0].I != rows.Data[1][1].I {
		t.Errorf("a JOIN b ON a.id = b.id = %v", rows.Data)
	}
	if rows := mustQuery(t, db, "SELECT v FROM a WHERE id IN (SELECT id FROM b WHERE v = 1)"); len(rows.Data) != 1 {
		t.Errorf("id IN (subquery) = %v", rows.Data)
	}

	mustExec(t, db, "CREATE TABLE f (x FLOAT)")
	mustExec(t, db, "INSERT INTO f VALUES (2.0), (9007199254740992.0)")
	rows = mustQuery(t, db, "SELECT a.v FROM a JOIN f ON a.id = f.x")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 {
		t.Errorf("INT = FLOAT join = %v", rows.Data)
	}
}

// within5s runs f and fails the test if it has not returned after five
// seconds (the goroutine is abandoned: the statements below used to
// walk 2⁶³ grid cells).
func within5s(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no answer after 5 s", what)
	}
}

// TestFarCoordinatesRefused: a coordinate, or an ε, whose ε-cell index
// no float64 holds exactly ends in an error that names it — through the
// operators, the ε-lattice, the maintained handles and SQL with the
// evaluator cache on and off. x ± ε used to overflow to ±Inf, whose
// int64 conversion is MinInt64, and the grid probe never came back.
func TestFarCoordinatesRefused(t *testing.T) {
	pts := []Point{{0, 0}, {0.5, 0}, {1e308, 1e308}, {-1e308, -1e308}}
	wantErr := func(what string, err error, part string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), part) {
			t.Errorf("%s: error %v, want one naming %q", what, err, part)
		}
	}
	for _, alg := range []Algorithm{AllPairs, OnTheFlyIndex, GridIndex} {
		// ε itself out of range: no coordinate could be probed.
		within5s(t, "GroupByAny", func() {
			_, err := GroupByAny(pts, Options{Metric: L2, Eps: 1e308, Algorithm: alg})
			wantErr("GroupByAny ε=1e308", err, "ε = 1e+308")
		})
		within5s(t, "GroupByAll", func() {
			_, err := GroupByAll(pts, Options{Metric: L2, Eps: 1e308, Overlap: Eliminate, Algorithm: alg})
			wantErr("GroupByAll ε=1e308", err, "ε = 1e+308")
		})
		within5s(t, "SweepAny", func() {
			_, err := SweepAny(pts, []float64{1, 1e308}, Options{Metric: L2, Algorithm: alg})
			wantErr("SweepAny ε=1e308", err, "ε = 1e+308")
		})
		// A usable ε, a coordinate too far out for it.
		within5s(t, "GroupByAny", func() {
			_, err := GroupByAny(pts, Options{Metric: L2, Eps: 1, Algorithm: alg})
			wantErr("GroupByAny", err, "point 2 has coordinate 0 (1e+308)")
		})
		within5s(t, "GroupByAll", func() {
			_, err := GroupByAll(pts, Options{Metric: LInf, Eps: 1, Algorithm: alg})
			wantErr("GroupByAll", err, "point 2 has coordinate 0 (1e+308)")
		})
		within5s(t, "SweepAny", func() {
			_, err := SweepAny(pts, []float64{0.5, 1}, Options{Metric: L2, Algorithm: alg})
			wantErr("SweepAny", err, "point 2 has coordinate 0 (1e+308)")
		})
	}

	// A refused batch leaves a maintained handle as it was.
	for _, mk := range []func(Options) (*Incremental, error){NewIncrementalAny, NewIncrementalAll} {
		within5s(t, "Incremental", func() {
			inc, err := mk(Options{Metric: L2, Eps: 1, Algorithm: GridIndex})
			if err != nil {
				t.Error(err)
				return
			}
			if err := inc.Append(pts[:2]); err != nil {
				t.Error(err)
				return
			}
			wantErr("Incremental.Append", inc.Append(pts[2:]), "point 0 has coordinate 0 (1e+308)")
			if inc.Len() != 2 {
				t.Errorf("refused batch left %d points", inc.Len())
			}
			if err := inc.Remove([]int{0}); err != nil {
				t.Errorf("Remove after a refused batch: %v", err)
			}
			if res, err := inc.Result(); err != nil || len(res.Groups) != 1 {
				t.Errorf("Result after a refused batch: %v, %v", res, err)
			}
		})
	}

	for _, incremental := range []string{"on", "off"} {
		db := Open()
		mustExec(t, db, "SET incremental = "+incremental)
		mustExec(t, db, "CREATE TABLE p (x FLOAT, y FLOAT)")
		mustExec(t, db, "INSERT INTO p VALUES (0, 0), (0.5, 0), (1e308, 1e308), (-1e308, -1e308)")
		for sql, part := range map[string]string{
			"SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY WITHIN 1e308":                      "ε = 1e+308",
			"SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY EPS IN (1, 1e308)":                 "ε = 1e+308",
			"SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ALL WITHIN 1e308 ON-OVERLAP ELIMINATE": "ε = 1e+308",
			"SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY WITHIN 1":                          "coordinate 0 (1e+308)",
			"SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY EPS IN (1, 2)":                     "coordinate 0 (1e+308)",
			"SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ALL WITHIN 1":                          "coordinate 0 (1e+308)",
		} {
			within5s(t, sql, func() {
				_, err := db.Query(sql)
				wantErr("incremental "+incremental+": "+sql, err, part)
			})
		}
		// The table and the session still answer.
		mustExec(t, db, "DELETE FROM p WHERE x > 1 OR x < 0")
		if got := counts(mustQuery(t, db, "SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY WITHIN 1")); len(got) != 1 || got[0] != 2 {
			t.Errorf("incremental %s: after deleting the far rows: %v", incremental, got)
		}
	}
}

// TestSQLSmallestInt: -9223372036854775808 is a literal. The parser
// used to refuse its magnitude before applying the sign.
func TestSQLSmallestInt(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (id INT)")
	mustExec(t, db, "INSERT INTO t VALUES (-9223372036854775808), (-9223372036854775807), (0)")
	if rows := mustQuery(t, db, "SELECT -9223372036854775808"); len(rows.Data) != 1 || rows.Data[0][0].Kind != types.KindInt || rows.Data[0][0].I != math.MinInt64 {
		t.Errorf("SELECT -9223372036854775808 = %v", rows.Data)
	}
	if rows := mustQuery(t, db, "SELECT min(id) FROM t"); rows.Data[0][0].I != math.MinInt64 {
		t.Errorf("min(id) = %v", rows.Data)
	}
	if rows := mustQuery(t, db, "SELECT id FROM t WHERE id = -9223372036854775808"); len(rows.Data) != 1 {
		t.Errorf("WHERE id = -9223372036854775808 matched %v", rows.Data)
	}
	if n, err := db.Exec("DELETE FROM t WHERE id = -9223372036854775808"); err != nil || n != 1 {
		t.Errorf("DELETE: %d rows, %v", n, err)
	}
	if rows := mustQuery(t, db, "SELECT min(id) FROM t"); rows.Data[0][0].I != math.MinInt64+1 {
		t.Errorf("min(id) after the DELETE = %v", rows.Data)
	}
	if _, err := db.Query("SELECT 9223372036854775808"); err == nil {
		t.Error("the magnitude alone parsed")
	}
}

// TestSQLThreeValuedLogic: predicates follow SQL's three-valued logic
// over a table holding (5, NULL) and (6, 1.0). OR and AND answer the
// same whichever side holds the NULL, [NOT] BETWEEN a NULL is unknown,
// and NOT IN a list or subquery holding a NULL keeps no row it does not
// match. A WHERE clause — SELECT's and DELETE's alike — keeps a row only
// when its predicate is TRUE. Operands that are neither boolean nor NULL
// keep reading as FALSE.
func TestSQLThreeValuedLogic(t *testing.T) {
	cases := []struct {
		where string
		want  []int64
	}{
		{"z > 0 OR id = 5", []int64{5, 6}},
		{"id = 5 OR z > 0", []int64{5, 6}},
		{"NOT (z > 0 OR id = 5)", nil},
		{"NOT (z > 0 AND id = 6)", []int64{5}},
		{"NOT (id = 6 AND z > 0)", []int64{5}},
		{"z > 0 AND id = 6", []int64{6}},
		{"z BETWEEN 0 AND 0.5", nil},
		{"z NOT BETWEEN 0 AND 0.5", []int64{6}},
		{"NOT (z BETWEEN 0 AND 0.5)", []int64{6}},
		{"id BETWEEN z AND 10", []int64{6}},
		{"id NOT BETWEEN z AND 5.5", []int64{6}},
		{"id NOT BETWEEN z AND 4", []int64{5, 6}},
		{"id IN (5, NULL)", []int64{5}},
		{"id NOT IN (7, NULL)", nil},
		{"id NOT IN (5, NULL)", nil},
		{"NOT (id IN (7, NULL))", nil},
		{"id NOT IN (7, 8)", []int64{5, 6}},
		{"id NOT IN (SELECT z FROM t)", nil},
		{"id IN (SELECT z FROM t) OR id = 5", []int64{5}},
		{"id NOT IN (SELECT id FROM t WHERE id = 6)", []int64{5}},
		{"id OR id = 6", []int64{6}},
		{"NOT (id AND z > 0)", []int64{5, 6}},
	}
	load := func() *DB {
		db := Open()
		mustExec(t, db, "CREATE TABLE t (id INT, z FLOAT)")
		mustExec(t, db, "INSERT INTO t VALUES (5, NULL), (6, 1.0)")
		return db
	}
	ids := func(rows *Rows) []int64 {
		var out []int64
		for _, r := range rows.Data {
			out = append(out, r[0].I)
		}
		return out
	}
	for _, tc := range cases {
		got := ids(mustQuery(t, load(), "SELECT id FROM t WHERE "+tc.where+" ORDER BY id"))
		if !slices.Equal(got, tc.want) {
			t.Errorf("SELECT … WHERE %s = %v, want %v", tc.where, got, tc.want)
		}
		db := load()
		n, err := db.Exec("DELETE FROM t WHERE " + tc.where)
		if err != nil {
			t.Fatalf("DELETE … WHERE %s: %v", tc.where, err)
		}
		var kept []int64
		for _, id := range []int64{5, 6} {
			if !slices.Contains(tc.want, id) {
				kept = append(kept, id)
			}
		}
		if left := ids(mustQuery(t, db, "SELECT id FROM t ORDER BY id")); n != len(tc.want) || !slices.Equal(left, kept) {
			t.Errorf("DELETE … WHERE %s deleted %d rows and kept %v, want %d and %v", tc.where, n, left, len(tc.want), kept)
		}
	}
}

// TestSQLMixedNumericCompareExact: an INT compared with a FLOAT compares
// exactly, as two INTs do and as equality keys (IN a subquery, a join)
// already did. Read as floats, 2⁵³ + 1 equalled 2⁵³ and 2⁶³ − 1 equalled
// 2⁶³, so WHERE, IN (…) and BETWEEN kept rows that IN (SELECT …) and
// JOIN … ON dropped. Each predicate runs as SELECT and as DELETE; then
// ORDER BY … LIMIT ranks a key column whose rows mix INT and FLOAT —
// over the table, and over a shared similarity grouping with the top-k
// hint — in the exact order.
func TestSQLMixedNumericCompareExact(t *testing.T) {
	const (
		a = 1<<53 + 1 // the row whose id a float comparison misreads
		b = 1 << 53
		c = math.MaxInt64
		d = math.MinInt64
	)
	load := func() *DB {
		db := Open()
		mustExec(t, db, "CREATE TABLE t (id INT, f FLOAT)")
		mustExec(t, db, "CREATE TABLE u (g FLOAT)")
		mustExec(t, db, "INSERT INTO t VALUES (9007199254740993, 9007199254740992.0), (9007199254740992, 9007199254740992.0), "+
			"(9223372036854775807, 1.5), (-9223372036854775808, -0.0)")
		mustExec(t, db, "INSERT INTO u VALUES (9007199254740992.0)")
		return db
	}
	ids := func(rows *Rows) []int64 {
		var out []int64
		for _, r := range rows.Data {
			out = append(out, r[0].I)
		}
		return out
	}
	all := []int64{d, b, a, c} // ORDER BY id
	for _, tc := range []struct {
		where string
		want  []int64
	}{
		{"id = 9007199254740992.0", []int64{b}},
		{"9007199254740992.0 = id", []int64{b}},
		{"id <> 9007199254740992.0", []int64{d, a, c}},
		{"id IN (9007199254740992.0)", []int64{b}},
		{"id NOT IN (9007199254740992.0)", []int64{d, a, c}},
		{"id BETWEEN 9007199254740992.0 AND 9007199254740992.0", []int64{b}},
		{"id = f", []int64{b}},
		{"id > f", []int64{a, c}},
		{"f < id", []int64{a, c}},
		{"id IN (SELECT g FROM u)", []int64{b}},
		{"id < 9223372036854775808.0", all},
		{"id >= 9223372036854775808.0", nil},
		{"id = -9223372036854775808.0", []int64{d}},
		{"id > -9223372036854775808.0", []int64{b, a, c}},
	} {
		got := ids(mustQuery(t, load(), "SELECT id FROM t WHERE "+tc.where+" ORDER BY id"))
		if !slices.Equal(got, tc.want) {
			t.Errorf("SELECT … WHERE %s = %v, want %v", tc.where, got, tc.want)
		}
		db := load()
		n, err := db.Exec("DELETE FROM t WHERE " + tc.where)
		if err != nil {
			t.Fatalf("DELETE … WHERE %s: %v", tc.where, err)
		}
		var kept []int64
		for _, id := range all {
			if !slices.Contains(tc.want, id) {
				kept = append(kept, id)
			}
		}
		if left := ids(mustQuery(t, db, "SELECT id FROM t ORDER BY id")); n != len(tc.want) || !slices.Equal(left, kept) {
			t.Errorf("DELETE … WHERE %s deleted %d rows and kept %v, want %d and %v", tc.where, n, left, len(tc.want), kept)
		}
	}
	if got := ids(mustQuery(t, load(), "SELECT t.id FROM t JOIN u ON t.id = u.g")); !slices.Equal(got, []int64{b}) {
		t.Errorf("t JOIN u ON t.id = u.g = %v", got)
	}

	// SQL coerces a FLOAT column's INTs, so the mixed column is built
	// through the catalog, as a generator would; each row is a group of
	// its own at ε = 1, and max(k) keeps the row's kind.
	keys := []types.Value{
		types.Int(a), types.Float(b), types.Int(c), types.Float(0x1p63),
		types.Int(b), types.Float(-b), types.Int(-b - 1), types.Float(b + 2),
	}
	asc := []int64{8, 6, 5, 1, 4, 0, 7, 2, 3}  // the NULL first, 1 and 4 tie
	desc := []int64{3, 2, 7, 0, 1, 4, 5, 6, 8} // ties keep input order
	for _, incremental := range []string{"on", "off"} {
		db := Open()
		m := storage.NewTable("m", storage.Schema{{Name: "id", Type: types.KindInt},
			{Name: "x", Type: types.KindFloat}, {Name: "k", Type: types.KindFloat}})
		for i, k := range keys {
			m.Rows = append(m.Rows, types.Row{types.Int(int64(i)), types.Float(float64(10 * i)), k})
		}
		if err := db.Catalog().Create(m); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "INSERT INTO m VALUES (8, 80, NULL)")
		mustExec(t, db, "SET incremental = "+incremental)
		for _, dir := range []string{"", " DESC"} {
			want := asc
			if dir != "" {
				want = desc
			}
			for n := 1; n <= len(want); n++ {
				for _, sql := range []string{
					fmt.Sprintf("SELECT id, k FROM m ORDER BY k%s LIMIT %d", dir, n),
					fmt.Sprintf("SELECT min(id), max(k) FROM m GROUP BY x DISTANCE-TO-ANY L2 WITHIN 1 ORDER BY 2%s LIMIT %d", dir, n),
				} {
					if got := ids(mustQuery(t, db, sql)); !slices.Equal(got, want[:n]) {
						t.Errorf("incremental %s: %s = %v, want %v", incremental, sql, got, want[:n])
					}
				}
			}
			sql := "SELECT id, k FROM m ORDER BY k" + dir
			if got := ids(mustQuery(t, db, sql)); !slices.Equal(got, want) {
				t.Errorf("incremental %s: %s = %v, want %v", incremental, sql, got, want)
			}
		}
	}
}

// TestEpsLevelRangeRule: every ε of an EPS IN list obeys the range rule
// a single ε does, one-shot and maintained, whatever the cache holds.
// Over points up to 3 from the origin, ε = 1e-300 puts a coordinate
// more than 2^52 ε-cells out and ε = 5e-324 is outside ε-cell
// arithmetic: each is refused alone, as the lowest level of a list,
// through a fresh maintained entry and as a level added to an entry a
// wider sweep built, which keeps its levels.
func TestEpsLevelRangeRule(t *testing.T) {
	const (
		far     = "more than 2^52 ε-cells"
		outside = "outside the range ε-cell arithmetic can hold"
		sel     = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 "
	)
	for _, incremental := range []bool{false, true} {
		db := Open()
		if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec("INSERT INTO pts VALUES (1, 0, 0), (2, 0, 0), (3, 0.5, 0), (4, 3, 3), (5, 3, 3.0000001)"); err != nil {
			t.Fatal(err)
		}
		fresh := func() *Session {
			s := db.NewSession()
			s.SetOptions(QueryOptions{Algorithm: GridIndex, Incremental: incremental})
			return s
		}
		refused := func(s *Session, sql, part string) {
			t.Helper()
			if _, err := s.Query(sql); err == nil || !strings.Contains(err.Error(), part) {
				t.Fatalf("incremental=%t %q: error %v, want one naming %q", incremental, sql, err, part)
			}
		}
		for _, c := range []struct{ eps, part string }{{"1e-300", far}, {"5e-324", outside}} {
			refused(fresh(), sel+"WITHIN "+c.eps, c.part)
			refused(fresh(), sel+"EPS IN ("+c.eps+", 1)", c.part)
		}
		if !incremental {
			continue
		}
		s := fresh()
		const sweep = sel + "EPS IN (0.5, 1)"
		if _, err := s.Query(sweep); err != nil {
			t.Fatal(err)
		}
		ev, _ := sweepEntry(t, db)
		refused(s, sel+"WITHIN 1e-300", far)
		refused(s, sel+"WITHIN 5e-324", outside)
		if kept, _ := sweepEntry(t, db); kept != ev || !slices.Equal(kept.Levels(), []float64{0.5, 1}) {
			t.Fatalf("after the refused levels the shared entry keeps levels %v (same evaluator: %t), want 0.5 and 1", kept.Levels(), kept == ev)
		}
		if _, err := s.Query(sweep); err != nil {
			t.Fatal(err)
		}
	}
}
