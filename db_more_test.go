package sgb

import (
	"fmt"
	"strings"
	"testing"
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
