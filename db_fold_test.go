package sgb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/plan"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/types"
)

// TestSQLIntComparisonExact: two ids that differ only below float64's
// 53 bits are different rows to WHERE, DELETE, min/max — the standard
// aggregate, and the similarity node's typed and boxed folds — and
// ORDER BY, with and without LIMIT.
func TestSQLIntComparisonExact(t *testing.T) {
	const lo, hi = "9007199254740992", "9007199254740993" // 2⁵³, 2⁵³ + 1
	db := Open()
	for _, sql := range []string{
		"CREATE TABLE big (id INT, x FLOAT, y FLOAT)",
		"INSERT INTO big VALUES (" + lo + ", 0, 0), (" + hi + ", 0.1, 0), (7, 0.2, 0)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	const sim = " FROM big GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
	for _, incremental := range []string{"off", "on"} {
		if _, err := db.Exec("SET incremental = " + incremental); err != nil {
			t.Fatal(err)
		}
		for sql, want := range map[string]string{
			"SELECT id FROM big WHERE id = " + hi:               "[[" + hi + "]]",
			"SELECT id FROM big WHERE id > " + lo:               "[[" + hi + "]]",
			"SELECT id FROM big WHERE id BETWEEN 8 AND " + lo:   "[[" + lo + "]]",
			"SELECT max(id), min(id) FROM big WHERE id > 7":     "[[" + hi + " " + lo + "]]",
			"SELECT max(id)" + sim:                              "[[" + hi + "]]",
			"SELECT max(id + 0), min(0 - id)" + sim:             "[[" + hi + " -" + hi + "]]",
			"SELECT id FROM big ORDER BY id DESC LIMIT 1":       "[[" + hi + "]]",
			"SELECT id FROM big ORDER BY id DESC":               "[[" + hi + "] [" + lo + "] [7]]",
			"SELECT max(id)" + sim + " ORDER BY 1 DESC LIMIT 1": "[[" + hi + "]]",
		} {
			rows, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if got := fmt.Sprint(rows.Data); got != want {
				t.Errorf("incremental %s: %s = %s, want %s", incremental, sql, got, want)
			}
		}
	}
	if n, err := db.Exec("DELETE FROM big WHERE id = " + hi); err != nil || n != 1 {
		t.Fatalf("DELETE of one id removed %d rows (%v)", n, err)
	}
	if rows, err := db.Query("SELECT id FROM big ORDER BY id"); err != nil || fmt.Sprint(rows.Data) != "[[7] ["+lo+"]]" {
		t.Fatalf("after the DELETE the table holds %v (%v)", rows, err)
	}
}

// walkPlan calls fn on every operator of a plan, parents first.
func walkPlan(op exec.Operator, fn func(exec.Operator)) {
	fn(op)
	v := reflect.ValueOf(op).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInterface() {
			if child, ok := f.Interface().(exec.Operator); ok {
				walkPlan(child, fn)
			}
		}
	}
}

// unmarkColumns clears the planner's bare-column marks in every
// similarity node of a plan, which leaves all of its aggregates to the
// accumulators — the fold every release before the typed kernels ran.
func unmarkColumns(op exec.Operator) {
	walkPlan(op, func(op exec.Operator) {
		if s, ok := op.(*exec.SGB); ok {
			for i := range s.Aggs {
				s.Aggs[i].ArgCol = 0
			}
		}
	})
}

// foldRunner runs SELECTs on db with incremental maintenance on or off,
// through the planner as it is, with its column marks cleared, or with
// every projection copying its rows (its Identity marks cleared).
type foldRunner struct {
	db          *DB
	incremental bool
	unmarked    bool
	copying     bool
}

func (r foldRunner) String() string {
	return fmt.Sprintf("incremental=%v unmarked=%v copying=%v", r.incremental, r.unmarked, r.copying)
}

func (r foldRunner) query(sql string, st *Stats) ([]types.Row, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	b := plan.NewBuilder(r.db.cat)
	b.SGBAlgorithm, b.SGBStats = GridIndex, st
	if r.incremental {
		b.SGBAnswer = r.db.sgbAnswerFunc
	}
	cq, err := b.BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	if r.unmarked {
		unmarkColumns(cq.Root)
	}
	if r.copying {
		walkPlan(cq.Root, func(op exec.Operator) {
			if p, ok := op.(*exec.Project); ok {
				p.Identity = false
			}
		})
	}
	return plan.Execute(cq)
}

// sameRows is row-for-row, value-for-value equality with floats
// compared by bit pattern.
func sameRows(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, v := range a[i] {
			w := b[i][j]
			if v.Kind != w.Kind || v.I != w.I || v.S != w.S || v.B != w.B || math.Float64bits(v.F) != math.Float64bits(w.F) {
				return false
			}
		}
	}
	return true
}

// foldTwins are two databases with the same content and, over each,
// the four ways a statement's aggregates can be folded: shared or
// private grouping × typed kernels or accumulators. The marked and the
// unmarked planner get a database each, because a memoized column does
// not remember which fold filled it.
type foldTwins struct {
	dbs     [2]*DB
	runners []foldRunner
}

func newFoldTwins(t *testing.T, ddl ...string) *foldTwins {
	t.Helper()
	tw := &foldTwins{dbs: [2]*DB{Open(), Open()}}
	for i, db := range tw.dbs {
		tw.runners = append(tw.runners, foldRunner{db: db, incremental: true, unmarked: i == 1}, foldRunner{db: db, unmarked: i == 1})
	}
	tw.exec(t, ddl...)
	return tw
}

func (tw *foldTwins) exec(t *testing.T, sqls ...string) {
	t.Helper()
	for _, sql := range sqls {
		for _, db := range tw.dbs {
			if _, err := db.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
}

// query runs sql on all four runners, requires one answer, and returns
// it.
func (tw *foldTwins) query(t *testing.T, when, sql string) []types.Row {
	t.Helper()
	var want []types.Row
	for i, r := range tw.runners {
		got, err := r.query(sql, nil)
		if err != nil {
			t.Fatalf("%s, %v: %s: %v", when, r, sql, err)
		}
		if i == 0 {
			want = got
		} else if !sameRows(got, want) {
			t.Fatalf("%s: %s:\n%v answers\n%v\n%v answers\n%v", when, sql, r, got, tw.runners[0], want)
		}
	}
	return want
}

// foldShapes are the statements of the SQL-surface rounds over
// chk(id INT, x, y, z FLOAT, w FLOAT nullable, k INT nullable): the
// nine similarity shapes of the end-to-end benchmark with every kernel
// kind over an INT, a FLOAT and a nullable column, an EPS IN sweep,
// HAVING, ORDER BY … LIMIT, aggregates the kernels do not take, and
// inputs that are not a table scan.
func foldShapes() []string {
	const aggs = "SELECT count(*), count(w), sum(id), sum(x), sum(k), avg(id), avg(w), min(id), max(y), min(w), max(k), min(z)"
	var shapes []string
	for _, eps := range []string{"0.05", "0.2", "0.8"} {
		shapes = append(shapes,
			aggs+" FROM chk GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN "+eps,
			aggs+" FROM chk GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN "+eps+" ON-OVERLAP JOIN-ANY",
			aggs+" FROM chk GROUP BY x, y, z DISTANCE-TO-ALL L2 WITHIN "+eps+" ON-OVERLAP ELIMINATE")
	}
	const anyQ = " FROM chk GROUP BY x, y DISTANCE-TO-ANY L2 "
	return append(shapes,
		"SELECT eps, count(*), sum(id), avg(w), max(k), min(x)"+anyQ+"EPS IN (0.1, 0.3, 0.6)",
		"SELECT count(*), sum(k), avg(x)"+anyQ+"WITHIN 0.3 HAVING count(*) >= 2 AND max(id) > 10",
		"SELECT count(*), max(id), min(w)"+anyQ+"WITHIN 0.3 ORDER BY 1 DESC, 2 DESC LIMIT 7",
		"SELECT sum(id), count(*)"+anyQ+"WITHIN 0.3 ORDER BY sum(id) LIMIT 5",
		"SELECT count(*), sum(id + 1), avg(x * 2), array_agg(id), max(w)"+anyQ+"WITHIN 0.3",
		"SELECT count(*), sum(chk.id), max(tag.v), avg(tag.v), min(chk.w) FROM chk JOIN tag ON chk.id = tag.id GROUP BY chk.x, chk.y DISTANCE-TO-ANY L2 WITHIN 0.3",
		"SELECT count(*), sum(n), avg(s), max(s) FROM (SELECT k, count(*) AS n, sum(w) AS s, avg(x) AS ax, avg(y) AS ay FROM chk WHERE k >= 0 GROUP BY k) AS d GROUP BY ax, ay DISTANCE-TO-ALL L2 WITHIN 2 ON-OVERLAP FORM-NEW-GROUP")
}

// TestSQLTypedFoldTwins drives the statements through INSERT → query →
// DELETE → query rounds on twin databases; every statement must have
// one answer whichever way its aggregates were folded, and sum(id)
// must stay an INT.
func TestSQLTypedFoldTwins(t *testing.T) {
	tw := newFoldTwins(t,
		"CREATE TABLE chk (id INT, x FLOAT, y FLOAT, z FLOAT, w FLOAT, k INT)",
		"CREATE TABLE tag (id INT, v INT)")
	r := rand.New(rand.NewSource(21))
	next := 0
	insert := func(n int) {
		var chk, tag strings.Builder
		for i := 0; i < n; i, next = i+1, next+1 {
			w, k := "NULL", "NULL"
			if r.Intn(4) > 0 {
				w = fmt.Sprint(r.NormFloat64())
			}
			if r.Intn(5) > 0 {
				k = fmt.Sprint(r.Intn(9) - 2)
			}
			fmt.Fprintf(&chk, ", (%d, %g, %g, %g, %s, %s)", next, r.Float64()*6, r.Float64()*6, r.NormFloat64()/4, w, k)
			if next%3 != 0 {
				fmt.Fprintf(&tag, ", (%d, %d)", next, r.Intn(100)-50)
			}
		}
		tw.exec(t, "INSERT INTO chk VALUES "+chk.String()[2:], "INSERT INTO tag VALUES "+tag.String()[2:])
	}
	check := func(when string) {
		t.Helper()
		for _, sql := range foldShapes() {
			rows := tw.query(t, when, sql)
			if strings.HasPrefix(sql, "SELECT count(*), count(w), sum(id)") {
				for _, row := range rows {
					if row[2].Kind != types.KindInt {
						t.Fatalf("%s: %s: sum(id) is %#v, want an INT", when, sql, row[2])
					}
				}
			}
		}
	}
	insert(700)
	check("after the load")
	for round := 1; round <= 3; round++ {
		insert(40)
		check(fmt.Sprintf("round %d, after INSERT", round))
		tw.exec(t, fmt.Sprintf("DELETE FROM chk WHERE id %% 11 = %d", round))
		check(fmt.Sprintf("round %d, after DELETE", round))
	}
}

// TestSQLFoldSkipsEliminatedRows: an aggregate argument that fails only
// on a row ELIMINATE drops is never evaluated there, so the statement
// succeeds — nothing reads an expression argument ahead of the groups —
// while the bare column of the same row is read and changes nothing.
func TestSQLFoldSkipsEliminatedRows(t *testing.T) {
	tw := newFoldTwins(t,
		"CREATE TABLE el (id INT, x FLOAT, y FLOAT)",
		// Row 3 is within 1 of rows 1 and 2, which are 1.5 apart: it
		// overlaps both groups and is eliminated.
		"INSERT INTO el VALUES (1, 0, 0), (2, 1.5, 0), (3, 0.75, 0)")
	const sql = "SELECT count(*), avg(1 / (x - 0.75)), sum(x), max(id) FROM el GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP ELIMINATE"
	rows := tw.query(t, "eliminated row", sql)
	if got, want := fmt.Sprint(rows), fmt.Sprint([]types.Row{
		{types.Int(1), types.Float(1 / (0 - 0.75)), types.Float(0), types.Int(1)},
		{types.Int(1), types.Float(1 / (1.5 - 0.75)), types.Float(1.5), types.Int(2)},
	}); got != want {
		t.Fatalf("%s = %s, want %s", sql, got, want)
	}
	if _, err := tw.runners[0].query(strings.Replace(sql, "ELIMINATE", "JOIN-ANY", 1), nil); err == nil {
		t.Fatal("with the row kept in a group the division by zero must surface")
	}
}

// TestTypedFoldTwoSessions: two sessions ask for the same aggregates of
// a newly published generation at once. Each column is still folded
// once — the sessions coalesce on the column's Once, whichever reads
// its input vector first — and both get the from-scratch answer. Run
// under -race.
func TestTypedFoldTwoSessions(t *testing.T) {
	const n = 1500
	db := Open()
	loadUniform(t, db, n, 31)
	const sql = "SELECT count(*), sum(id), avg(x), max(y), min(id) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.2"
	shared, private := foldRunner{db: db, incremental: true}, foldRunner{db: db}
	for round := 0; round < 6; round++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO pts VALUES (%d, 5.5, 5.5)", 10000+round)); err != nil {
			t.Fatal(err)
		}
		var (
			wg   sync.WaitGroup
			st   [2]Stats
			rows [2][]types.Row
			errs [2]error
		)
		for c := range rows {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rows[c], errs[c] = shared.query(sql, &st[c])
			}(c)
		}
		wg.Wait()
		want, err := private.query(sql, nil)
		if err != nil || errs[0] != nil || errs[1] != nil {
			t.Fatal(err, errs)
		}
		if !sameRows(rows[0], want) || !sameRows(rows[1], want) {
			t.Fatalf("round %d: a session's answer differs from a from-scratch evaluation", round)
		}
		if folded, once := st[0].RowsFolded+st[1].RowsFolded, int64(5*(n+round+1)); folded != once {
			t.Fatalf("round %d: the two sessions folded %d rows, want each of 5 columns once: %d", round, folded, once)
		}
	}
}

// TestSQLResultOutlivesStatement: an answer whose rows were handed out
// without a copy (the select list is the node's output row) belongs to
// the caller alone — later statements over the same cached grouping,
// writes that extend or shrink it, and the same statement run again
// leave it as it was.
func TestSQLResultOutlivesStatement(t *testing.T) {
	for _, incremental := range []string{"off", "on"} {
		db := Open()
		mustExec := func(sql string) {
			t.Helper()
			if _, err := db.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		mustExec("SET incremental = " + incremental)
		mustExec("CREATE TABLE p (id INT, x FLOAT, y FLOAT)")
		mustExec("INSERT INTO p VALUES (1, 0, 0), (2, 0.5, 0), (3, 10, 10), (4, 10.5, 10), (5, 50, 50)")
		for _, sql := range []string{
			"SELECT count(*), sum(id), max(y) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1",
			"SELECT count(*), sum(id), max(y) FROM p GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP JOIN-ANY",
			"SELECT count(*), max(y) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 ORDER BY 1 DESC, 2 LIMIT 2",
			"SELECT id, count(*) FROM p GROUP BY id",
		} {
			first, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			kept := fmt.Sprint(first.Data)
			again, err := db.Query(sql)
			if err != nil || fmt.Sprint(again.Data) != kept {
				t.Fatalf("incremental %s: %s answered %v, then %v (%v)", incremental, sql, kept, again, err)
			}
			mustExec("INSERT INTO p VALUES (6, 0.2, 0.1), (7, 10.2, 10.1)")
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
			mustExec("DELETE FROM p WHERE id >= 6")
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(first.Data); got != kept {
				t.Errorf("incremental %s: %s: the first answer changed under later statements: %s, was %s", incremental, sql, got, kept)
			}
			if got := fmt.Sprint(again.Data); got != kept {
				t.Errorf("incremental %s: %s: the second answer changed: %s, was %s", incremental, sql, got, kept)
			}
		}
	}
}
