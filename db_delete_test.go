package sgb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/types"
)

// TestSQLDelete covers the DELETE statement surface: predicate and
// bare forms, affected-row counts, and the error paths.
func TestSQLDelete(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.5)", i, i))
	}
	n, err := db.Exec("DELETE FROM pts WHERE id >= 6")
	if err != nil || n != 4 {
		t.Fatalf("DELETE WHERE = %d, %v; want 4", n, err)
	}
	rows := mustQuery(t, db, "SELECT id FROM pts ORDER BY id")
	if rows.Len() != 6 || rows.Data[5][0].I != 5 {
		t.Fatalf("surviving rows = %v", rows.Data)
	}
	// Deleting nothing affects nothing.
	n, err = db.Exec("DELETE FROM pts WHERE id > 100")
	if err != nil || n != 0 {
		t.Fatalf("no-match DELETE = %d, %v; want 0", n, err)
	}
	// Subquery predicates work (the builder plans them as usual).
	mustExec(t, db, "CREATE TABLE doomed (id INT)")
	mustExec(t, db, "INSERT INTO doomed VALUES (1), (3)")
	n, err = db.Exec("DELETE FROM pts WHERE id IN (SELECT id FROM doomed)")
	if err != nil || n != 2 {
		t.Fatalf("subquery DELETE = %d, %v; want 2", n, err)
	}
	// Bare DELETE empties the table.
	n, err = db.Exec("DELETE FROM pts")
	if err != nil || n != 4 {
		t.Fatalf("bare DELETE = %d, %v; want 4", n, err)
	}
	if cnt, _ := db.TableLen("pts"); cnt != 0 {
		t.Fatalf("rows after bare DELETE = %d", cnt)
	}
	if _, err := db.Exec("DELETE FROM nosuch"); err == nil {
		t.Fatal("want error for unknown table")
	}
	if _, err := db.Exec("DELETE FROM pts WHERE nosuch = 1"); err == nil {
		t.Fatal("want error for unknown column in predicate")
	}
	if _, err := db.Exec("DELETE pts"); err == nil {
		t.Fatal("want parse error for DELETE without FROM")
	}
}

// TestSQLIncrementalDeleteReinsert is the headline staleness
// regression: with SET incremental = on, a DELETE followed by INSERTs
// restoring the old row count must not serve groups computed over the
// deleted rows. The pre-fix cache only invalidated when the consumed
// count exceeded the input length or the table pointer changed — this
// sequence keeps both stable and therefore served stale groups.
func TestSQLIncrementalDeleteReinsert(t *testing.T) {
	queries := []string{
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1`,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP ELIMINATE`,
	}
	for qi, sql := range queries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			incDB, refDB := Open(), Open()
			for _, db := range []*DB{incDB, refDB} {
				mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
				mustExec(t, db, "SET seed = 5")
			}
			mustExec(t, incDB, "SET incremental = on")
			rng := rand.New(rand.NewSource(int64(qi) + 17))
			insertRandomRows(t, rng, 80, incDB, refDB)
			queryBoth(t, incDB, refDB, sql) // prime the cache

			// Shrink, then restore the exact row count with new rows.
			for _, db := range []*DB{incDB, refDB} {
				mustExec(t, db, "DELETE FROM sensors WHERE id < 20")
			}
			insertRandomRows(t, rng, 20, incDB, refDB)
			queryBoth(t, incDB, refDB, sql)

			// And keep maintaining through further traffic.
			for _, db := range []*DB{incDB, refDB} {
				mustExec(t, db, "DELETE FROM sensors WHERE x < 3")
			}
			insertRandomRows(t, rng, 30, incDB, refDB)
			queryBoth(t, incDB, refDB, sql)
		})
	}
}

// TestSQLIncrementalGenerationGuard pins the generation counter
// itself: a mutation through a path the cache cannot track (direct
// storage access, as the data generators use) that restores the old
// row count must still invalidate the cached state. Against the
// pre-fix check (table pointer + consumed ≤ length) this test fails —
// the swap below keeps both invariant while changing the rows.
func TestSQLIncrementalGenerationGuard(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	mustExec(t, db, "SET incremental = on")
	for i := 0; i < 8; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO sensors VALUES (%d, %d.0, 0.0)", i, 10*i))
	}
	sql := `SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1`
	if got := sortedCounts(mustQuery(t, db, sql)); !reflect.DeepEqual(got, []int64{1, 1, 1, 1, 1, 1, 1, 1}) {
		t.Fatalf("priming query = %v", got)
	}

	// Behind the engine's back: drop the last row, append a twin of row
	// 0. Same table pointer, same row count — only the generation moved.
	tab, err := db.Catalog().Lookup("sensors")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.DeleteRows([]int{7}); err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(types.Row{types.Int(99), types.Float(0.5), types.Float(0)})

	// Rows 0 and the twin now form one ε-cluster of two; the stale
	// cache would still report eight singletons.
	want := []int64{1, 1, 1, 1, 1, 1, 2}
	if got := sortedCounts(mustQuery(t, db, sql)); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-mutation query served stale groups: got %v, want %v", got, want)
	}
}

// TestSQLDeleteMaintenance drives randomized INSERT → DELETE → query
// loops with SET incremental = on against a twin database that
// regroups from scratch, across both operators and all ON-OVERLAP
// semantics — the decremental mirror of the INSERT maintenance suite.
func TestSQLDeleteMaintenance(t *testing.T) {
	queries := []string{
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1`,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP JOIN-ANY`,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP ELIMINATE`,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP FORM-NEW-GROUP`,
	}
	deletes := []string{
		"DELETE FROM sensors WHERE id %% 7 = %d",
		"DELETE FROM sensors WHERE x < %d.0",
		"DELETE FROM sensors WHERE id BETWEEN %d AND 200",
	}
	for qi, sql := range queries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			incDB, refDB := Open(), Open()
			for _, db := range []*DB{incDB, refDB} {
				mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
				mustExec(t, db, "SET seed = 21")
			}
			mustExec(t, incDB, "SET incremental = on")
			rng := rand.New(rand.NewSource(int64(qi) + 31))
			for round := 0; round < 6; round++ {
				insertRandomRows(t, rng, 40, incDB, refDB)
				queryBoth(t, incDB, refDB, sql)
				del := fmt.Sprintf(deletes[round%len(deletes)], 1+rng.Intn(3))
				var deleted []int
				for _, db := range []*DB{incDB, refDB} {
					n, err := db.Exec(del)
					if err != nil {
						t.Fatalf("round %d: %q: %v", round, del, err)
					}
					deleted = append(deleted, n)
				}
				if deleted[0] != deleted[1] {
					t.Fatalf("round %d: %q deleted %d vs %d rows", round, del, deleted[0], deleted[1])
				}
				queryBoth(t, incDB, refDB, sql)
			}
			// A full sweep drains the table; maintenance must survive it.
			for _, db := range []*DB{incDB, refDB} {
				mustExec(t, db, "DELETE FROM sensors")
			}
			insertRandomRows(t, rng, 30, incDB, refDB)
			queryBoth(t, incDB, refDB, sql)
		})
	}
}

// TestSQLDeleteAllInvariants slides a window through SQL under SET
// incremental = on — DELETE the oldest rows, INSERT as many — and after
// every statement holds the maintained DISTANCE-TO-ALL grouping to what
// needs no second implementation to check: with array_agg(id) naming
// each group's rows, every group is a clique and no row sits in two
// (core.CheckCliques), and count(*) sums to the table size under
// JOIN-ANY and FORM-NEW-GROUP and to at most that under ELIMINATE. The
// deletes are small against a sparse table, so they are the ones a
// local replay serves: the cache's counters must show fewer points
// arbitrated again than a replay of every survivor would have.
func TestSQLDeleteAllInvariants(t *testing.T) {
	const window, step, steps = 240, 12, 30
	for ci, clause := range []string{"LINF WITHIN 1 ON-OVERLAP JOIN-ANY", "L2 WITHIN 1 ON-OVERLAP ELIMINATE", "LINF WITHIN 1 ON-OVERLAP FORM-NEW-GROUP"} {
		t.Run(clause, func(t *testing.T) {
			db := Open()
			mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
			mustExec(t, db, "SET incremental = on")
			metric := LInf
			if strings.HasPrefix(clause, "L2") {
				metric = L2
			}
			rng := rand.New(rand.NewSource(int64(ci) + 41))
			next := 0
			insert := func(n int) {
				var b strings.Builder
				b.WriteString("INSERT INTO sensors VALUES ")
				for i := 0; i < n; i++ {
					if i > 0 {
						b.WriteString(", ")
					}
					// Quarter-unit coordinates: equal points and distances of
					// exactly ε are common.
					fmt.Fprintf(&b, "(%d, %v, %v)", next, float64(rng.Intn(88))/4, float64(rng.Intn(88))/4)
					next++
				}
				mustExec(t, db, b.String())
			}
			check := func(when string) {
				t.Helper()
				points, res := sqlAllGroups(t, db, "sensors", clause, when)
				if err := core.CheckCliques(points, metric, 1, res); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if eliminate := strings.HasSuffix(clause, "ELIMINATE"); !eliminate && len(res.Eliminated) > 0 {
					t.Fatalf("%s: %d of %d rows in no group", when, len(res.Eliminated), len(points))
				}
			}
			insert(window)
			check("after the load")
			for s := 1; s <= steps; s++ {
				mustExec(t, db, fmt.Sprintf("DELETE FROM sensors WHERE id < %d", s*step))
				check(fmt.Sprintf("after DELETE %d", s))
				insert(step)
				check(fmt.Sprintf("after INSERT %d", s))
			}
			if got := db.CacheStats().PointsReplayed; got == 0 || got >= steps*(window-step) {
				t.Errorf("%d points arbitrated again over %d deletes of %d rows from %d: not a local replay", got, steps, step, window)
			}
		})
	}
}

// sqlAllGroups reads table's rows (id, x, y) and the grouping a
// DISTANCE-TO-ALL clause gives them through SQL, with array_agg(id)
// naming each group's rows: the points by row position, and the groups
// over those positions, every row no group lists as Eliminated. A group
// listing an id the table lacks, or whose count(*) differs from its
// list, fails the test; so, in CheckCliques, does a row listed twice.
func sqlAllGroups(t *testing.T, db *DB, table, clause, when string) ([]Point, *core.Result) {
	t.Helper()
	rows := mustQuery(t, db, "SELECT id, x, y FROM "+table)
	pos := make(map[string]int, rows.Len())
	points := make([]Point, rows.Len())
	for i, r := range rows.Data {
		pos[r[0].String()] = i
		points[i] = Point{r[1].F, r[2].F}
	}
	groups := mustQuery(t, db, "SELECT count(*), array_agg(id) FROM "+table+" GROUP BY x, y DISTANCE-TO-ALL "+clause)
	res := &core.Result{}
	grouped := make([]bool, len(points))
	for _, r := range groups.Data {
		var g core.Group
		for _, id := range strings.Split(strings.Trim(r[1].S, "[]"), ", ") {
			i, ok := pos[id]
			if !ok {
				t.Fatalf("%s: group lists id %q, which is not in the table", when, id)
			}
			g.Members = append(g.Members, int32(i))
			grouped[i] = true
		}
		if int(r[0].I) != len(g.Members) {
			t.Fatalf("%s: count(*) = %d beside %d listed ids", when, r[0].I, len(g.Members))
		}
		res.Groups = append(res.Groups, g)
	}
	for i, in := range grouped {
		if !in {
			res.Eliminated = append(res.Eliminated, i)
		}
	}
	return points, res
}

// TestSQLAllInvariants holds DISTANCE-TO-ALL through SQL, with the
// cache on and off, to what needs no second implementation to check
// (sqlAllGroups): under every ON-OVERLAP clause, both metrics, two ε
// and every strategy, each group is a clique and no row sits in two
// (core.CheckCliques); an L2 group is an L∞ clique at the same ε too,
// as an L2 ball lies inside the L∞ one; ELIMINATE lists only rows of
// its input; JOIN-ANY and FORM-NEW-GROUP lose no row. The checks run
// over a fresh table, then after a DELETE and an INSERT, which a cached
// grouping absorbs.
func TestSQLAllInvariants(t *testing.T) {
	clauses := []string{"ON-OVERLAP JOIN-ANY", "ON-OVERLAP ELIMINATE", "ON-OVERLAP FORM-NEW-GROUP"}
	for _, incremental := range []bool{false, true} {
		db := Open()
		mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
		rng := rand.New(rand.NewSource(47))
		next := 0
		insert := func(n int) {
			var b strings.Builder
			b.WriteString("INSERT INTO pts VALUES ")
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				// Quarter-unit coordinates: equal points and distances of
				// exactly ε are common.
				fmt.Fprintf(&b, "(%d, %v, %v)", next, float64(rng.Intn(60))/4, float64(rng.Intn(60))/4)
				next++
			}
			mustExec(t, db, b.String())
		}
		insert(300)
		for round, when := range []string{"fresh", "after DELETE and INSERT"} {
			if round == 1 {
				mustExec(t, db, "DELETE FROM pts WHERE id < 40")
				insert(25)
			}
			for _, alg := range []Algorithm{AllPairs, BoundsCheck, OnTheFlyIndex, GridIndex} {
				db.def.SetOptions(QueryOptions{Algorithm: alg, Incremental: incremental})
				for _, metric := range []Metric{L2, LInf} {
					for _, eps := range []float64{0.5, 1.25} {
						for _, ov := range clauses {
							clause := fmt.Sprintf("%v WITHIN %v %s", metric, eps, ov)
							what := fmt.Sprintf("incremental=%t %s %v %s", incremental, when, alg, clause)
							points, res := sqlAllGroups(t, db, "pts", clause, what)
							if err := core.CheckCliques(points, metric, eps, res); err != nil {
								t.Fatalf("%s: %v", what, err)
							}
							if metric == L2 {
								if err := core.CheckCliques(points, LInf, eps, res); err != nil {
									t.Fatalf("%s: not an L∞ clique: %v", what, err)
								}
							}
							if ov != "ON-OVERLAP ELIMINATE" && len(res.Eliminated) > 0 {
								t.Fatalf("%s: %d of %d rows in no group", what, len(res.Eliminated), len(points))
							}
							if len(res.Groups)+len(res.Eliminated) == len(points) {
								t.Fatalf("%s: no two rows share a group, which checks nothing", what)
							}
						}
					}
				}
			}
		}
	}
}

// TestSQLInsertRejectsNonFinite pins the SQL-surface half of the
// non-finite guard: a NaN/±Inf float can reach INSERT through CSV
// round-trips or expression edge cases, and storage refuses it with a
// clear error instead of letting it poison grid cell computation.
func TestSQLInsertRejectsNonFinite(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE pts (x FLOAT, y FLOAT)")
	tab, err := db.Catalog().Lookup("pts")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := tab.Insert(types.Row{types.Float(bad), types.Float(0)})
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("Insert(%v) = %v, want non-finite rejection", bad, err)
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("rejected inserts left %d rows", tab.Len())
	}
	// The CSV loader flows through the same guard.
	csv := "x:FLOAT,y:FLOAT\n1.5,2.5\nNaN,0\n"
	if err := db.LoadCSV("bad", strings.NewReader(csv)); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("LoadCSV with NaN = %v, want non-finite rejection", err)
	}
}
