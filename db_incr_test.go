package sgb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// insertRandomRows appends n random sensor rows to table in both DBs
// (the incremental DB and the from-scratch reference), keeping their
// contents identical.
func insertRandomRows(t *testing.T, rng *rand.Rand, n int, dbs ...*DB) {
	t.Helper()
	for i := 0; i < n; i++ {
		stmt := fmt.Sprintf("INSERT INTO sensors VALUES (%d, %.6f, %.6f)",
			i, rng.Float64()*10, rng.Float64()*10)
		for _, db := range dbs {
			mustExec(t, db, stmt)
		}
	}
}

// queryBoth runs the same similarity query against both DBs and
// asserts identical (order-normalized) group-count multisets. The
// incremental DB answers from cached per-table state; the reference
// regroups from scratch.
func queryBoth(t *testing.T, incDB, refDB *DB, sql string) {
	t.Helper()
	got := sortedCounts(mustQuery(t, incDB, sql))
	want := sortedCounts(mustQuery(t, refDB, sql))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental diverges from one-shot for %q:\nincremental %v\none-shot    %v", sql, got, want)
	}
}

// TestSQLIncrementalMaintenance drives the INSERT → query → INSERT →
// query loop with SET incremental = on and cross-checks every answer
// against a twin database that regroups from scratch, across both
// operators and all ON-OVERLAP semantics.
func TestSQLIncrementalMaintenance(t *testing.T) {
	queries := []string{
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1`,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP JOIN-ANY`,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP ELIMINATE`,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP FORM-NEW-GROUP`,
	}
	for qi, sql := range queries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			incDB, refDB := Open(), Open()
			for _, db := range []*DB{incDB, refDB} {
				mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
				mustExec(t, db, "SET seed = 42")
			}
			mustExec(t, incDB, "SET incremental = on")

			rng := rand.New(rand.NewSource(int64(qi) + 1))
			for round := 0; round < 5; round++ {
				insertRandomRows(t, rng, 40, incDB, refDB)
				queryBoth(t, incDB, refDB, sql)
			}
			// Repeating the query without new inserts must answer from
			// the cache, appending nothing, and still agree.
			queryBoth(t, incDB, refDB, sql)
		})
	}
}

// TestSQLIncrementalInvalidation checks that cached state is never
// silently reused across grouping-parameter changes — each
// configuration answers from its own state (alternating queries
// coexist), re-queried configurations keep absorbing later inserts,
// and all of a table's states die with the table.
func TestSQLIncrementalInvalidation(t *testing.T) {
	incDB, refDB := Open(), Open()
	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
		mustExec(t, db, "SET seed = 7")
	}
	mustExec(t, incDB, "SET incremental = on")
	rng := rand.New(rand.NewSource(99))
	insertRandomRows(t, rng, 120, incDB, refDB)

	// Same table, changing ε / metric / semantics / grouping exprs.
	queryBoth(t, incDB, refDB,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY`)
	queryBoth(t, incDB, refDB,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 2 ON-OVERLAP JOIN-ANY`)
	queryBoth(t, incDB, refDB,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP ELIMINATE`)
	queryBoth(t, incDB, refDB,
		`SELECT count(*) FROM sensors GROUP BY x DISTANCE-TO-ANY L2 WITHIN 1`)

	// Session option changes (algorithm, seed) re-key JOIN-ANY too.
	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "SET algorithm = rtree")
		mustExec(t, db, "SET seed = 8")
	}
	queryBoth(t, incDB, refDB,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY`)

	// After flipping back, inserts keep maintaining the earlier state.
	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "SET algorithm = grid")
		mustExec(t, db, "SET seed = 7")
	}
	insertRandomRows(t, rng, 60, incDB, refDB)
	queryBoth(t, incDB, refDB,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY`)

	// DROP + re-CREATE must not leak the old table's grouping state.
	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "DROP TABLE sensors")
		mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	}
	insertRandomRows(t, rng, 50, incDB, refDB)
	queryBoth(t, incDB, refDB,
		`SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1`)
}

// TestSQLIncrementalNonCacheableShapes: with incremental on, queries
// outside the cacheable shape (filters, joins, derived tables) must
// still answer correctly — they bypass the cache and run one-shot.
func TestSQLIncrementalNonCacheableShapes(t *testing.T) {
	incDB, refDB := Open(), Open()
	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	}
	mustExec(t, incDB, "SET incremental = on")
	rng := rand.New(rand.NewSource(3))
	insertRandomRows(t, rng, 100, incDB, refDB)

	shapes := []string{
		`SELECT count(*) FROM sensors WHERE x < 5 GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1`,
		`SELECT count(*) FROM (SELECT x, y FROM sensors ORDER BY y) s GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1`,
	}
	for round := 0; round < 2; round++ {
		for _, sql := range shapes {
			queryBoth(t, incDB, refDB, sql)
		}
		insertRandomRows(t, rng, 30, incDB, refDB)
	}
}

// TestSetIncrementalValidation covers the SET statement surface.
func TestSetIncrementalValidation(t *testing.T) {
	db := Open()
	mustExec(t, db, "SET incremental = on")
	if !db.SessionOptions().Incremental {
		t.Fatal("SET incremental = on did not stick")
	}
	mustExec(t, db, "SET incremental = off")
	if db.SessionOptions().Incremental {
		t.Fatal("SET incremental = off did not stick")
	}
	if _, err := db.Exec("SET incremental = maybe"); err == nil {
		t.Fatal("want error for SET incremental = maybe")
	}
}
