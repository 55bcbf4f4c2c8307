package sgb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/plan"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/types"
)

// sweepCountsAt extracts the sorted count(*) column of one ε level
// from a sweep result (rows carry eps at column 0, the aggregate at
// column 1).
func sweepCountsAt(rows *Rows, eps float64) []int64 {
	var out []int64
	for _, r := range rows.Data {
		if r[0].F == eps {
			out = append(out, r[1].I)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// TestSQLEpsInMatchesSingleQueries: every level of an EPS IN sweep
// answers exactly like the corresponding single-ε WITHIN query.
func TestSQLEpsInMatchesSingleQueries(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	rng := rand.New(rand.NewSource(21))
	insertRandomRows(t, rng, 200, db)

	epsLevels := []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 3}
	list := make([]string, len(epsLevels))
	for i, e := range epsLevels {
		list[i] = fmt.Sprintf("%v", e)
	}
	sweep := mustQuery(t, db, fmt.Sprintf(
		"SELECT eps, count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (%s)",
		strings.Join(list, ", ")))
	if got, want := sweep.Columns, []string{"eps", "count"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep columns %v, want %v", got, want)
	}
	for _, eps := range epsLevels {
		single := mustQuery(t, db, fmt.Sprintf(
			"SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN %v", eps))
		got := sweepCountsAt(sweep, eps)
		want := sortedCounts(single)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("eps=%v: sweep counts %v, single-query counts %v", eps, got, want)
		}
	}
}

// TestSQLEpsInEmissionOrder: levels are emitted in ascending ε order
// regardless of how the query spelled the list, and the eps column is
// usable in HAVING and ORDER BY.
func TestSQLEpsInEmissionOrder(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE pts (x FLOAT)")
	mustExec(t, db, "INSERT INTO pts VALUES (0), (0.4), (3), (3.2)")

	rows := mustQuery(t, db,
		"SELECT eps, count(*) FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN (2, 0.1, 0.5)")
	var seen []float64
	for _, r := range rows.Data {
		if len(seen) == 0 || seen[len(seen)-1] != r[0].F {
			seen = append(seen, r[0].F)
		}
	}
	if !reflect.DeepEqual(seen, []float64{0.1, 0.5, 2}) {
		t.Fatalf("level emission order %v, want ascending [0.1 0.5 2]", seen)
	}

	filtered := mustQuery(t, db,
		"SELECT eps, count(*) FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN (2, 0.1, 0.5) HAVING eps > 0.4 AND count(*) > 1 ORDER BY eps DESC, 2")
	// eps=0.5 has groups {0, 0.4} (2) and {3, 3.2} (2); eps=2 the same
	// pairs. HAVING keeps the four 2-member rows, ordered eps DESC.
	if filtered.Len() != 4 || filtered.Data[0][0].F != 2 || filtered.Data[3][0].F != 0.5 {
		t.Fatalf("HAVING/ORDER BY over eps: got %v", filtered.Data)
	}
}

// TestSQLSimilarityCubeGolden pins the cube row schema and values on a
// fixed dataset: 1-d points 0, 0.5, 1.0, 5, 5.2, 9.
func TestSQLSimilarityCubeGolden(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE pts (x FLOAT)")
	mustExec(t, db, "INSERT INTO pts VALUES (0), (0.5), (1.0), (5), (5.2), (9)")

	rows := mustQuery(t, db,
		"SELECT * FROM pts GROUP BY x DISTANCE-TO-ANY L2 EPS IN (0.1, 0.6, 4) SIMILARITY CUBE BY EPS")
	wantCols := []string{"eps", "group_count", "largest_group", "grouped_fraction"}
	if !reflect.DeepEqual(rows.Columns, wantCols) {
		t.Fatalf("cube columns %v, want %v", rows.Columns, wantCols)
	}
	type cubeRow struct {
		eps   float64
		n     int64
		big   int64
		fract float64
	}
	var got []cubeRow
	for _, r := range rows.Data {
		got = append(got, cubeRow{r[0].F, r[1].I, r[2].I, r[3].F})
	}
	want := []cubeRow{
		// ε=0.1: all singletons.
		{0.1, 6, 1, 0},
		// ε=0.6: {0, 0.5, 1.0}, {5, 5.2}, {9} → 3 groups, largest 3, 5/6 grouped.
		{0.6, 3, 3, 5.0 / 6.0},
		// ε=4: |5−1.0| = 4 is within (inclusive bound), so the chain
		// 0 … 9 fuses into one group of 6.
		{4, 1, 6, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cube rows:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSQLEpsInValidation exercises every named rejection of the EPS IN
// / SIMILARITY CUBE surface.
func TestSQLEpsInValidation(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE pts (x FLOAT)")
	mustExec(t, db, "INSERT INTO pts VALUES (0), (1)")

	queryErr := func(sql string) error {
		t.Helper()
		_, err := db.Query(sql)
		if err == nil {
			t.Fatalf("query %q unexpectedly succeeded", sql)
		}
		return err
	}

	// Empty list: rejected at parse with a named message.
	if err := queryErr("SELECT count(*) FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN ()"); !strings.Contains(err.Error(), "at least one") {
		t.Fatalf("empty list: %v", err)
	}
	// Duplicate ε.
	if err := queryErr("SELECT count(*) FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN (0.5, 1, 0.5)"); !errors.Is(err, core.ErrEpsListDuplicate) {
		t.Fatalf("duplicate level: %v", err)
	}
	// Non-positive ε.
	if err := queryErr("SELECT count(*) FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN (0.5, 0)"); !errors.Is(err, core.ErrEpsListNonPositive) {
		t.Fatalf("zero level: %v", err)
	}
	if err := queryErr("SELECT count(*) FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN (-2)"); !errors.Is(err, core.ErrEpsListNonPositive) {
		t.Fatalf("negative level: %v", err)
	}
	// Non-numeric literal.
	if err := queryErr("SELECT count(*) FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN ('wide')"); !strings.Contains(err.Error(), "must be numeric") {
		t.Fatalf("non-numeric level: %v", err)
	}
	// DISTANCE-TO-ALL sweeps do not exist.
	if err := queryErr("SELECT count(*) FROM pts GROUP BY x DISTANCE-TO-ALL EPS IN (0.5, 1)"); !strings.Contains(err.Error(), "DISTANCE-TO-ANY only") {
		t.Fatalf("DISTANCE-TO-ALL sweep: %v", err)
	}
	// CUBE without a sweep list.
	if err := queryErr("SELECT * FROM pts GROUP BY x DISTANCE-TO-ANY WITHIN 1 SIMILARITY CUBE BY EPS"); !strings.Contains(err.Error(), "requires an EPS IN") {
		t.Fatalf("cube without list: %v", err)
	}
	// CUBE defines its own schema: SELECT * only, no HAVING.
	if err := queryErr("SELECT count(*) FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN (0.5, 1) SIMILARITY CUBE BY EPS"); !strings.Contains(err.Error(), "requires SELECT *") {
		t.Fatalf("cube with projection: %v", err)
	}
	if err := queryErr("SELECT * FROM pts GROUP BY x DISTANCE-TO-ANY EPS IN (0.5, 1) SIMILARITY CUBE BY EPS HAVING count(*) > 1"); !strings.Contains(err.Error(), "HAVING") {
		t.Fatalf("cube with HAVING: %v", err)
	}
}

// TestSQLEpsAsColumnName: EPS, SIMILARITY, and CUBE stay usable as
// ordinary identifiers — they are contextual words, not reserved.
func TestSQLEpsAsColumnName(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE cube (eps FLOAT, similarity FLOAT)")
	mustExec(t, db, "INSERT INTO cube VALUES (0.5, 1), (0.7, 2)")
	rows := mustQuery(t, db, "SELECT eps, similarity FROM cube WHERE eps > 0.6")
	if rows.Len() != 1 || rows.Data[0][0].F != 0.7 {
		t.Fatalf("eps-named columns: got %v", rows.Data)
	}
}

// TestSQLSweepCacheSharedAcrossEps: with SET incremental on, two
// sessions differing ONLY in their ε lists share one sweep entry. The
// build and a level the entry does not keep cost the asking query one
// cell-graph pass over the live points each, one probe and one update
// per (level, occupied cell) (cellProbes), and the entry keeps the
// level, so after that it costs nothing either — an INSERT then costs
// one probe per new row whichever levels are asked. A level the entry
// keeps costs a query nothing. Answers match one-shot runs throughout.
func TestSQLSweepCacheSharedAcrossEps(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	rng := rand.New(rand.NewSource(31))
	insertRandomRows(t, rng, 300, db)
	sweepQ := func(st *Stats, levels string) *Rows {
		t.Helper()
		rows, err := db.QueryOpt("SELECT eps, count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN ("+levels+")",
			QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: st})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	matchOneShot := func(rows *Rows, levels ...float64) {
		t.Helper()
		for _, eps := range levels {
			single := mustQuery(t, db, fmt.Sprintf(
				"SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN %v", eps))
			if got, want := sweepCountsAt(rows, eps), sortedCounts(single); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: cached sweep %v vs one-shot %v", eps, got, want)
			}
		}
	}

	// Session 1 sweeps up to ε = 2 and pays the build, which loads the
	// entry's index with every row too.
	var st1 Stats
	cells := cellProbes(t, db, "sensors", 0.5, 1, 2)
	r1 := sweepQ(&st1, "0.5, 1, 2")
	if st1.DistanceComputations == 0 || st1.IndexProbes != cells || st1.IndexUpdates != cells+300 {
		t.Fatalf("first sweep: %+v, want %d probes and %d updates", st1, cells, cells+300)
	}
	matchOneShot(r1, 0.5, 1, 2)

	// Session 2 asks for three levels the entry does not keep: one
	// cell-graph pass over the 300 rows each, and no point extracted.
	var st2 Stats
	cells = cellProbes(t, db, "sensors", 0.3, 0.8, 1.7)
	r2 := sweepQ(&st2, "0.3, 0.8, 1.7")
	if st2.IndexProbes != cells || st2.PointsExtracted != 0 || st2.IndexUpdates != cells {
		t.Fatalf("second session's new levels: %+v, want three cell-graph passes (%d cells)", st2, cells)
	}
	matchOneShot(r2, 0.3, 0.8, 1.7)
	if ev, _ := sweepEntry(t, db); !reflect.DeepEqual(ev.Levels(), []float64{0.3, 0.5, 0.8, 1, 1.7, 2}) {
		t.Fatalf("the entry keeps levels %v", ev.Levels())
	}

	// After an INSERT the new rows probe once, whichever levels are asked;
	// a second statement over kept levels then costs nothing.
	insertRandomRows(t, rng, 10, db)
	var st3, st4 Stats
	sweepQ(&st3, "0.3, 0.8, 1.7")
	if st3.IndexProbes != 10 || st3.PointsExtracted != 10 {
		t.Fatalf("sweep after a 10-row INSERT: %+v", st3)
	}
	r4 := sweepQ(&st4, "0.5, 0.8")
	if st4.DistanceComputations != 0 || st4.IndexProbes != 0 || st4.PointsExtracted != 0 {
		t.Fatalf("sweep over kept levels did evaluator work: %+v", st4)
	}
	matchOneShot(r4, 0.5, 0.8)

	// A sweep ABOVE the top rebuilds (and must say so in its Stats),
	// keeping the levels below — then serves them for free again.
	var st5, st6 Stats
	sweepQ(&st5, "1, 3")
	if st5.DistanceComputations == 0 || st5.PointsExtracted != 310 {
		t.Fatalf("sweep above the top did not rebuild: %+v", st5)
	}
	r6 := sweepQ(&st6, "0.3, 0.5, 2")
	if st6.DistanceComputations != 0 || st6.IndexProbes != 0 {
		t.Fatalf("sweep below the rebuilt top re-evaluated: %+v", st6)
	}
	matchOneShot(r6, 0.3, 0.5, 2)
	if n := db.cache.len(); n != 1 {
		t.Fatalf("%d cache entries, want the one sweep entry", n)
	}
}

// isAnyKey reports whether a cache key is an SGB-Any entry's, the one
// kind a sweep reads: printed without ε.
func isAnyKey(k incrKey) bool { return strings.Contains(k.fingerprint, "|eps=0|") }

// sweepEntry returns the one cached SGB-Any entry's evaluator — its
// identity tells a maintained entry from a rebuilt one — and its work
// counters.
func sweepEntry(t *testing.T, db *DB) (evaluator, Stats) {
	t.Helper()
	for _, it := range db.cache.items() {
		if !isAnyKey(it.key) {
			continue
		}
		it.e.mu.Lock()
		defer it.e.mu.Unlock()
		return it.e.ev, it.e.stats
	}
	t.Fatal("no SGB-Any entry in the cache")
	return nil, Stats{}
}

// TestSQLSweepCacheMaintenance drives the mutation protocol: INSERT
// extends the shared sweep entry by its suffix only, DELETE repairs it
// at maintenance time, DROP clears it — answers stay correct
// throughout.
func TestSQLSweepCacheMaintenance(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	mustExec(t, db, "SET incremental = on")
	rng := rand.New(rand.NewSource(41))
	insertRandomRows(t, rng, 150, db)

	sweepQ := "SELECT eps, count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1, 2)"
	// checkLevels holds each level of the sweep, and the single-ε read of
	// the same entry, to a one-shot evaluation that no cache serves.
	checkLevels := func(rows *Rows) {
		t.Helper()
		for _, eps := range []float64{0.5, 1, 2} {
			single := fmt.Sprintf("SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN %v", eps)
			oneShot, err := db.QueryOpt(single, QueryOptions{Algorithm: GridIndex})
			if err != nil {
				t.Fatal(err)
			}
			want := sortedCounts(oneShot)
			if got := sweepCountsAt(rows, eps); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: %v vs one-shot %v", eps, got, want)
			}
			if got := sortedCounts(mustQuery(t, db, single)); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: cached single-ε read %v vs one-shot %v", eps, got, want)
			}
		}
	}

	var build Stats
	r, err := db.QueryOpt(sweepQ, QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &build})
	if err != nil {
		t.Fatal(err)
	}
	checkLevels(r)
	baseProbes := build.IndexProbes

	// INSERT: the next sweep absorbs only the 50-row suffix.
	insertRandomRows(t, rng, 50, db)
	var incr Stats
	r, err = db.QueryOpt(sweepQ, QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &incr})
	if err != nil {
		t.Fatal(err)
	}
	checkLevels(r)
	if incr.IndexProbes != 50 {
		t.Fatalf("post-INSERT sweep probed %d points, want the 50-row suffix only (initial build probed %d)",
			incr.IndexProbes, baseProbes)
	}

	// DELETE repairs: the level forests are maintained when the rows go
	// (20 of them: ids restart with each insertRandomRows), the work is
	// charged to the cache entry as maintenance, and the next sweep finds
	// the entry in sync — it extracts no point and touches no index.
	ev, evBefore := sweepEntry(t, db)
	cacheBefore := db.CacheStats()
	mustExec(t, db, "DELETE FROM sensors WHERE id < 10")
	kept, repair := sweepEntry(t, db)
	if kept != ev {
		t.Fatal("DELETE replaced the sweep entry's evaluator instead of maintaining it")
	}
	if got := repair.IndexUpdates - evBefore.IndexUpdates; got != 20 {
		t.Fatalf("DELETE unregistered %d points from the sweep entry, want 20", got)
	}
	if cacheAfter := db.CacheStats(); cacheAfter.IndexUpdates-cacheBefore.IndexUpdates < 20 {
		t.Fatalf("CacheStats does not show the repair: %+v -> %+v", cacheBefore, cacheAfter)
	}
	var afterDel Stats
	r, err = db.QueryOpt(sweepQ, QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &afterDel})
	if err != nil {
		t.Fatal(err)
	}
	checkLevels(r)
	if afterDel.PointsExtracted != 0 || afterDel.IndexProbes != 0 || afterDel.IndexUpdates != 0 || afterDel.DistanceComputations != 0 {
		t.Fatalf("post-DELETE sweep did query-time work on a maintained entry: %+v", afterDel)
	}

	// DROP + re-CREATE must not serve stale state.
	mustExec(t, db, "DROP TABLE sensors")
	mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	mustExec(t, db, "INSERT INTO sensors VALUES (0, 0, 0), (1, 0.1, 0)")
	r = mustQuery(t, db, sweepQ)
	if got := sweepCountsAt(r, 0.5); !reflect.DeepEqual(got, []int64{2}) {
		t.Fatalf("post-DROP sweep served stale groups: %v", got)
	}

	// SET incremental = off clears sweep entries with the rest.
	mustExec(t, db, "SET incremental = off")
	if db.cache.len() != 0 {
		t.Fatalf("cache not cleared on SET incremental = off: %d entries", db.cache.len())
	}
}

// TestSQLSweepWithoutIncremental: EPS IN works without the cache too
// (one-shot sweep per query), including under SET algorithm spellings.
func TestSQLSweepWithoutIncremental(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE pts (x FLOAT, y FLOAT)")
	mustExec(t, db, "INSERT INTO pts VALUES (0, 0), (0.3, 0), (4, 4), (4.2, 4), (9, 9)")
	for _, alg := range []string{"allpairs", "rtree", "grid", "bounds"} {
		mustExec(t, db, "SET algorithm = "+alg)
		rows := mustQuery(t, db,
			"SELECT eps, count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY EPS IN (0.5, 1)")
		if got := sweepCountsAt(rows, 0.5); !reflect.DeepEqual(got, []int64{1, 2, 2}) {
			t.Fatalf("algorithm %s: eps=0.5 counts %v, want [1 2 2]", alg, got)
		}
	}
}

// TestSQLSweepRowsPassThrough: an EPS IN statement whose select list is
// the sweep's row, and the ε-cube, hand the rows the similarity node
// built to the caller without a copy — and every run still builds its
// own. With the cache serving (incremental = on) and without, two runs
// answer alike; writing into the first answer reaches neither the
// second nor a third run; and the statement answers row for row what
// the copying plan answers, under HAVING, ORDER BY … LIMIT and DISTINCT
// as well.
func TestSQLSweepRowsPassThrough(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	insertRandomRows(t, rand.New(rand.NewSource(53)), 300, db)
	marked := func(sql string) bool {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		cq, err := plan.NewBuilder(db.cat).BuildSelect(sel)
		if err != nil {
			t.Fatal(err)
		}
		identity := false
		walkPlan(cq.Root, func(op exec.Operator) {
			if p, ok := op.(*exec.Project); ok {
				identity = p.Identity
			}
		})
		return identity
	}
	const by = " FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.3, 0.6, 1.2) "
	for _, incremental := range []bool{true, false} {
		passing := foldRunner{db: db, incremental: incremental}
		copying := foldRunner{db: db, incremental: incremental, copying: true}
		for _, sql := range []string{
			"SELECT eps, count(*), min(id), max(x)" + by,
			"SELECT *" + by + "SIMILARITY CUBE BY EPS",
			"SELECT eps, count(*)" + by + "HAVING count(*) > 2",
			"SELECT eps, count(*), avg(y)" + by + "ORDER BY 2 DESC, 3 LIMIT 5",
			"SELECT DISTINCT eps, count(*)" + by,
		} {
			if !marked(sql) {
				t.Fatalf("%s: the projection copies its rows", sql)
			}
			run := func() []types.Row {
				t.Helper()
				rows, err := passing.query(sql, nil)
				if err != nil {
					t.Fatalf("%v: %s: %v", passing, sql, err)
				}
				return rows
			}
			first, second := run(), run()
			if len(first) == 0 || !sameRows(first, second) {
				t.Fatalf("%v: %s: two runs answered\n%v\n%v", passing, sql, first, second)
			}
			want := make([]types.Row, len(second))
			for i, row := range second {
				want[i] = append(types.Row(nil), row...)
			}
			for _, row := range first {
				for j := range row {
					row[j] = types.Text("overwritten")
				}
			}
			if !sameRows(second, want) {
				t.Errorf("%v: %s: writing into the first answer changed the second", passing, sql)
			}
			if third := run(); !sameRows(third, want) {
				t.Errorf("%v: %s: writing into the first answer changed a later run:\n%v\nwant\n%v", passing, sql, third, want)
			}
			copied, err := copying.query(sql, nil)
			if err != nil || !sameRows(copied, want) {
				t.Errorf("%v: %s: answers\n%v\nthe copying plan\n%v (%v)", passing, sql, want, copied, err)
			}
		}
		if incremental && db.cache.len() == 0 {
			t.Fatal("incremental = on: no cache entry served the sweeps")
		}
	}
}

// TestSQLSweepOrderIndependent is the sweep half of ROADMAP item 6(a):
// DISTANCE-TO-ANY groups are the ε-graph's connected components, which
// no input order changes (arXiv 1412.4303). The same 2 000 check-ins go
// into two tables in two seeded permutations. Every level of an EPS IN
// statement must give both the same partition, compared as the sorted
// (count(*), min(id), max(id)) triples of its groups, and the cube both
// the same rollup rows — one-shot, and maintained, with the same INSERT
// and DELETE applied to both tables between reads.
func TestSQLSweepOrderIndependent(t *testing.T) {
	const n, extra, rounds = 2000, 50, 3
	pool := checkin.Points(checkin.Brightkite(n + extra*rounds))
	insert := func(db *DB, table string, ids []int) {
		t.Helper()
		var b strings.Builder
		for i, id := range ids {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %g, %g)", id, pool[id][0], pool[id][1])
		}
		mustExec(t, db, "INSERT INTO "+table+" VALUES "+b.String())
	}
	levels := []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4}
	const from = " GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.02, 0.05, 0.1, 0.2, 0.3, 0.4)"
	// partition lists each level's groups as sorted (count, min id, max
	// id) triples.
	partition := func(rows *Rows) map[float64][][3]int64 {
		out := map[float64][][3]int64{}
		for _, r := range rows.Data {
			out[r[0].F] = append(out[r[0].F], [3]int64{r[1].I, r[2].I, r[3].I})
		}
		for _, g := range out {
			sort.Slice(g, func(i, j int) bool {
				a, b := g[i], g[j]
				if a[0] != b[0] {
					return a[0] < b[0]
				}
				if a[1] != b[1] {
					return a[1] < b[1]
				}
				return a[2] < b[2]
			})
		}
		return out
	}
	for _, incremental := range []string{"off", "on"} {
		db := Open()
		mustExec(t, db, "SET incremental = "+incremental)
		for i, table := range []string{"a", "b"} {
			mustExec(t, db, "CREATE TABLE "+table+" (id INT, x FLOAT, y FLOAT)")
			perm := rand.New(rand.NewSource(int64(61 + i))).Perm(n)
			for lo := 0; lo < n; lo += 500 {
				insert(db, table, perm[lo:lo+500])
			}
		}
		live := n
		check := func(when string) {
			t.Helper()
			pa := partition(mustQuery(t, db, "SELECT eps, count(*), min(id), max(id) FROM a"+from))
			pb := partition(mustQuery(t, db, "SELECT eps, count(*), min(id), max(id) FROM b"+from))
			if !reflect.DeepEqual(pa, pb) {
				t.Fatalf("incremental %s, %s: the two permutations group differently", incremental, when)
			}
			ca := mustQuery(t, db, "SELECT * FROM a"+from+" SIMILARITY CUBE BY EPS")
			cb := mustQuery(t, db, "SELECT * FROM b"+from+" SIMILARITY CUBE BY EPS")
			if !sameRows(ca.Data, cb.Data) {
				t.Fatalf("incremental %s, %s: cube rows\n%v\n%v", incremental, when, ca.Data, cb.Data)
			}
			// Both statements must see every level, and the levels must
			// group: neither all singletons nor one group throughout.
			split := false
			for i, eps := range levels {
				groups := pa[eps]
				if len(groups) == 0 || ca.Data[i][1].I != int64(len(groups)) {
					t.Fatalf("incremental %s, %s: ε = %v: %d sweep groups, cube row %v", incremental, when, eps, len(groups), ca.Data[i])
				}
				split = split || (len(groups) > 1 && len(groups) < live)
			}
			if !split {
				t.Fatalf("incremental %s, %s: no level splits the %d rows into groups", incremental, when, live)
			}
		}
		check("after the load")
		for round := 1; round <= rounds; round++ {
			ids := make([]int, extra)
			for i := range ids {
				ids[i] = n + extra*(round-1) + i
			}
			insert(db, "a", ids)
			insert(db, "b", ids)
			live += extra
			check(fmt.Sprintf("round %d, after INSERT", round))
			var deleted [2]int
			for i, table := range []string{"a", "b"} {
				var err error
				if deleted[i], err = db.Exec(fmt.Sprintf("DELETE FROM %s WHERE id %% 7 = %d", table, round)); err != nil {
					t.Fatal(err)
				}
			}
			if deleted[0] != deleted[1] || deleted[0] == 0 {
				t.Fatalf("the DELETE removed %v rows", deleted)
			}
			live -= deleted[0]
			check(fmt.Sprintf("round %d, after DELETE", round))
		}
		if incremental == "on" && db.cache.len() < 2 {
			t.Fatalf("incremental = on: %d cache entries, want one per table", db.cache.len())
		}
	}
}

// TestSQLAnyOrderIndependent is the single-ε twin of
// TestSQLSweepOrderIndependent: DISTANCE-TO-ANY groups are the ε-graph's
// connected components, which no input order changes (arXiv
// 1412.4303). The same 2 000 check-ins go into two tables in two seeded
// permutations, and the same INSERT and DELETE trace follows on both.
// After every step a single-ε statement at each of three ε must give
// both tables the same partition, compared as the sorted (count(*),
// min(id), max(id)) triples of its groups — one-shot, and maintained —
// and every level of an EPS IN statement over those ε, and the
// session's single-ε statement, must equal a one-shot evaluation at its
// ε that no cache serves.
func TestSQLAnyOrderIndependent(t *testing.T) {
	const n, extra, rounds = 2000, 50, 3
	pool := checkin.Points(checkin.Brightkite(n + extra*rounds))
	insert := func(db *DB, table string, ids []int) {
		t.Helper()
		var b strings.Builder
		for i, id := range ids {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %g, %g)", id, pool[id][0], pool[id][1])
		}
		mustExec(t, db, "INSERT INTO "+table+" VALUES "+b.String())
	}
	levels := []float64{0.05, 0.1, 0.2}
	// triples lists the groups of rows, whose (count, min id, max id)
	// start at column from, sorted; by ε when from is 1 (column 0 is the
	// sweep's eps).
	triples := func(rows *Rows, from int) map[float64][][3]int64 {
		out := map[float64][][3]int64{}
		for _, r := range rows.Data {
			eps := 0.0
			if from == 1 {
				eps = r[0].F
			}
			out[eps] = append(out[eps], [3]int64{r[from].I, r[from+1].I, r[from+2].I})
		}
		for _, g := range out {
			sort.Slice(g, func(i, j int) bool {
				for k := range g[i] {
					if g[i][k] != g[j][k] {
						return g[i][k] < g[j][k]
					}
				}
				return false
			})
		}
		return out
	}
	for _, incremental := range []string{"off", "on"} {
		db := Open()
		mustExec(t, db, "SET incremental = "+incremental)
		mustExec(t, db, "SET incr_cache_size = 16")
		for i, table := range []string{"a", "b"} {
			mustExec(t, db, "CREATE TABLE "+table+" (id INT, x FLOAT, y FLOAT)")
			perm := rand.New(rand.NewSource(int64(71 + i))).Perm(n)
			for lo := 0; lo < n; lo += 500 {
				insert(db, table, perm[lo:lo+500])
			}
		}
		live := n
		check := func(when string) {
			t.Helper()
			singles := map[string]map[float64][][3]int64{}
			for _, table := range []string{"a", "b"} {
				sweep := triples(mustQuery(t, db, "SELECT eps, count(*), min(id), max(id) FROM "+table+
					" GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.05, 0.1, 0.2)"), 1)
				singles[table] = map[float64][][3]int64{}
				for _, eps := range levels {
					sql := fmt.Sprintf(
						"SELECT count(*), min(id), max(id) FROM %s GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN %v", table, eps)
					// Under incremental = on the sweep and the single-ε
					// statement read one entry; the reference is a
					// one-shot evaluation that no cache serves.
					oneShot, err := db.QueryOpt(sql, QueryOptions{Algorithm: GridIndex})
					if err != nil {
						t.Fatal(err)
					}
					want := triples(oneShot, 0)[0]
					if !reflect.DeepEqual(sweep[eps], want) {
						t.Fatalf("incremental %s, %s: table %s's EPS IN level %v differs from the one-shot single-ε answer", incremental, when, table, eps)
					}
					if single := triples(mustQuery(t, db, sql), 0)[0]; !reflect.DeepEqual(single, want) {
						t.Fatalf("incremental %s, %s: table %s's single-ε statement at %v differs from the one-shot answer", incremental, when, table, eps)
					}
					singles[table][eps] = want
				}
			}
			split := false
			for _, eps := range levels {
				a, b := singles["a"][eps], singles["b"][eps]
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("incremental %s, %s, ε = %v: the two permutations group differently", incremental, when, eps)
				}
				split = split || (len(a) > 1 && len(a) < live)
			}
			if !split {
				t.Fatalf("incremental %s, %s: no ε splits the %d rows into groups", incremental, when, live)
			}
		}
		check("after the load")
		for round := 1; round <= rounds; round++ {
			ids := make([]int, extra)
			for i := range ids {
				ids[i] = n + extra*(round-1) + i
			}
			insert(db, "a", ids)
			insert(db, "b", ids)
			live += extra
			check(fmt.Sprintf("round %d, after INSERT", round))
			var deleted [2]int
			for i, table := range []string{"a", "b"} {
				var err error
				if deleted[i], err = db.Exec(fmt.Sprintf("DELETE FROM %s WHERE id %% 7 = %d", table, round)); err != nil {
					t.Fatal(err)
				}
			}
			if deleted[0] != deleted[1] || deleted[0] == 0 {
				t.Fatalf("the DELETE removed %v rows", deleted)
			}
			live -= deleted[0]
			check(fmt.Sprintf("round %d, after DELETE", round))
		}
		// One entry per table: the single-ε statements read levels of the
		// EPS IN statement's entry.
		if incremental == "on" && db.cache.len() != 2 {
			t.Fatalf("incremental = on: %d cache entries, want one per table", db.cache.len())
		}
	}
}
