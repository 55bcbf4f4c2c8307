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

// TestSQLSweepCacheSharedAcrossEps is the satellite-4 regression: with
// SET incremental on, two sessions differing ONLY in their ε lists
// share one lattice entry — the second session's query performs no new
// evaluation (zero distance computations, zero index probes in its
// Stats), yet answers correctly.
func TestSQLSweepCacheSharedAcrossEps(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	rng := rand.New(rand.NewSource(31))
	insertRandomRows(t, rng, 300, db)

	// Session 1 sweeps up to ε_max = 2 and pays the build.
	var st1 Stats
	opt1 := QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &st1}
	q1 := "SELECT eps, count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1, 2)"
	r1, err := db.QueryOpt(q1, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.DistanceComputations == 0 || st1.IndexProbes == 0 {
		t.Fatalf("first sweep charged no build work: %+v", st1)
	}

	// Session 2 asks for DIFFERENT ε levels below the cached ε_max:
	// answered entirely from the shared dendrogram.
	var st2 Stats
	opt2 := QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &st2}
	q2 := "SELECT eps, count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.3, 0.8, 1.7)"
	r2, err := db.QueryOpt(q2, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DistanceComputations != 0 || st2.IndexProbes != 0 || st2.IndexUpdates != 0 {
		t.Fatalf("second session re-evaluated despite shared lattice entry: %+v", st2)
	}

	// Both sessions' answers match fresh one-shot runs.
	for _, check := range []struct {
		rows *Rows
		eps  []float64
	}{{r1, []float64{0.5, 1, 2}}, {r2, []float64{0.3, 0.8, 1.7}}} {
		for _, eps := range check.eps {
			single := mustQuery(t, db, fmt.Sprintf(
				"SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN %v", eps))
			if got, want := sweepCountsAt(check.rows, eps), sortedCounts(single); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: cached sweep %v vs one-shot %v", eps, got, want)
			}
		}
	}

	// A sweep ABOVE the cached ε_max rebuilds (and must say so in its
	// Stats) — then serves later sub-ε_max sweeps for free again.
	var st3 Stats
	if _, err := db.QueryOpt("SELECT eps, count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (1, 3)",
		QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &st3}); err != nil {
		t.Fatal(err)
	}
	if st3.DistanceComputations == 0 {
		t.Fatalf("sweep above cached ε_max did not rebuild: %+v", st3)
	}
	var st4 Stats
	if _, err := db.QueryOpt(q1, QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &st4}); err != nil {
		t.Fatal(err)
	}
	if st4.DistanceComputations != 0 {
		t.Fatalf("sweep below the rebuilt ε_max re-evaluated: %+v", st4)
	}
}

// latticeEntry returns the one cached lattice entry's evaluator — its
// identity tells a maintained entry from a rebuilt one — and its work
// counters.
func latticeEntry(t *testing.T, db *DB) (*core.LatticeEvaluator, Stats) {
	t.Helper()
	for _, it := range db.cache.items() {
		it.e.mu.Lock()
		lat, st := it.e.lat, it.e.stats
		it.e.mu.Unlock()
		if lat != nil {
			return lat, st
		}
	}
	t.Fatal("no lattice entry in the cache")
	return nil, Stats{}
}

// TestSQLSweepCacheMaintenance drives the mutation protocol: INSERT
// extends the shared dendrogram by its suffix only, DELETE repairs it
// at maintenance time, DROP clears it — answers stay correct
// throughout.
func TestSQLSweepCacheMaintenance(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	mustExec(t, db, "SET incremental = on")
	rng := rand.New(rand.NewSource(41))
	insertRandomRows(t, rng, 150, db)

	sweepQ := "SELECT eps, count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 1, 2)"
	checkLevels := func(rows *Rows) {
		t.Helper()
		for _, eps := range []float64{0.5, 1, 2} {
			single := mustQuery(t, db, fmt.Sprintf(
				"SELECT count(*) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN %v", eps))
			if got, want := sweepCountsAt(rows, eps), sortedCounts(single); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: %v vs one-shot %v", eps, got, want)
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

	// DELETE repairs: the dendrogram is maintained when the rows go (20 of
	// them: ids restart with each insertRandomRows), the work is charged
	// to the cache entry as maintenance, and the next sweep finds the
	// entry in sync — it extracts no point and touches no index.
	lat, latBefore := latticeEntry(t, db)
	cacheBefore := db.CacheStats()
	mustExec(t, db, "DELETE FROM sensors WHERE id < 10")
	kept, repair := latticeEntry(t, db)
	if kept != lat {
		t.Fatal("DELETE replaced the lattice entry's evaluator instead of maintaining it")
	}
	if got := repair.IndexUpdates - latBefore.IndexUpdates; got != 20 {
		t.Fatalf("DELETE unregistered %d points from the lattice entry, want 20", got)
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

	// SET incremental = off clears lattice entries with the rest.
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
