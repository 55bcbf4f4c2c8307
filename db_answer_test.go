package sgb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/types"
)

// warmQuery runs sql with incremental maintenance on, checks the rows
// against a from-scratch evaluation of the same statement, and returns
// the work the cached path performed.
func warmQuery(t *testing.T, db *DB, sql string) Stats {
	t.Helper()
	var st Stats
	got, err := db.QueryOpt(sql, QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &st})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	want, err := db.QueryOpt(sql, QueryOptions{Algorithm: GridIndex})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("%s: cached answer differs from a from-scratch evaluation", sql)
	}
	return st
}

// TestWarmHitCostsAnswer pins "a warm cache hit costs O(answer)": over
// an unchanged table, every query after the one that built a grouping
// — identical, or with another aggregate list, a HAVING, a top-k, an
// overlapping ε list, the cube — computes no distance, evaluates no
// grouping expression, and folds only aggregates no earlier query
// folded. The exception is a sweep level the entry does not keep yet:
// it costs one probe pass over the table, once. An INSERT of k rows
// makes the next query extract exactly k.
func TestWarmHitCostsAnswer(t *testing.T) {
	const n = 4000
	db := Open()
	loadUniform(t, db, n, 5)
	type step struct {
		sql                       string
		extracted, probes, folded int64
	}
	const (
		anyQ   = " FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.1"
		allQ   = " FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 0.1 ON-OVERLAP JOIN-ANY"
		sweepQ = " FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN "
	)
	steps := []step{
		{"SELECT count(*), avg(x)" + anyQ, n, n, 2 * n},
		{"SELECT count(*), avg(x)" + anyQ, 0, 0, 0},
		{"SELECT count(*), avg(x)" + anyQ, 0, 0, 0},
		{"SELECT count(*), max(y)" + anyQ, 0, 0, n},
		{"SELECT max(y), count(*) + 1, avg(x)" + anyQ, 0, 0, 0},
		{"SELECT count(*), avg(x)" + anyQ + " HAVING count(*) >= 3", 0, 0, 0},
		{"SELECT count(*), max(y)" + anyQ + " ORDER BY 1 DESC, 2 DESC LIMIT 10", 0, 0, 0},
		{"SELECT count(*), min(y)" + allQ, n, n, 2 * n},
		{"SELECT min(y), count(*)" + allQ + " HAVING min(y) > 1", 0, 0, 0},
		{"SELECT eps, count(*)" + sweepQ + "(0.05, 0.1, 0.3)", n, n, 3 * n},
		{"SELECT eps, count(*)" + sweepQ + "(0.1, 0.2)", 0, n, n}, // 0.2 is new
		{"SELECT eps, count(*), sum(x)" + sweepQ + "(0.05, 0.2, 0.3)", 0, 0, 3 * n},
		{"SELECT *" + sweepQ + "(0.05, 0.1, 0.2, 0.3) SIMILARITY CUBE BY EPS", 0, 0, 0},
	}
	for i, s := range steps {
		st := warmQuery(t, db, s.sql)
		if work := st.DistanceComputations + st.RectTests + st.IndexProbes; st.IndexProbes != s.probes || (work > 0) != (s.probes > 0) {
			t.Errorf("step %d (%s): %d distance computations, rectangle tests and probes, want %d probes", i, s.sql, work, s.probes)
		}
		if st.PointsExtracted != s.extracted || st.RowsFolded != s.folded {
			t.Errorf("step %d (%s): extracted %d rows and folded %d, want %d and %d",
				i, s.sql, st.PointsExtracted, st.RowsFolded, s.extracted, s.folded)
		}
	}

	const k = 7
	var ins strings.Builder
	ins.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < k; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d.5, 3.25)", n+i, i)
	}
	mustExec(t, db, ins.String())
	for _, sql := range []string{
		"SELECT count(*), avg(x)" + anyQ,
		"SELECT count(*), min(y)" + allQ,
		"SELECT eps, count(*)" + sweepQ + "(0.1, 0.2)",
	} {
		if st := warmQuery(t, db, sql); st.PointsExtracted != k {
			t.Errorf("%s after a %d-row INSERT extracted %d rows", sql, k, st.PointsExtracted)
		}
		if st := warmQuery(t, db, sql); st != (Stats{}) {
			t.Errorf("%s repeated after the INSERT did work: %+v", sql, st)
		}
	}
}

// TestAnswerMemoBounds: the ε level past core.MaxLevels is grouped per
// query — one probe pass over the live points, kept neither by the
// entry nor by the published answer, which stays at its bound; an aggregate
// that reads another table is never memoized; DROP + re-CREATE of a
// table with the same name, generation and row count is not served the
// old table's answer.
func TestAnswerMemoBounds(t *testing.T) {
	db := Open()
	loadUniform(t, db, 600, 9)
	levels := make([]string, core.MaxLevels+1)
	for i := range levels {
		levels[i] = fmt.Sprint(0.02 * float64(core.MaxLevels+1-i)) // largest first: one build
	}
	sweep := func(ls []string) string {
		return "SELECT eps, count(*), avg(y) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (" + strings.Join(ls, ", ") + ")"
	}
	published := func() int {
		t.Helper()
		for _, it := range db.cache.items() {
			if isSweepKey(it.key) {
				return len(it.e.ans.Load().levels)
			}
		}
		t.Fatal("no sweep entry")
		return 0
	}
	warmQuery(t, db, sweep(levels[:core.MaxLevels]))
	if got := published(); got != core.MaxLevels {
		t.Fatalf("%d levels published, want %d", got, core.MaxLevels)
	}
	for rep := 0; rep < 2; rep++ {
		st := warmQuery(t, db, sweep(levels))
		if st.RowsFolded != 2*600 || st.PointsExtracted != 0 || st.IndexProbes != 600 || st.IndexUpdates != 0 {
			t.Fatalf("sweep with a 17th level: %+v, want one probe pass for that level and its two aggregates folded", st)
		}
		if ev, _ := sweepEntry(t, db); len(ev.Levels()) != core.MaxLevels {
			t.Fatalf("the entry keeps %d levels, want %d", len(ev.Levels()), core.MaxLevels)
		}
		if got := published(); got != core.MaxLevels {
			t.Fatalf("%d levels published after a 17-level sweep, want %d", got, core.MaxLevels)
		}
	}

	mustExec(t, db, "CREATE TABLE picked (id INT)")
	mustExec(t, db, "INSERT INTO picked VALUES (1), (2), (3)")
	sub := "SELECT count(*), array_agg(id IN (SELECT id FROM picked)) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.1"
	warmQuery(t, db, sub)
	mustExec(t, db, "INSERT INTO picked VALUES (4), (5)")
	if st := warmQuery(t, db, sub); st.RowsFolded != 600 {
		t.Fatalf("aggregate over a subquery folded %d rows on repeat, want all 600 (never memoized)", st.RowsFolded)
	}

	q := "SELECT count(*), sum(x) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"
	warmQuery(t, db, q)
	mustExec(t, db, "DROP TABLE pts")
	loadUniform(t, db, 600, 10) // same name, generation and length; other rows
	if st := warmQuery(t, db, q); st.PointsExtracted != 600 {
		t.Fatalf("query after DROP + re-CREATE extracted %d rows, want a rebuild over all 600", st.PointsExtracted)
	}
}

// TestMemoKeysTellLiteralKindsApart: an INT and a FLOAT literal of the
// same value do not compute the same thing (INT arithmetic stays exact
// and wraps, FLOAT rounds), so neither a memoized aggregate column nor
// a cached grouping may be shared between the two spellings, whichever
// is asked first.
func TestMemoKeysTellLiteralKindsApart(t *testing.T) {
	const tail = " FROM big GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5"
	pairs := [][2]string{
		{"SELECT max(a + 0), count(*)" + tail, "SELECT max(a + 0.0), count(*)" + tail},
		{"SELECT max(a * 2.0)" + tail, "SELECT max(a * 2)" + tail},
		{"SELECT sum(a - 100000)" + tail, "SELECT sum(a - 1e5)" + tail},
		{"SELECT eps, min(a + 1)" + " FROM big GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (1, 2.5)",
			"SELECT eps, min(a + 1.0)" + " FROM big GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (1.0, 2.5)"},
		// 2⁶² * 4 wraps to 0 as an INT and is 1.8e19 as a FLOAT: the two
		// spellings group the rows differently. (ε = 5000 keeps 1.8e19
		// within the 2⁵² ε-cells a grouping attribute may span.)
		{"SELECT count(*) FROM big GROUP BY a * 4, x DISTANCE-TO-ANY L2 WITHIN 5000",
			"SELECT count(*) FROM big GROUP BY a * 4.0, x DISTANCE-TO-ANY L2 WITHIN 5000"},
	}
	db := Open()
	mustExec(t, db, "CREATE TABLE big (a INT, x FLOAT, y FLOAT)")
	mustExec(t, db, "INSERT INTO big VALUES (9007199254740993, 0, 0), (9007199254741003, 1, 0), (11, 5, 5),"+
		" (4611686018427387904, 6, 5), (3, 9, 9), (7, 9.5, 9)")
	for _, p := range pairs {
		for _, sql := range p {
			warmQuery(t, db, sql)
		}
	}
	for _, p := range pairs { // and with every column already memoized
		for _, sql := range p {
			if st := warmQuery(t, db, sql); st.RowsFolded != 0 {
				t.Errorf("%s folded %d rows on repeat", sql, st.RowsFolded)
			}
		}
	}
}

// TestSimilarityOverEmptyTable: no rows, no groups — a sweep's output
// has no row for the ε column to sit in — with the cache on and off.
func TestSimilarityOverEmptyTable(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE e (x FLOAT, y FLOAT)")
	for _, sql := range []string{
		"SELECT count(*) FROM e GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1",
		"SELECT eps, count(*), avg(x) FROM e GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (1, 2)",
	} {
		for _, incremental := range []bool{false, true} {
			rows, err := db.QueryOpt(sql, QueryOptions{Incremental: incremental})
			if err != nil || len(rows.Data) != 0 {
				t.Errorf("%s (incremental %v): rows %v, err %v", sql, incremental, rows, err)
			}
		}
	}
}

// TestOlderSnapshotServedFromPreviousAnswer interleaves, through a
// hand-built plan, what a concurrent session can do between a query's
// scan and its cache lookup: a DELETE and a query that publishes the
// new generation's answer. The scan that predates the DELETE is served
// the old generation's answer — no extraction, the old rows' result.
// After a second mutation that answer is gone and the old scan is
// evaluated privately, with the same result and shared state intact.
func TestOlderSnapshotServedFromPreviousAnswer(t *testing.T) {
	db := Open()
	loadUniform(t, db, 500, 3)
	const sql = "SELECT count(*), sum(id) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.4"
	tbl, err := db.cat.Lookup("pts")
	if err != nil {
		t.Fatal(err)
	}
	for _, mutations := range []int{1, 2} {
		before := mustQuery(t, db, sql)
		warmQuery(t, db, sql)
		var st core.Stats
		opt := core.Options{Metric: L2, Eps: 0.4, Algorithm: core.GridIndex, Stats: &st}
		serve := db.sgbAnswerFunc("pts", "x,y", true, nil, opt)
		served := false
		node := &exec.SGB{
			Input: &exec.SeqScan{Table: tbl},
			GroupExprs: []exec.Scalar{
				func(r types.Row) (types.Value, error) { return r[1], nil },
				func(r types.Row) (types.Value, error) { return r[2], nil },
			},
			Any: true, Opt: opt,
			Aggs: []exec.AggSpec{
				{Kind: exec.AggCountStar, Key: "count(*)"},
				{Kind: exec.AggSum, Args: []exec.Scalar{func(r types.Row) (types.Value, error) { return r[0], nil }}, Key: "sum(id)"},
			},
			Answer: func(src exec.Snapshot) ([]*exec.Grouping, error) {
				for m := 0; m < mutations; m++ {
					mustExec(t, db, fmt.Sprintf("DELETE FROM pts WHERE id %% 50 = %d", 7*mutations+m))
					warmQuery(t, db, sql)
				}
				gs, err := serve(src)
				served = gs != nil
				return gs, err
			},
		}
		got, err := exec.Run(node)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, before.Data) {
			t.Fatalf("%d mutation(s) behind: the old scan's rows differ from the pre-DELETE result", mutations)
		}
		if served != (mutations == 1) || (st.PointsExtracted == 0) != served {
			t.Fatalf("%d mutation(s) behind: served from a published answer = %v, extracted %d rows", mutations, served, st.PointsExtracted)
		}
		if st := warmQuery(t, db, sql); st.PointsExtracted != 0 {
			t.Fatalf("the old-snapshot reader disturbed shared state: next query extracted %d rows", st.PointsExtracted)
		}
	}
}

// TestAnswerMultiSessionEquivalence runs a seeded INSERT / DELETE /
// query interleaving on four sessions at once (run it under -race).
// Every query a session completes with the table unchanged around it
// is repeated with incremental maintenance off and must match row for
// row; when the sessions have drained, every statement shape is
// compared once more on the quiescent table.
func TestAnswerMultiSessionEquivalence(t *testing.T) {
	db := Open()
	loadUniform(t, db, 400, 77)
	tbl, err := db.cat.Lookup("pts")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT count(*), avg(x) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5",
		"SELECT count(*), max(y) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 HAVING count(*) >= 2",
		"SELECT count(*), min(x) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP JOIN-ANY",
		"SELECT count(*), sum(y) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP ELIMINATE",
		"SELECT eps, count(*), avg(y) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.2, 0.5, 0.9)",
		"SELECT eps, count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.5, 0.7)",
		"SELECT * FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.2, 0.7) SIMILARITY CUBE BY EPS",
	}
	compare := func(on, off *Session, sql string) (bool, error) {
		g0 := tbl.Generation()
		got, err := on.Query(sql)
		if err != nil {
			return false, err
		}
		want, err := off.Query(sql)
		if err != nil {
			return false, err
		}
		if tbl.Generation() != g0 {
			return false, nil // a mutation landed between the two reads
		}
		if !reflect.DeepEqual(got.Data, want.Data) {
			return false, fmt.Errorf("%s: incremental on and off differ at generation %d", sql, g0)
		}
		return true, nil
	}

	const sessions, ops = 4, 120
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	compared := make([]int, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			on, off := db.NewSession(), db.NewSession()
			on.SetOptions(QueryOptions{Algorithm: GridIndex, Seed: 11, Incremental: true})
			off.SetOptions(QueryOptions{Algorithm: GridIndex, Seed: 11})
			rng := rand.New(rand.NewSource(int64(100 + s)))
			nextID := 10000 * (s + 1)
			for i := 0; i < ops && errs[s] == nil; i++ {
				switch p := rng.Intn(10); {
				case p < 6:
					ok, err := compare(on, off, queries[rng.Intn(len(queries))])
					if ok {
						compared[s]++
					}
					errs[s] = err
				case p < 8:
					var b strings.Builder
					b.WriteString("INSERT INTO pts VALUES ")
					for k, n := 0, 1+rng.Intn(4); k < n; k++ {
						if k > 0 {
							b.WriteString(", ")
						}
						fmt.Fprintf(&b, "(%d, %g, %g)", nextID, rng.Float64()*10, rng.Float64()*10)
						nextID++
					}
					_, errs[s] = on.Exec(b.String())
				default:
					_, errs[s] = on.Exec(fmt.Sprintf("DELETE FROM pts WHERE id %% 97 = %d", rng.Intn(97)))
				}
			}
		}(s)
	}
	wg.Wait()
	total := 0
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
		total += compared[s]
	}
	t.Logf("%d of the concurrent reads were compared against a from-scratch evaluation", total)
	on, off := db.NewSession(), db.NewSession()
	on.SetOptions(QueryOptions{Algorithm: GridIndex, Seed: 11, Incremental: true})
	off.SetOptions(QueryOptions{Algorithm: GridIndex, Seed: 11})
	for _, sql := range queries {
		if ok, err := compare(on, off, sql); err != nil || !ok {
			t.Fatalf("quiescent comparison of %s: ok = %v, err = %v", sql, ok, err)
		}
	}
}
