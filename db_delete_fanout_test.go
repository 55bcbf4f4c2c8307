package sgb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sgb-db/sgb/internal/checkin"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

// entryEvaluators maps each cache key to the evaluator its entry holds
// (nil while it holds none): the same pointer before and after a
// statement means the entry was maintained, not rebuilt.
func entryEvaluators(db *DB) map[incrKey]any {
	out := make(map[incrKey]any)
	for _, it := range db.cache.items() {
		it.e.mu.Lock()
		var ev any
		if it.e.inc != nil {
			ev = it.e.inc
		} else if it.e.lat != nil {
			ev = it.e.lat
		}
		it.e.mu.Unlock()
		out[it.key] = ev
	}
	return out
}

// TestDeleteMaintainsEntriesConcurrently: a DELETE maintains every
// cached grouping of its table at once. Table win carries five —
// DISTANCE-TO-ANY, the three ON-OVERLAP clauses and an EPS IN sweep —
// and table other one, which no DELETE on win may touch. Sliding-window
// rounds (INSERT, then DELETE of the oldest rows) run while two other
// sessions read all six groupings. After every DELETE each grouping
// equals an incremental = off twin's, every entry holds the evaluator it
// held before, the entry of other is unchanged, and CacheStats grew by
// maintenance: nothing was rebuilt or dropped. Last, one DELETE meets a
// stale entry and one without an evaluator: only those two are dropped.
func TestDeleteMaintainsEntriesConcurrently(t *testing.T) {
	const window, step = 500, 40
	rounds := 10
	if testing.Short() {
		rounds = 4
	}
	const sel = "SELECT count(*), min(id), max(id) FROM win GROUP BY x, y "
	winQ := []string{
		sel + "DISTANCE-TO-ANY L2 WITHIN 0.5",
		sel + "DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP JOIN-ANY",
		sel + "DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP ELIMINATE",
		sel + "DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP FORM-NEW-GROUP",
		"SELECT eps, count(*), min(id) FROM win GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.3, 0.6, 1.2)",
	}
	const otherQ = "SELECT count(*), min(id) FROM other GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 0.5"
	all := append(winQ[:len(winQ):len(winQ)], otherQ)

	cached, ref := Open(), Open()
	mustExec(t, cached, "SET incremental = on")
	mustExec(t, ref, "SET incremental = off")
	rng := rand.New(rand.NewSource(83))
	next := 0
	insert := func(table string, n int) {
		t.Helper()
		var b strings.Builder
		b.WriteString("INSERT INTO " + table + " VALUES ")
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %.6f, %.6f)", next, rng.Float64()*10, rng.Float64()*10)
			next++
		}
		mustExec(t, cached, b.String())
		mustExec(t, ref, b.String())
	}
	compare := func(when string) {
		t.Helper()
		for _, q := range all {
			if got, want := mustQuery(t, cached, q), mustQuery(t, ref, q); !reflect.DeepEqual(got.Data, want.Data) {
				t.Fatalf("%s: maintained grouping diverges from incremental = off for %q:\ngot  %v\nwant %v", when, q, got.Data, want.Data)
			}
		}
	}
	for _, db := range []*DB{cached, ref} {
		mustExec(t, db, "CREATE TABLE win (id INT, x FLOAT, y FLOAT)")
		mustExec(t, db, "CREATE TABLE other (id INT, x FLOAT, y FLOAT)")
	}
	insert("other", 200)
	insert("win", window)
	compare("build")
	if n := cached.cache.len(); n != len(all) {
		t.Fatalf("%d cache entries after building %d groupings", n, len(all))
	}

	// The readers check that each answer describes one snapshot of win:
	// every row in one group per level (ELIMINATE may drop some), and the
	// table holds window or window+step rows. They are held off only for
	// the DELETE itself. A query whose snapshot falls between the table's
	// compaction and the entries' maintenance rebuilds its entry at the
	// new generation, correctly, and the DELETE then drops it as stale:
	// that would hide whether maintenance happened.
	var gate sync.RWMutex
	stop := make(chan struct{})
	var stopOnce sync.Once
	errs := make(chan error, 2) // one per reader
	var wg sync.WaitGroup
	stopReaders := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer stopReaders()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := cached.NewSession()
			if _, err := sess.Exec("SET incremental = on"); err != nil {
				errs <- err
				return
			}
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := all[i%len(all)]
				gate.RLock()
				rows, err := sess.Query(q)
				gate.RUnlock()
				if err != nil {
					errs <- err
					return
				}
				sums := map[float64]int64{}
				for _, row := range rows.Data {
					if q == winQ[4] {
						sums[row[0].F] += row[1].I
					} else {
						sums[0] += row[0].I
					}
				}
				for _, s := range sums {
					switch {
					case q == otherQ && s != 200,
						q == winQ[2] && s > window+step,
						q != otherQ && q != winQ[2] && s != window && s != window+step:
						errs <- fmt.Errorf("reader %d: %q counts %d rows in one level", r, q, s)
						return
					}
				}
			}
		}(r)
	}

	// snap captures what a DELETE may change: each entry's evaluator, the
	// cache's counters, and the whole state of other's entry.
	snap := func() (map[incrKey]any, Stats, string) {
		other := "gone"
		for _, it := range cached.cache.items() {
			if it.key.table == "other" {
				it.e.mu.Lock()
				other = fmt.Sprintf("%p %p %d %d %+v", it.e.table, it.e.inc, it.e.consumed, it.e.gen, it.e.stats)
				it.e.mu.Unlock()
			}
		}
		return entryEvaluators(cached), cached.CacheStats(), other
	}
	lo := 200 // the oldest id in win
	for round := 0; round < rounds && len(errs) == 0; round++ {
		when := fmt.Sprintf("round %d", round)
		insert("win", step)
		lo += step
		del := fmt.Sprintf("DELETE FROM win WHERE id < %d", lo)
		gate.Lock()
		before, beforeStats, otherBefore := snap()
		_, err := cached.Exec(del)
		after, afterStats, otherAfter := snap()
		gate.Unlock()
		if err != nil {
			t.Fatalf("%s: %s: %v", when, del, err)
		}
		mustExec(t, ref, del)

		if len(after) != len(before) {
			t.Fatalf("%s: %d entries before the DELETE, %d after", when, len(before), len(after))
		}
		for k, ev := range before {
			if ev == nil || after[k] != ev {
				t.Fatalf("%s: entry %v was rebuilt or dropped, not maintained", when, k)
			}
		}
		if otherBefore == "gone" || otherAfter != otherBefore {
			t.Fatalf("%s: a DELETE on win changed the entry of other: %s, then %s", when, otherBefore, otherAfter)
		}
		if afterStats.PointsReplayed <= beforeStats.PointsReplayed || afterStats.DistanceComputations < beforeStats.DistanceComputations {
			t.Fatalf("%s: CacheStats went from %+v to %+v: no maintenance recorded", when, beforeStats, afterStats)
		}
		compare(when)
	}
	stopReaders()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One DELETE meets a stale entry (it missed a mutation) and one in
	// sync but without an evaluator — what a query whose build failed
	// leaves between releasing the entry and giving its slot back. Those
	// two go; the other four entries are maintained.
	win, err := cached.cat.Lookup("win")
	if err != nil {
		t.Fatal(err)
	}
	var stale incrKey
	for _, it := range cached.cache.items() {
		if it.key.table == "win" && strings.HasPrefix(it.key.fingerprint, "any=false") && strings.Contains(it.key.fingerprint, fmt.Sprintf("|overlap=%d|", JoinAny)) {
			stale = it.key
			it.e.mu.Lock()
			it.e.gen--
			it.e.mu.Unlock()
		}
	}
	if stale == (incrKey{}) {
		t.Fatal("no JOIN-ANY entry to make stale")
	}
	unbuilt := incrKey{table: "win", fingerprint: "unbuilt"}
	e := cached.cache.acquire(unbuilt)
	e.mu.Lock()
	e.table, e.gen = win, win.Generation()
	e.mu.Unlock()
	before := entryEvaluators(cached)
	lo += step
	for _, db := range []*DB{cached, ref} {
		mustExec(t, db, fmt.Sprintf("DELETE FROM win WHERE id < %d", lo))
	}
	after := entryEvaluators(cached)
	for k, ev := range before {
		_, kept := after[k]
		switch {
		case k == stale || k == unbuilt:
			if kept {
				t.Errorf("entry %v survived a DELETE it could not be maintained through", k)
			}
		case !kept || after[k] != ev:
			t.Errorf("entry %v was rebuilt or dropped beside the stale one", k)
		}
	}
	compare("after the stale DELETE")
}

// BenchmarkDeleteMaintain is the work/span record of noteDelete's
// fan-out on the shape of the end-to-end benchmark's stream_maintain
// workload: 16 000 Brightkite-profile check-ins, its three maintained
// groupings (DISTANCE-TO-ANY L2 0.2, DISTANCE-TO-ALL LINF 0.2 JOIN-ANY,
// EPS IN (0.1, 0.2, 0.4)), and a DELETE of the 256 oldest rows kept
// level by a 256-row INSERT that the three absorb first, as the
// workload's reads make them do.
//
// Entries maintains the three one after another and times each:
// work-ms/op is their sum, span-ms/op the largest, and floor = work ÷
// span bounds what maintaining them at once can win on any number of
// cores. Read it at -cpu 1, where nothing competes with the timed entry.
// Delete times the whole DELETE statement, fan-out included; its -cpu 2
// reading against its -cpu 1 reading is what two cores give.
//
//	go test -run '^$' -bench DeleteMaintain -cpu 1,2 -benchtime 40x .
func BenchmarkDeleteMaintain(b *testing.B) {
	const rows, batch = 16000, 256
	pool := checkin.Points(checkin.Brightkite(64000))
	const from = " FROM checkins GROUP BY x, y "
	groupings := []struct{ name, sql string }{
		{"any", "SELECT count(*)" + from + "DISTANCE-TO-ANY L2 WITHIN 0.2"},
		{"all", "SELECT count(*)" + from + "DISTANCE-TO-ALL LINF WITHIN 0.2 ON-OVERLAP JOIN-ANY"},
		{"sweep", "SELECT eps, count(*)" + from + "DISTANCE-TO-ANY L2 EPS IN (0.1, 0.2, 0.4)"},
	}
	// setup loads the table and builds the three entries; it returns the
	// entries' names and a step that inserts the next batch, lets the
	// three absorb it, and returns the id bound of the oldest batch.
	setup := func(b *testing.B) (*DB, *storage.Table, map[incrKey]string, func() int) {
		t := storage.NewTable("checkins", storage.Schema{
			{Name: "id", Type: types.KindInt},
			{Name: "x", Type: types.KindFloat},
			{Name: "y", Type: types.KindFloat},
		})
		row := func(id int) types.Row {
			p := pool[id%len(pool)]
			return types.Row{types.Int(int64(id)), types.Float(p[0]), types.Float(p[1])}
		}
		for id := 0; id < rows; id++ {
			t.MustInsert(row(id))
		}
		db := Open()
		if err := db.cat.Create(t); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec("SET incremental = on"); err != nil {
			b.Fatal(err)
		}
		names := make(map[incrKey]string)
		for _, g := range groupings {
			if _, err := db.Query(g.sql); err != nil {
				b.Fatal(err)
			}
			for k := range entryEvaluators(db) {
				if _, ok := names[k]; !ok {
					names[k] = g.name
				}
			}
		}
		next, oldest := rows, 0
		step := func() int {
			var sql strings.Builder
			sql.WriteString("INSERT INTO checkins VALUES ")
			for i := 0; i < batch; i++ {
				if i > 0 {
					sql.WriteString(", ")
				}
				r := row(next)
				fmt.Fprintf(&sql, "(%d, %v, %v)", r[0].I, r[1].F, r[2].F)
				next++
			}
			if _, err := db.Exec(sql.String()); err != nil {
				b.Fatal(err)
			}
			for _, g := range groupings {
				if _, err := db.Query(g.sql); err != nil {
					b.Fatal(err)
				}
			}
			oldest += batch
			return oldest
		}
		return db, t, names, step
	}

	b.Run("Entries", func(b *testing.B) {
		db, t, names, step := setup(b)
		doomed := make([]int, batch)
		for i := range doomed {
			doomed[i] = i
		}
		per := make(map[string]time.Duration)
		var work, span time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			step()
			preGen := t.Generation()
			if err := t.DeleteRows(doomed); err != nil {
				b.Fatal(err)
			}
			newGen := t.Generation()
			items := db.cache.items()
			sort.Slice(items, func(i, j int) bool { return keyLess(items[i].key, items[j].key) })
			b.StartTimer()
			var longest time.Duration
			for _, it := range items {
				start := time.Now()
				db.maintainDeleted(it, t, preGen, newGen, doomed)
				d := time.Since(start)
				per[names[it.key]] += d
				work += d
				longest = max(longest, d)
			}
			span += longest
		}
		b.StopTimer()
		if n := len(entryEvaluators(db)); n != len(groupings) {
			b.Fatalf("%d entries left of %d: maintenance dropped one", n, len(groupings))
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
		for _, g := range groupings {
			b.ReportMetric(ms(per[g.name]), g.name+"-ms/op")
		}
		b.ReportMetric(ms(work), "work-ms/op")
		b.ReportMetric(ms(span), "span-ms/op")
		b.ReportMetric(float64(work)/float64(span), "floor")
	})

	b.Run("Delete", func(b *testing.B) {
		db, _, _, step := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bound := step()
			b.StartTimer()
			if n, err := db.Exec(fmt.Sprintf("DELETE FROM checkins WHERE id < %d", bound)); err != nil || n != batch {
				b.Fatalf("DELETE: %d rows, %v", n, err)
			}
		}
	})
}
