package sgb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSQLSweepDeleteTwinDB runs one statement trace against two
// databases — one answering sweeps from the maintained sweep entry,
// one with SET incremental = off regrouping from scratch — through
// DELETE → sweep → INSERT → sweep → cube rounds, and requires identical
// rows at every read. The rounds cover a delete of rows the entry never
// consumed, a delete followed by inserts restoring the row count, a
// delete of every row, and a sweep above the entry's top level after a
// delete.
func TestSQLSweepDeleteTwinDB(t *testing.T) {
	cached, ref := Open(), Open()
	for _, db := range []*DB{cached, ref} {
		mustExec(t, db, "CREATE TABLE sensors (id INT, x FLOAT, y FLOAT)")
	}
	mustExec(t, cached, "SET incremental = on")
	mustExec(t, ref, "SET incremental = off")
	rng := rand.New(rand.NewSource(61))
	nextID := 0
	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			stmt := fmt.Sprintf("INSERT INTO sensors VALUES (%d, %.6f, %.6f)", nextID, rng.Float64()*12, rng.Float64()*12)
			nextID++
			mustExec(t, cached, stmt)
			mustExec(t, ref, stmt)
		}
	}
	both := func(sql string) {
		t.Helper()
		mustExec(t, cached, sql)
		mustExec(t, ref, sql)
	}
	const (
		sweepQ = "SELECT eps, count(*), min(id) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.4, 0.9, 1.6)"
		wideQ  = "SELECT eps, count(*), min(id) FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.9, 2.5)"
		cubeQ  = "SELECT * FROM sensors GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.2, 0.4, 0.9, 1.6) SIMILARITY CUBE BY EPS"
	)
	read := func(step, sql string) {
		t.Helper()
		got, want := mustQuery(t, cached, sql), mustQuery(t, ref, sql)
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Fatalf("%s: maintained entry diverges from incremental = off for %q:\ngot  %v\nwant %v", step, sql, got.Data, want.Data)
		}
	}

	insert(260)
	read("build", sweepQ)
	built, _ := sweepEntry(t, cached)
	for round := 0; round < 6; round++ {
		step := fmt.Sprintf("round %d", round)
		// A sliding-window DELETE of the oldest rows plus a scattered one.
		both(fmt.Sprintf("DELETE FROM sensors WHERE id < %d", nextID-220))
		both(fmt.Sprintf("DELETE FROM sensors WHERE id %% 7 = %d", round))
		read(step+" after delete", sweepQ)
		insert(40 + 10*round)
		read(step+" after insert", sweepQ)
		read(step+" cube", cubeQ)
	}

	// Rows the entry never consumed: inserted, then partly deleted
	// (together with consumed rows) before any sweep saw them.
	insert(30)
	both(fmt.Sprintf("DELETE FROM sensors WHERE id >= %d OR id %% 5 = 0", nextID-15))
	read("unconsumed rows deleted", sweepQ)
	if kept, _ := sweepEntry(t, cached); kept != built {
		t.Fatal("the entry was rebuilt somewhere along the trace, not maintained")
	}

	// Delete, then insert back to the old row count: the generation, not
	// the count, keeps the entry honest.
	n0, _ := cached.TableLen("sensors")
	both(fmt.Sprintf("DELETE FROM sensors WHERE id %% 3 = 1 AND id < %d", nextID-40))
	n1, _ := cached.TableLen("sensors")
	insert(n0 - n1)
	read("count restored", sweepQ)
	read("count restored cube", cubeQ)
	if kept, _ := sweepEntry(t, cached); kept != built {
		t.Fatal("restoring the row count cost the entry a rebuild")
	}

	// A sweep above the entry's top level after a delete rebuilds at the wider
	// bound; later deletes maintain the wider entry.
	both("DELETE FROM sensors WHERE id % 11 = 3")
	read("above the top level", wideQ)
	wide, _ := sweepEntry(t, cached)
	if wide == built {
		t.Fatal("a sweep above the top level was answered without a rebuild")
	}
	both("DELETE FROM sensors WHERE id % 11 = 4")
	read("wide entry after delete", wideQ)
	read("narrow list on wide entry", sweepQ)

	// Every row goes; the emptied entry keeps absorbing.
	both("DELETE FROM sensors")
	read("empty table", sweepQ)
	read("empty table cube", cubeQ)
	insert(50)
	read("refilled", sweepQ)
	read("refilled cube", cubeQ)
	if kept, _ := sweepEntry(t, cached); kept != wide {
		t.Fatal("the wide entry was rebuilt after it was built, not maintained")
	}
}

// TestSQLSweepDeleteRace: one session deletes (and refills) while
// another sweeps. Under -race this exercises noteDelete's repair against
// the answer path's lock-free reads; functionally every sweep must
// describe ONE snapshot — all levels partition the same number of rows —
// and the final state must equal a from-scratch sweep.
func TestSQLSweepDeleteRace(t *testing.T) {
	db := Open()
	loadUniform(t, db, 600, 71)
	const sweepQ = "SELECT eps, count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.3, 0.6, 1.2)"
	rounds := 40
	if testing.Short() {
		rounds = 12
	}
	var wg sync.WaitGroup
	var sweeps atomic.Int64 // the writer paces itself on it, so every round is swept
	errs := make(chan error, 2)
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer close(stop)
		sess := db.NewSession()
		rng := rand.New(rand.NewSource(72))
		for i := 0; i < rounds; i++ {
			for seen := sweeps.Load(); sweeps.Load() == seen && len(errs) == 0; {
				runtime.Gosched()
			}
			if _, err := sess.Exec(fmt.Sprintf("DELETE FROM pts WHERE id %% %d = %d", rounds, i)); err != nil {
				errs <- err
				return
			}
			if _, err := sess.Exec(fmt.Sprintf("INSERT INTO pts VALUES (%d, %g, %g), (%d, %g, %g)",
				1000+2*i, rng.Float64()*10, rng.Float64()*10, 1001+2*i, rng.Float64()*10, rng.Float64()*10)); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		sess := db.NewSession()
		if _, err := sess.Exec("SET incremental = on"); err != nil {
			errs <- err
			return
		}
		for {
			rows, err := sess.Query(sweepQ)
			if err != nil {
				errs <- err
				return
			}
			total := map[float64]int64{}
			for _, r := range rows.Data {
				total[r[0].F] += r[1].I
			}
			if total[0.3] != total[0.6] || total[0.6] != total[1.2] {
				errs <- fmt.Errorf("one sweep mixed snapshots: rows per level %v", total)
				return
			}
			sweeps.Add(1)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sess := db.NewSession()
	mustSess := func(sql string) {
		t.Helper()
		if _, err := sess.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	mustSess("SET incremental = on")
	got, err := sess.Query(sweepQ)
	if err != nil {
		t.Fatal(err)
	}
	mustSess("SET incremental = off")
	want, err := sess.Query(sweepQ)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("maintained sweep after the race diverges from scratch:\ngot  %v\nwant %v", got.Data, want.Data)
	}
}
