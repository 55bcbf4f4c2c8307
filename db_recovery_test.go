package sgb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/snapshot"
)

// The kill matrix: a persistent database executes a mutation trace
// under SET durability = always, then the test crashes it at every
// frame boundary of the resulting WAL — plus random mid-frame offsets
// and targeted byte flips — and checks that recovery lands on exactly
// the statement prefix whose frames survived, for every similarity
// semantics × metric × dimensionality combination. Corrupt tails must
// be detected and discarded, never applied.

// recoveryQueries is the query matrix equivalence is checked under:
// both metrics across SGB-Any and all three SGB-All overlap modes.
func recoveryQueries(d int) []string {
	cols := make([]string, d)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i+1)
	}
	by := strings.Join(cols, ", ")
	var qs []string
	for _, metric := range []string{"L2", "LINF"} {
		qs = append(qs,
			fmt.Sprintf("SELECT count(*), min(id), max(id) FROM pts GROUP BY %s DISTANCE-TO-ANY %s WITHIN 1", by, metric),
			fmt.Sprintf("SELECT count(*), min(id), max(id) FROM pts GROUP BY %s DISTANCE-TO-ALL %s WITHIN 1 ON-OVERLAP JOIN-ANY", by, metric),
			fmt.Sprintf("SELECT count(*), min(id), max(id) FROM pts GROUP BY %s DISTANCE-TO-ALL %s WITHIN 1 ON-OVERLAP ELIMINATE", by, metric),
			fmt.Sprintf("SELECT count(*), min(id), max(id) FROM pts GROUP BY %s DISTANCE-TO-ALL %s WITHIN 1 ON-OVERLAP FORM-NEW-GROUP", by, metric),
		)
	}
	return qs
}

// recoveryTrace builds a deterministic mutation trace over a table
// with d grouping dimensions: clustered inserts, predicate deletes,
// and a create/insert/drop of a second table so every record kind has
// frames in the log.
func recoveryTrace(d int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	cols := make([]string, d)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i+1)
	}
	stmts := []string{
		fmt.Sprintf("CREATE TABLE pts (id INT, %s FLOAT)", strings.Join(cols, " FLOAT, ")),
	}
	id := 0
	insert := func(rows int) string {
		var b strings.Builder
		b.WriteString("INSERT INTO pts VALUES ")
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d", id)
			id++
			for j := 0; j < d; j++ {
				fmt.Fprintf(&b, ", %.4f", float64(r.Intn(6))+0.6*r.Float64())
			}
			b.WriteString(")")
		}
		return b.String()
	}
	stmts = append(stmts, insert(20), insert(20),
		"DELETE FROM pts WHERE id % 5 = 2",
		insert(25),
		"CREATE TABLE aux (k INT, v FLOAT)",
		"INSERT INTO aux VALUES (1, 0.5), (2, 1.5)",
		insert(25),
		"DELETE FROM pts WHERE c1 < 1.0",
		"DROP TABLE aux",
		insert(20),
		"DELETE FROM pts WHERE id % 7 = 3",
	)
	return stmts
}

// refDB replays the first k trace statements on a fresh in-memory DB.
func refDB(t *testing.T, stmts []string, k int) *DB {
	t.Helper()
	db := Open()
	for _, s := range stmts[:k] {
		mustExec(t, db, s)
	}
	return db
}

// sameDBState fails unless a and b hold identical tables and answer
// the whole similarity query matrix identically.
func sameDBState(t *testing.T, label string, a, b *DB, d int) {
	t.Helper()
	if !reflect.DeepEqual(a.Tables(), b.Tables()) {
		t.Fatalf("%s: tables %v vs %v", label, a.Tables(), b.Tables())
	}
	for _, name := range a.Tables() {
		ta, _ := a.cat.Lookup(name)
		tb, _ := b.cat.Lookup(name)
		if !reflect.DeepEqual(ta.Schema, tb.Schema) || !reflect.DeepEqual(ta.Rows, tb.Rows) {
			t.Fatalf("%s: table %s contents diverge (%d vs %d rows)", label, name, len(ta.Rows), len(tb.Rows))
		}
	}
	hasPts := false
	for _, name := range a.Tables() {
		if name == "pts" {
			hasPts = true
		}
	}
	if !hasPts {
		return
	}
	for _, q := range recoveryQueries(d) {
		ra, err := a.Query(q)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, q, err)
		}
		rb, err := b.Query(q)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, q, err)
		}
		if !reflect.DeepEqual(ra.Data, rb.Data) {
			t.Fatalf("%s: %q: results diverge\n want %v\n  got %v", label, q, ra.Data, rb.Data)
		}
	}
}

// runTrace executes the trace against a fresh persistent DB in dir and
// returns the WAL segment path, its full contents, and the byte offset
// of each frame boundary: bounds[k] is the log length after the first
// k statements (bounds[0] is the bare segment header).
func runTrace(t *testing.T, dir string, stmts []string) (string, []byte, []int64) {
	t.Helper()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const segHdr = 16 // magic + first-sequence header of a fresh segment
	bounds := []int64{segHdr}
	segPath := ""
	for _, s := range stmts {
		mustExec(t, db, s)
		path, off := db.dur.log.Position()
		if segPath == "" {
			segPath = path
		} else if segPath != path {
			t.Fatalf("trace rotated segments (%s -> %s); test assumes one", segPath, path)
		}
		bounds = append(bounds, off)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != bounds[len(bounds)-1] {
		t.Fatalf("segment is %d bytes, last boundary %d", len(whole), bounds[len(bounds)-1])
	}
	return segPath, whole, bounds
}

// crashDir materializes a copy of the WAL with the given byte image in
// a fresh directory, simulating a crash that persisted exactly those
// bytes.
func crashDir(t *testing.T, segName string, image []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName), image, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// reopenAndCompare recovers a DB from the image and checks it equals
// the first k statements of the trace.
func reopenAndCompare(t *testing.T, label, segName string, image []byte, stmts []string, k, d int) {
	t.Helper()
	dir := crashDir(t, segName, image)
	rdb, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer rdb.Close()
	sameDBState(t, label, refDB(t, stmts, k), rdb, d)
}

// TestKillMatrix is the crash-equivalence sweep: truncate the WAL at
// every frame boundary and at random mid-frame offsets, garble bytes
// inside frames, and require recovery to land on exactly the surviving
// statement prefix for 1-, 2-, and 3-dimensional grouping keys.
func TestKillMatrix(t *testing.T) {
	for d := 1; d <= 3; d++ {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			stmts := recoveryTrace(d, int64(100+d))
			segPath, whole, bounds := runTrace(t, t.TempDir(), stmts)
			segName := filepath.Base(segPath)
			r := rand.New(rand.NewSource(int64(7 * d)))

			// Every frame boundary: statements[:k] must survive exactly.
			for k := 0; k <= len(stmts); k++ {
				cut := bounds[k]
				reopenAndCompare(t, fmt.Sprintf("boundary k=%d cut=%d", k, cut),
					segName, whole[:cut], stmts, k, d)
			}
			// Random mid-frame truncations: the torn frame (statement
			// k+1) must vanish, leaving statements[:k].
			for k := 0; k < len(stmts); k++ {
				gap := bounds[k+1] - bounds[k]
				cut := bounds[k] + 1 + r.Int63n(gap-1)
				reopenAndCompare(t, fmt.Sprintf("midframe k=%d cut=%d", k, cut),
					segName, whole[:cut], stmts, k, d)
			}
			// Byte flips inside a frame: the corrupt frame and everything
			// after it must be discarded, never applied.
			for _, k := range []int{0, 2, len(stmts) / 2, len(stmts) - 1} {
				gap := bounds[k+1] - bounds[k]
				pos := bounds[k] + r.Int63n(gap)
				garbled := append([]byte(nil), whole...)
				garbled[pos] ^= 0x41
				reopenAndCompare(t, fmt.Sprintf("garble k=%d pos=%d", k, pos),
					segName, garbled, stmts, k, d)
			}
			// Damage inside the segment header: the whole log is
			// unreadable, recovery yields an empty database.
			headerless := append([]byte(nil), whole...)
			headerless[3] ^= 0xFF
			reopenAndCompare(t, "garbled header", segName, headerless, stmts, 0, d)
		})
	}
}

// TestRecoverySnapshotFallback crashes a checkpoint: the newest
// snapshot is corrupted on disk, and recovery must fall back to the
// previous one plus a longer WAL tail, reporting the skip.
func TestRecoverySnapshotFallback(t *testing.T) {
	const d = 2
	stmts := recoveryTrace(d, 42)
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stmts {
		mustExec(t, db, s)
		if i == 3 || i == 7 {
			mustExec(t, db, "CHECKPOINT")
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := snapshot.List(dir)
	if err != nil || len(infos) != 2 {
		t.Fatalf("snapshots after two checkpoints: %v, %v", infos, err)
	}
	newest := infos[len(infos)-1].Path
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x55
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	rdb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	info := rdb.Recovery()
	if info.SnapshotsSkipped != 1 {
		t.Fatalf("SnapshotsSkipped = %d, want 1", info.SnapshotsSkipped)
	}
	if info.SnapshotSeq != infos[0].Seq {
		t.Fatalf("recovered from seq %d, want fallback %d", info.SnapshotSeq, infos[0].Seq)
	}
	if info.RecordsReplayed == 0 {
		t.Fatal("fallback recovery replayed no WAL tail")
	}
	sameDBState(t, "snapshot fallback", refDB(t, stmts, len(stmts)), rdb, d)
}

// TestRecoveryIncrementalEvaluators caches every grouping of the query
// matrix, checkpoints, writes on, and reopens: the checkpoint holds the
// tables only, so the reopened cache is empty, the first incremental
// query of each grouping builds it from every row of its table, and
// every answer equals a cold engine's after each further statement of
// the trace.
func TestRecoveryIncrementalEvaluators(t *testing.T) {
	const d = 2
	queries := recoveryQueries(d)
	stmts := recoveryTrace(d, 7)
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "SET incremental = on")
	for i, s := range stmts[:9] {
		mustExec(t, db, s)
		if i == 6 {
			for _, q := range queries {
				mustQuery(t, db, q)
			}
			mustExec(t, db, "CHECKPOINT")
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rdb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	info := rdb.Recovery()
	if info.SnapshotPath == "" || info.RecordsReplayed == 0 {
		t.Fatalf("recovery = %+v, want a snapshot and a replayed tail", info)
	}
	if info.EvaluatorsRestored != 0 || rdb.cache.len() != 0 {
		t.Fatalf("EvaluatorsRestored = %d, cache holds %d entries: want both 0", info.EvaluatorsRestored, rdb.cache.len())
	}
	n, err := rdb.TableLen("pts")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		var st Stats
		if _, err := rdb.QueryOpt(q, QueryOptions{Algorithm: GridIndex, Incremental: true, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		if st.PointsExtracted != int64(n) {
			t.Fatalf("%q: the first query after the reopen extracted %d rows, want all %d", q, st.PointsExtracted, n)
		}
	}
	mustExec(t, rdb, "SET incremental = on")
	for k := 9; k <= len(stmts); k++ {
		if k > 9 {
			mustExec(t, rdb, stmts[k-1])
		}
		sameDBState(t, fmt.Sprintf("after statement %d", k), refDB(t, stmts, k), rdb, d)
	}
}

// TestRecoveryParentCheckpoint restores a directory written by the
// commit before the SGB-All grid finder switched from range to
// anchor-cell registration (testdata/parent-checkpoint: the first seven
// statements of recoveryTrace(2, 7) under SET incremental = on, the
// whole query matrix cached, then CHECKPOINT). The fixture's checkpoint
// still holds that commit's serialized evaluators, which Load now skips
// whole: its tables must load, and every answer must equal a cold
// engine's after each further statement.
func TestRecoveryParentCheckpoint(t *testing.T) {
	const d = 2
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/parent-checkpoint/*")
	if err != nil || len(files) != 2 {
		t.Fatalf("fixture files: %v, %v", files, err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rdb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if info := rdb.Recovery(); info.SnapshotPath == "" || info.SnapshotsSkipped != 0 || info.EvaluatorsRestored != 0 {
		t.Fatalf("recovery = %+v, want the tables of the newest snapshot and no evaluators", info)
	}
	stmts := recoveryTrace(d, 7)
	mustExec(t, rdb, "SET incremental = on")
	for k := 7; k <= len(stmts); k++ {
		if k > 7 {
			mustExec(t, rdb, stmts[k-1])
		}
		sameDBState(t, fmt.Sprintf("after statement %d", k), refDB(t, stmts, k), rdb, d)
	}
}

// TestAutoCheckpoint checks SET checkpoint_every triggers snapshots
// from the log-append path.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "SET checkpoint_every = 4")
	mustExec(t, db, "CREATE TABLE kv (k INT, v FLOAT)")
	for i := 0; i < 7; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d.5)", i, i))
	}
	infos, err := snapshot.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("8 records at checkpoint_every=4 left %d snapshots, want 2", len(infos))
	}
}

// TestDurabilityStatementsInMemory checks the persistent-only
// statements fail cleanly on an in-memory database.
func TestDurabilityStatementsInMemory(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CHECKPOINT"); err == nil {
		t.Error("CHECKPOINT succeeded in memory")
	}
	if _, err := db.Exec("SET durability = always"); err == nil {
		t.Error("SET durability succeeded in memory")
	}
	if _, err := db.Exec("SET checkpoint_every = 10"); err == nil {
		t.Error("SET checkpoint_every succeeded in memory")
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close of in-memory DB: %v", err)
	}
}

// TestDurabilityPolicies exercises SET durability transitions and the
// interval/off policies end to end (crash coverage for those lives in
// the wal package's fault tests; here the full stack must accept and
// survive them).
func TestDurabilityPolicies(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE kv (k INT, v FLOAT)")
	for i, policy := range []string{"interval", "off", "always"} {
		mustExec(t, db, "SET durability = "+policy)
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0.5)", i))
	}
	if _, err := db.Exec("SET durability = sometimes"); err == nil {
		t.Error("bogus durability value accepted")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	n, err := rdb.TableLen("kv")
	if err != nil || n != 3 {
		t.Fatalf("recovered kv has %d rows (%v), want 3", n, err)
	}
}

// TestIncrCacheBounded is the regression test for the LRU cap: the
// cache must never exceed incr_cache_size, evicting least recently
// used entries first.
func TestIncrCacheBounded(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE s (id INT, x FLOAT, y FLOAT)")
	for i := 0; i < 30; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO s VALUES (%d, %d.25, %d.75)", i, i%6, i%5))
	}
	mustExec(t, db, "SET incremental = on")
	mustExec(t, db, "SET incr_cache_size = 2")
	// DISTANCE-TO-ALL keys ε, so the four statements are four entries
	// (every DISTANCE-TO-ANY ε of one grouping is a level of one entry).
	q := func(eps int) string {
		return fmt.Sprintf("SELECT count(*) FROM s GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN %d ON-OVERLAP ELIMINATE", eps)
	}
	for eps := 1; eps <= 4; eps++ {
		mustQuery(t, db, q(eps))
		if want := min(eps, 2); db.cache.len() != want {
			t.Fatalf("after %d distinct groupings the cache holds %d entries with cap 2, want %d", eps, db.cache.len(), want)
		}
	}
	// The two most recent groupings (eps 3, 4) must be the survivors:
	// re-running them keeps the cache unchanged, while an evicted one
	// rebuilds (still within cap).
	survivors := make(map[incrKey]*incrEntry, db.cache.len())
	for _, it := range db.cache.items() {
		survivors[it.key] = it.e
	}
	mustQuery(t, db, q(3))
	mustQuery(t, db, q(4))
	for _, it := range db.cache.items() {
		if survivors[it.key] != it.e {
			t.Fatalf("recently used entry %v was evicted", it.key)
		}
	}
	// Shrinking the cap evicts immediately.
	mustExec(t, db, "SET incr_cache_size = 1")
	if db.cache.len() != 1 {
		t.Fatalf("cache holds %d entries after shrinking cap to 1", db.cache.len())
	}
	if _, err := db.Exec("SET incr_cache_size = 0"); err == nil {
		t.Error("incr_cache_size 0 accepted")
	}
}
