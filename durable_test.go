package sgb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/incr"
	"github.com/sgb-db/sgb/internal/snapshot"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

// csvPts renders n rows of a pts table (recoveryTrace's clustered
// coordinates, d = 2) as DumpCSV would, each padded with a 1 KiB note
// so a few thousand rows span several LoadCSV log records.
func csvPts(n int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	pad := strings.Repeat("n", 1024)
	var b strings.Builder
	b.WriteString("id:INT,c1:FLOAT,c2:FLOAT,note:TEXT\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%.4f,%.4f,%s\n", i, float64(r.Intn(6))+0.6*r.Float64(), float64(r.Intn(6))+0.6*r.Float64(), pad)
	}
	return b.String()
}

// TestLoadCSVDurable: a table loaded from CSV into a persistent
// database must be in the log, or the first INSERT into it leaves a
// WAL that cannot be replayed and a directory that cannot be opened.
// With checkpoint_every = 2 an automatic checkpoint fires between the
// load's records and must not duplicate rows.
func TestLoadCSVDurable(t *testing.T) {
	csv := csvPts(2500, 5)
	const tail = "INSERT INTO pts VALUES (100000, 1.5, 2.5, 'tail'), (100001, 4.5, 0.5, 'tail')"
	ref := Open()
	if err := ref.LoadCSV("pts", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, ref, tail)
	for _, every := range []int{defaultCheckpointEvery, 2} {
		t.Run(fmt.Sprintf("checkpoint_every=%d", every), func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, fmt.Sprintf("SET checkpoint_every = %d", every))
			if err := db.LoadCSV("pts", strings.NewReader(csv)); err != nil {
				t.Fatal(err)
			}
			if err := db.LoadCSV("pts", strings.NewReader(csv)); err == nil {
				t.Fatal("second LoadCSV of the same table succeeded")
			}
			mustExec(t, db, tail)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			rdb, err := OpenDir(dir)
			if err != nil {
				t.Fatalf("reopen after LoadCSV + INSERT: %v", err)
			}
			defer rdb.Close()
			sameDBState(t, "reopened", ref, rdb, 2)
		})
	}
}

// TestLoadCSVKillMatrix truncates the WAL at every frame boundary of a
// LoadCSV, and inside every frame: recovery must land on the table
// holding a prefix of the file's rows (no table before the CREATE
// frame survives), growing with the cut and complete at the end.
func TestLoadCSVKillMatrix(t *testing.T) {
	csv := csvPts(2500, 9)
	ref := Open()
	if err := ref.LoadCSV("pts", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	refTab, _ := ref.cat.Lookup("pts")
	want, _ := refTab.Snapshot()

	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCSV("pts", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	segPath, end := db.dur.log.Position()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(segPath)
	if err != nil || int64(len(whole)) != end {
		t.Fatalf("segment: %d bytes, position %d, err %v", len(whole), end, err)
	}
	bounds := []int64{16} // the bare segment header
	for off := int64(16); off < end; {
		off += 8 + int64(binary.LittleEndian.Uint32(whole[off:]))
		bounds = append(bounds, off)
	}
	if len(bounds) < 5 {
		t.Fatalf("LoadCSV logged %d records; the test needs a CREATE and at least three INSERT chunks", len(bounds)-1)
	}

	r := rand.New(rand.NewSource(3))
	lastRows := -1
	check := func(label string, cut int64, frames int) {
		t.Helper()
		rdb, err := OpenDir(crashDir(t, filepath.Base(segPath), whole[:cut]))
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		defer rdb.Close()
		tab, err := rdb.cat.Lookup("pts")
		if frames == 0 {
			if err == nil {
				t.Fatalf("%s: table exists before its CREATE frame", label)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, _ := tab.Snapshot()
		if len(got) > len(want) || len(got) > 0 && !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("%s: %d recovered rows are not a prefix of the file", label, len(got))
		}
		if (frames > 1) != (len(got) > 0) || len(got) < lastRows {
			t.Fatalf("%s: %d rows after %d frames (previous cut had %d)", label, len(got), frames, lastRows)
		}
		lastRows = len(got)
	}
	for k := 0; k < len(bounds); k++ {
		check(fmt.Sprintf("boundary %d", k), bounds[k], k)
		if k+1 < len(bounds) {
			cut := bounds[k] + 1 + r.Int63n(bounds[k+1]-bounds[k]-1)
			check(fmt.Sprintf("inside frame %d", k+1), cut, k)
		}
	}
	if lastRows != len(want) {
		t.Fatalf("the untruncated log recovers %d of %d rows", lastRows, len(want))
	}
}

// TestRecoveryNonGridCheckpoint: state cached under SET algorithm =
// rtree | allpairs and SET seed = 5 is checkpointed with those options
// and must keep restoring — DISTANCE-TO-ANY onto the ε-grid, the one
// index it is maintained on, and ELIMINATE under its strategy whatever
// its seed — into the entry a query under seed 0 finds, and then be
// maintained through the replayed tail and further INSERTs and DELETEs
// exactly as a cold engine regroups.
func TestRecoveryNonGridCheckpoint(t *testing.T) {
	const d = 2
	all := recoveryQueries(d)
	// DISTANCE-TO-ANY under L2 and LINF, then ELIMINATE under L2.
	queries := []string{all[0], all[4], all[2]}
	stmts := recoveryTrace(d, 11)
	for _, alg := range []struct {
		set string
		alg Algorithm
	}{{"rtree", OnTheFlyIndex}, {"allpairs", AllPairs}} {
		t.Run(alg.set, func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "SET incremental = on")
			mustExec(t, db, "SET algorithm = "+alg.set)
			mustExec(t, db, "SET seed = 5")
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
			if info := rdb.Recovery(); info.EvaluatorsRestored != len(queries) {
				t.Fatalf("EvaluatorsRestored = %d, want %d", info.EvaluatorsRestored, len(queries))
			}
			for k := 9; k <= len(stmts); k++ {
				if k > 9 {
					mustExec(t, rdb, stmts[k-1])
				}
				ref := refDB(t, stmts, k)
				for qi, q := range queries {
					var st Stats
					got, err := rdb.QueryOpt(q, QueryOptions{Algorithm: alg.alg, Incremental: true, Stats: &st})
					if err != nil {
						t.Fatal(err)
					}
					// The strategy the grouping is maintained by.
					refAlg := GridIndex
					if qi == 2 {
						refAlg = alg.alg
					}
					want, err := ref.QueryOpt(q, QueryOptions{Algorithm: refAlg})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Data, want.Data) {
						t.Fatalf("after statement %d, %q diverges from a cold engine\n want %v\n  got %v", k, q, want.Data, got.Data)
					}
					// Resumed, not rebuilt: only rows the replayed tail
					// inserted past the checkpoint are extracted.
					if n, _ := rdb.TableLen("pts"); k == 9 && st.PointsExtracted >= int64(n) {
						t.Fatalf("%q rebuilt instead of resuming the restored evaluator (%d of %d rows extracted)", q, st.PointsExtracted, n)
					}
				}
			}
		})
	}
}

// TestRecoveryNormalizesKeys: checkpoint entries carry the key their
// writer printed, and older writers printed options that do not change a
// grouping — the strategy of DISTANCE-TO-ANY, the seed outside JOIN-ANY.
// Recovery keys each entry by its state as a build today would be, so
// entries of one grouping restore once, under the options a fresh build
// runs with, and serve warm every session that asks for it; JOIN-ANY
// entries of two seeds stay two.
func TestRecoveryNormalizesKeys(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	loadUniform(t, db, 300, 4)
	anyQ := "SELECT count(*), min(id), max(id) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"
	allQ := func(clause string) string {
		return "SELECT count(*), min(id), max(id) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP " + clause
	}
	if _, err := db.QueryOpt(anyQ, QueryOptions{Algorithm: GridIndex, Incremental: true}); err != nil {
		t.Fatal(err)
	}
	_, by, _ := strings.Cut(db.cache.items()[0].key.fingerprint, "|by=")
	db.cache.clearAll()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.cat.Lookup("pts")
	rows, _ := tab.Snapshot()
	pts := make([]Point, len(rows))
	for i, r := range rows {
		pts[i] = Point{r[1].F, r[2].F}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Six entries in the old key format, for four groupings.
	snap, _, _, err := snapshot.Latest(dir)
	if err != nil || snap == nil {
		t.Fatalf("checkpoint: %v, %v", snap, err)
	}
	type saved struct {
		sem  incr.Semantics
		opt  Options
		algo int
	}
	for _, s := range []saved{
		{incr.Any, Options{Metric: L2, Eps: 0.5, Algorithm: OnTheFlyIndex}, 2},
		{incr.Any, Options{Metric: L2, Eps: 0.5, Algorithm: GridIndex, Seed: 3}, 3},
		{incr.All, Options{Metric: L2, Eps: 0.5, Overlap: Eliminate, Algorithm: GridIndex, Seed: 7}, 3},
		{incr.All, Options{Metric: L2, Eps: 0.5, Overlap: Eliminate, Algorithm: GridIndex}, 3},
		{incr.All, Options{Metric: L2, Eps: 0.5, Overlap: JoinAny, Algorithm: GridIndex, Seed: 7}, 3},
		{incr.All, Options{Metric: L2, Eps: 0.5, Overlap: JoinAny, Algorithm: GridIndex}, 3},
	} {
		inc, err := incr.New(s.sem, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.Append(pts); err != nil {
			t.Fatal(err)
		}
		st, err := inc.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		old := fmt.Sprintf("any=%t|metric=L2|eps=0.5|overlap=%d|algo=%d|seed=%d|hyst=0|nohull=false|by=%s",
			s.sem == incr.Any, s.opt.Overlap, s.algo, s.opt.Seed, by)
		snap.Incr = append(snap.Incr, snapshot.IncrEntry{Table: "pts", Fingerprint: old, Consumed: len(pts), State: st})
	}
	if _, err := snapshot.Write(dir, snap); err != nil {
		t.Fatal(err)
	}

	rdb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := rdb.Recovery().EvaluatorsRestored; got != 4 || rdb.cache.len() != 4 {
		t.Fatalf("EvaluatorsRestored = %d, cache holds %d: want 4 groupings restored", got, rdb.cache.len())
	}
	for _, it := range rdb.cache.items() {
		inc := it.e.ev.(*incr.Incremental)
		any := inc.Semantics() == incr.Any
		if opt := inc.Opt; opt != opt.Maintained(any) {
			t.Errorf("entry %s restored under %+v, not the options its key prints", it.key.fingerprint, opt)
		}
	}
	for _, q := range []struct {
		sql  string
		opts []QueryOptions
	}{
		{anyQ, []QueryOptions{{Algorithm: GridIndex}, {Algorithm: OnTheFlyIndex, Seed: 9}}},
		{allQ("ELIMINATE"), []QueryOptions{{Algorithm: GridIndex}, {Algorithm: GridIndex, Seed: 7}}},
		{allQ("JOIN-ANY"), []QueryOptions{{Algorithm: GridIndex}, {Algorithm: GridIndex, Seed: 7}}},
	} {
		for _, opt := range q.opts {
			want, err := rdb.QueryOpt(q.sql, opt)
			if err != nil {
				t.Fatal(err)
			}
			var st Stats
			opt.Incremental, opt.Stats = true, &st
			got, err := rdb.QueryOpt(q.sql, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Data, want.Data) || st.PointsExtracted != 0 {
				t.Fatalf("%q under seed %d, %v: extracted %d rows; restored answer equal: %t",
					q.sql, opt.Seed, opt.Algorithm, st.PointsExtracted, reflect.DeepEqual(got.Data, want.Data))
			}
		}
	}
	if rdb.cache.len() != 4 {
		t.Fatalf("the queries left %d entries, want the 4 restored", rdb.cache.len())
	}
}

// TestRecoveryCountsLiveEvaluators: a checkpoint may hold more entries
// than the reopened cache keeps (SET incr_cache_size is not persisted),
// and EvaluatorsRestored counts the ones it kept.
func TestRecoveryCountsLiveEvaluators(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	loadUniform(t, db, 200, 8)
	mustExec(t, db, "SET incremental = on")
	mustExec(t, db, "SET incr_cache_size = 16")
	for eps := 1; eps <= 10; eps++ {
		mustQuery(t, db, fmt.Sprintf("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN %d", eps))
	}
	mustExec(t, db, "CHECKPOINT")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got, live := rdb.Recovery().EvaluatorsRestored, rdb.cache.len(); got != live || live != defaultIncrCacheCap {
		t.Fatalf("EvaluatorsRestored = %d with %d entries cached, want both %d", got, live, defaultIncrCacheCap)
	}
}

// TestOversizedRecordCheckpoints: a record the log refuses as too large
// for one frame is made durable by a checkpoint instead, so statements
// logged after it still replay against the state they were applied to.
func TestOversizedRecordCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 64 MiB row")
	}
	dir := t.TempDir()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE blobs (id INT, body TEXT)")
	mustExec(t, db, "INSERT INTO blobs VALUES (1, 'small')")
	tab, err := db.cat.Lookup("blobs")
	if err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{{types.Int(2), types.Text(strings.Repeat("x", 64<<20))}}
	db.wmu.Lock()
	_, err = tab.InsertBatch(rows)
	if err == nil {
		err = db.logRecordLocked(wal.Insert{Table: "blobs", Rows: rows})
	}
	db.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO blobs VALUES (3, 'after')")
	mustExec(t, db, "DELETE FROM blobs WHERE id = 1")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	got := mustQuery(t, rdb, "SELECT id FROM blobs")
	if got.Len() != 2 || got.Data[0][0].I != 2 || got.Data[1][0].I != 3 {
		t.Fatalf("recovered ids = %v, want [2 3]", got.Data)
	}
}
