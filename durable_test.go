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
