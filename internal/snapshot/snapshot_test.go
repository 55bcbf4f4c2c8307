package snapshot

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

// sampleSnapshot builds a snapshot with two tables, one of them empty.
func sampleSnapshot(t *testing.T, seq uint64) *Snapshot {
	t.Helper()
	pts := storage.NewTable("pts", storage.Schema{
		{Name: "id", Type: types.KindInt},
		{Name: "x", Type: types.KindFloat},
		{Name: "y", Type: types.KindFloat},
		{Name: "tag", Type: types.KindText},
	})
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		pts.MustInsert(types.Row{
			types.Int(int64(i)),
			types.Float(float64(r.Intn(8)) + 0.5*r.Float64()),
			types.Float(float64(r.Intn(8)) + 0.5*r.Float64()),
			types.Text("t"),
		})
	}
	empty := storage.NewTable("empty", storage.Schema{{Name: "v", Type: types.KindFloat}})
	return &Snapshot{Seq: seq, Tables: []*storage.Table{pts, empty}}
}

// sameTables fails unless got holds want's tables: names, schemas and
// rows.
func sameTables(t *testing.T, got, want []*storage.Table) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tables = %d, want %d", len(got), len(want))
	}
	for i, wt := range want {
		gt := got[i]
		if gt.Name != wt.Name || !reflect.DeepEqual(gt.Schema, wt.Schema) {
			t.Fatalf("table %d header mismatch", i)
		}
		if len(gt.Rows) != len(wt.Rows) {
			t.Fatalf("table %s rows = %d, want %d", wt.Name, len(gt.Rows), len(wt.Rows))
		}
		for j := range wt.Rows {
			if !reflect.DeepEqual(gt.Rows[j], wt.Rows[j]) {
				t.Fatalf("table %s row %d mismatch", wt.Name, j)
			}
		}
	}
}

// entrySection returns where a snapshot file's evaluator-entry count
// starts: past the header and the tables.
func entrySection(t *testing.T, b []byte) int {
	t.Helper()
	hdr := len(magic) + 4 + 8
	d := wal.NewDecoder(b[hdr : len(b)-4])
	decodeTables(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	return len(b) - 4 - d.Len()
}

// TestWriteLoadRoundTrip: a written file holds its tables and an
// evaluator-entry count of zero, and loads back to the same tables.
func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleSnapshot(t, 37)
	path, err := Write(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if at := entrySection(t, b); at != len(b)-8 || binary.LittleEndian.Uint32(b[at:]) != 0 {
		t.Fatalf("the entry section at %d of %d bytes is not one zero count", at, len(b))
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq {
		t.Fatalf("seq = %d, want %d", got.Seq, want.Seq)
	}
	sameTables(t, got.Tables, want.Tables)
}

// TestLegacyEntriesSkipped loads the parent-checkpoint fixture, written
// when checkpoints also held the cached evaluators: its entry section
// is skipped whole and its tables load, while a byte flipped inside
// that section still fails Load on the CRC.
func TestLegacyEntriesSkipped(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/parent-checkpoint/snap-*.ck")
	if err != nil || len(paths) != 1 {
		t.Fatalf("fixture: %v, %v", paths, err)
	}
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	at := entrySection(t, b)
	if binary.LittleEndian.Uint32(b[at:]) == 0 || at+4 >= len(b)-4 {
		t.Fatal("the fixture holds no evaluator entries")
	}
	s, err := Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	d := wal.NewDecoder(b[len(magic)+4+8 : at])
	sameTables(t, s.Tables, decodeTables(d))
	var names []string
	for _, tab := range s.Tables {
		names = append(names, tab.Name)
	}
	if strings.Join(names, ",") != "aux,pts" || s.Tables[1].Len() == 0 {
		t.Fatalf("fixture tables %v", names)
	}

	dir := t.TempDir()
	for _, pos := range []int{at, at + 4, (at + len(b) - 4) / 2, len(b) - 5} {
		garbled := append([]byte(nil), b...)
		garbled[pos] ^= 0x41
		path := filepath.Join(dir, filepath.Base(paths[0]))
		if err := os.WriteFile(path, garbled, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("flip at %d of the entry section [%d, %d): %v", pos, at, len(b)-4, err)
		}
	}
}

// TestCorruptionDetection flips or truncates bytes across the file and
// checks Load always fails — a snapshot is all-or-nothing.
func TestCorruptionDetection(t *testing.T) {
	dir := t.TempDir()
	path, err := Write(dir, sampleSnapshot(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	step := len(whole)/97 + 1
	for pos := 0; pos < len(whole); pos += step {
		garbled := append([]byte(nil), whole...)
		garbled[pos] ^= 0x41
		if err := os.WriteFile(path, garbled, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("flip at %d: corrupt snapshot loaded", pos)
		}
	}
	for cut := 0; cut < len(whole); cut += step {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("truncation at %d: torn snapshot loaded", cut)
		}
	}
}

// TestLatestFallsBack corrupts the newest snapshot and checks Latest
// returns the previous one, reporting the skip.
func TestLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, sampleSnapshot(t, 10)); err != nil {
		t.Fatal(err)
	}
	newest, err := Write(dir, sampleSnapshot(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, path, skipped, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || s.Seq != 10 {
		t.Fatalf("Latest fell back to %+v, want seq 10", s)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if path != Path(dir, 10) {
		t.Fatalf("path = %s", path)
	}
}

func TestLatestEmpty(t *testing.T) {
	s, path, skipped, err := Latest(t.TempDir() + "/nonexistent")
	if err != nil || s != nil || path != "" || skipped != 0 {
		t.Fatalf("Latest on missing dir: %v %v %q %d", s, err, path, skipped)
	}
}

func TestPruneRetention(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{3, 9, 15, 22} {
		if _, err := Write(dir, &Snapshot{Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	floor, err := Prune(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 15 {
		t.Fatalf("retained floor = %d, want 15", floor)
	}
	infos, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Seq != 15 || infos[1].Seq != 22 {
		t.Fatalf("retained %+v", infos)
	}
}
