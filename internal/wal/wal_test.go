package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/types"
)

func sampleRecords() []Record {
	return []Record{
		CreateTable{Name: "pts", Cols: []ColDef{{Name: "id", Kind: types.KindInt}, {Name: "x", Kind: types.KindFloat}}},
		Insert{Table: "pts", Rows: []types.Row{
			{types.Int(1), types.Float(2.5)},
			{types.Int(2), types.Null()},
		}},
		Insert{Table: "pts", Rows: []types.Row{
			{types.Int(3), types.Float(-0.25)},
		}},
		Delete{Table: "pts", Idx: []int{0, 2}},
		DropTable{Name: "pts"},
	}
}

// replayAll collects every record in dir after fromSeq.
func replayAll(t *testing.T, dir string, fromSeq uint64) []Record {
	t.Helper()
	out := []Record{} // non-nil so DeepEqual against recs[:0] holds
	if _, err := Replay(dir, fromSeq, func(seq uint64, rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		payload := EncodeRecord(rec)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("DecodeRecord(%T): %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip mismatch: got %#v want %#v", got, rec)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	values := []types.Value{
		types.Null(), types.Int(-7), types.Int(1 << 60), types.Float(3.14159),
		types.Float(-0.0), types.Text(""), types.Text("héllo, wörld"),
		types.Bool(true), types.Bool(false), types.Date(20000), types.Interval(13, 2.5),
	}
	b := AppendRow(nil, values)
	d := NewDecoder(b)
	got := d.Row()
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, types.Row(values)) {
		t.Fatalf("row mismatch:\n got %#v\nwant %#v", got, values)
	}
	if d.Len() != 0 {
		t.Fatalf("%d trailing bytes", d.Len())
	}
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for i, rec := range recs {
		seq, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("seq = %d, want %d", seq, want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir, 0); !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay mismatch:\n got %#v\nwant %#v", got, recs)
	}
	// Partial replay skips the covered prefix.
	if got := replayAll(t, dir, 3); !reflect.DeepEqual(got, recs[3:]) {
		t.Fatalf("tail replay mismatch: got %#v", got)
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every frame rotates.
	l, err := Open(dir, Options{Policy: SyncOff, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := segmentCount(t, dir); got != len(recs) {
		t.Fatalf("segments = %d, want %d", got, len(recs))
	}
	// Prune through seq 3: segments holding frames 1..3 go, 4..5 stay.
	if err := l.Prune(3); err != nil {
		t.Fatal(err)
	}
	if got := segmentCount(t, dir); got != 2 {
		t.Fatalf("segments after prune = %d, want 2", got)
	}
	if got := replayAll(t, dir, 3); !reflect.DeepEqual(got, recs[3:]) {
		t.Fatalf("post-prune tail mismatch: got %#v", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen continues the sequence.
	l2, err := Open(dir, Options{Policy: SyncOff, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != uint64(len(recs)) {
		t.Fatalf("LastSeq = %d, want %d", l2.LastSeq(), len(recs))
	}
	if seq, err := l2.Append(DropTable{Name: "x"}); err != nil || seq != uint64(len(recs)+1) {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
}

func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

// TestTornTailRecovery truncates the log at every byte offset of its
// single segment and checks the reader always recovers the longest
// prefix of full frames — never an error, never a partial record.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	boundaries := []int64{int64(segHdrLen)}
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		_, off := l.Position()
		boundaries = append(boundaries, off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, readSingleSegment(t, dir))
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(0); cut <= int64(len(whole)); cut++ {
		sub := t.TempDir()
		subSeg := filepath.Join(sub, filepath.Base(segPath))
		if err := os.WriteFile(subSeg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// How many full frames survive the cut?
		want := 0
		for want < len(recs) && boundaries[want+1] <= cut {
			want++
		}
		got := replayAll(t, sub, 0)
		if cut < int64(segHdrLen) {
			want = 0 // unreadable header: empty log
		}
		if len(got) != want {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), want)
		}
		if !reflect.DeepEqual(got, recs[:want]) {
			t.Fatalf("cut %d: record mismatch", cut)
		}
		// Open must repair the tail and then append cleanly.
		l2, err := Open(sub, Options{Policy: SyncOff})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if _, err := l2.Append(DropTable{Name: "t"}); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		l2.Close()
		after := replayAll(t, sub, 0)
		if len(after) != want+1 {
			t.Fatalf("cut %d: after repair+append got %d records, want %d", cut, len(after), want+1)
		}
	}
}

// TestGarbledFrameDetection flips one byte at a time across the
// segment and checks the reader never yields a wrong record: every
// replayed prefix must match the original records.
func TestGarbledFrameDetection(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, readSingleSegment(t, dir))
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(whole); pos++ {
		garbled := append([]byte(nil), whole...)
		garbled[pos] ^= 0x5A
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(segPath)), garbled, 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, sub, 0)
		if len(got) > len(recs) {
			t.Fatalf("pos %d: replayed %d records from %d-record log", pos, len(got), len(recs))
		}
		if !reflect.DeepEqual(got, recs[:len(got)]) {
			t.Fatalf("pos %d: corrupt record slipped through", pos)
		}
	}
}

func readSingleSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, found %d", len(segs))
	}
	return filepath.Base(segs[0].path)
}

func TestFaultInjectionTornWrite(t *testing.T) {
	for _, garble := range []bool{false, true} {
		recs := sampleRecords()
		// First, measure the clean stream length.
		clean := t.TempDir()
		l, err := Open(clean, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		_, total := l.Position()
		l.Close()

		for cut := int64(0); cut < total; cut += 7 {
			ff := NewFaultFile()
			ff.FailWriteAt = cut
			ff.Garble = garble
			dir := t.TempDir()
			fl, err := Open(dir, Options{Policy: SyncOff, OpenFile: ff.Wrap(defaultOpen)})
			if err != nil {
				t.Fatal(err)
			}
			var appendErr error
			applied := 0
			for _, rec := range recs {
				if _, err := fl.Append(rec); err != nil {
					appendErr = err
					break
				}
				applied++
			}
			if appendErr == nil {
				t.Fatalf("cut %d: fault never tripped", cut)
			}
			if !errors.Is(appendErr, ErrInjected) && !errors.Is(appendErr, ErrLogFailed) {
				t.Fatalf("cut %d: unexpected error %v", cut, appendErr)
			}
			// The log is poisoned: later appends fail fast.
			if _, err := fl.Append(DropTable{Name: "x"}); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("cut %d: poisoned log accepted append: %v", cut, err)
			}
			// Recovery yields a prefix of the applied records.
			got := replayAll(t, dir, 0)
			if len(got) > applied {
				t.Fatalf("cut %d: recovered %d records but only %d were acked", cut, len(got), applied)
			}
			if !reflect.DeepEqual(got, recs[:len(got)]) {
				t.Fatalf("cut %d: recovered records diverge", cut)
			}
		}
	}
}

func TestFaultInjectionFailedSync(t *testing.T) {
	ff := NewFaultFile()
	ff.FailSyncN = 2
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways, OpenFile: ff.Wrap(defaultOpen)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(DropTable{Name: "a"}); err != nil {
		t.Fatalf("first append (sync 1): %v", err)
	}
	if _, err := l.Append(DropTable{Name: "b"}); !errors.Is(err, ErrInjected) && !errors.Is(err, ErrLogFailed) {
		t.Fatalf("second append should fail its sync, got %v", err)
	}
	if _, err := l.Append(DropTable{Name: "c"}); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("log should be poisoned after failed sync, got %v", err)
	}
	// Both frames were written (the sync, not the write, failed);
	// recovery may surface them — but never anything else.
	got := replayAll(t, dir, 0)
	want := []Record{DropTable{Name: "a"}, DropTable{Name: "b"}}
	if !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatalf("recovered %#v", got)
	}
}

func defaultOpen(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

// TestAppendRefusesOversizedRecord: a payload past maxFrame would be
// written and then read back as a torn tail, silently discarding it and
// every acknowledged record after it. Append must refuse it up front —
// typed, nothing written, log still usable.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 64 MiB record")
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()[:2]
	if _, err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	segBytes := func() []byte {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
		if err != nil || len(names) != 1 {
			t.Fatalf("segments = %v, %v", names, err)
		}
		b, err := os.ReadFile(names[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := segBytes()

	_, err = l.Append(DropTable{Name: strings.Repeat("x", maxFrame)})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: err = %v, want ErrTooLarge", err)
	}
	if errors.Is(err, ErrLogFailed) {
		t.Fatalf("oversized append poisoned the log: %v", err)
	}
	if l.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d after refused append, want 1", l.LastSeq())
	}
	if after := segBytes(); !bytes.Equal(after, before) {
		t.Fatalf("refused append changed the segment: %d -> %d bytes", len(before), len(after))
	}

	seq, err := l.Append(recs[1])
	if err != nil || seq != 2 {
		t.Fatalf("append after refusal: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir, 0); !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay after refusal:\n got %#v\nwant %#v", got, recs)
	}
}

func TestSetPolicy(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(DropTable{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := l.SetPolicy(SyncAlways); err != nil {
		t.Fatal(err)
	}
	if l.Policy() != SyncAlways {
		t.Fatalf("policy = %v", l.Policy())
	}
}
