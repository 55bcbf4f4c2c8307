package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/sgb-db/sgb/internal/types"
)

// fuzzSeedSegment builds a well-formed segment holding the sample
// records — the honest-log seed the fuzzer mutates.
func fuzzSeedSegment() []byte {
	b := make([]byte, segHdrLen)
	copy(b, segMagic)
	binary.LittleEndian.PutUint64(b[len(segMagic):], 1)
	for _, rec := range sampleRecords() {
		payload := EncodeRecord(rec)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		b = append(b, payload...)
	}
	return b
}

// FuzzWALReader feeds arbitrary bytes to the segment reader as a
// segment file. The reader must never panic, never return an error for
// mere corruption (it stops cleanly instead), and any records it does
// yield must decode consistently on a second pass (determinism).
func FuzzWALReader(f *testing.F) {
	seed := fuzzSeedSegment()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])  // torn final frame
	f.Add(seed[:segHdrLen])    // header only
	f.Add([]byte{})            // empty file
	f.Add([]byte("SGBWAL1\n")) // magic, no sequence
	garbled := append([]byte(nil), seed...)
	garbled[segHdrLen+5] ^= 0x10 // corrupt first frame's CRC region
	f.Add(garbled)
	short := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(short[segHdrLen:], 1<<30) // absurd length
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segPrefix+"00000000000000000001"+segSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		var first []Record
		if _, err := Replay(dir, 0, func(seq uint64, rec Record) error {
			first = append(first, rec)
			return nil
		}); err != nil {
			t.Fatalf("Replay returned error on corrupt input: %v", err)
		}
		var second []Record
		if _, err := Replay(dir, 0, func(seq uint64, rec Record) error {
			second = append(second, rec)
			return nil
		}); err != nil {
			t.Fatalf("second Replay: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("non-deterministic replay")
		}
		// Open must also cope: repair the tail, stay appendable.
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		if _, err := l.Append(DropTable{Name: "fz"}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		l.Close()
	})
}

// FuzzRecordDecode hammers the record codec directly: arbitrary
// payloads must decode or error, never panic, and successful decodes
// must re-encode to a decodable record.
func FuzzRecordDecode(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(EncodeRecord(rec))
	}
	f.Add([]byte{byte(RecInsert)})
	f.Add([]byte{0xFF, 0x00})
	f.Add(hostileInsert())
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		re := EncodeRecord(rec)
		rec2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("decode/encode/decode mismatch")
		}
	})
}

// hostileInsert is an Insert record announcing 2²⁶ rows whose first row
// announces 2²⁶ values, and carrying none of them.
func hostileInsert() []byte {
	b := AppendString([]byte{byte(RecInsert)}, "pts")
	return AppendU32(AppendU32(b, 1<<26), 1<<26)
}

// TestDecodeRowHostileCount: an announced value count reserves nothing
// — the row is bounded by the bytes that remain, not by the 48 bytes
// per announced value (3 GiB here) the count alone would ask for.
func TestDecodeRowHostileCount(t *testing.T) {
	payload := hostileInsert()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRecord(payload)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("got %v, want a truncation error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d", len(payload), got)
	}
}

// TestTypesRowAlias pins the codec's assumption that types.Row is a
// value slice (the decoder rebuilds rows without aliasing the input).
func TestTypesRowAlias(t *testing.T) {
	row := types.Row{types.Int(1)}
	b := AppendRow(nil, row)
	d := NewDecoder(b)
	got := d.Row()
	row[0] = types.Int(2)
	if got[0].I != 1 {
		t.Fatal("decoded row aliases the encoder input")
	}
}
