package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		{0x42},
		bytes.Repeat([]byte("similarity"), 100),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %x, want %x", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean end of stream: got %v, want io.EOF", err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("the payload under test")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload bit: the checksum must catch it.
	raw[len(raw)-1] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt payload: got %v, want checksum mismatch", err)
	}
}

func TestFrameTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("cut short")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{1, 5, len(raw) - 1} {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("truncation at %d bytes: got %v, want a mid-frame error", cut, err)
		}
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	// A header announcing an absurd payload must be rejected before any
	// allocation happens.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: got %v, want limit error", err)
	}
	// The writer's refusal is typed and writes nothing, so the caller
	// can still use the stream.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) || buf.Len() != 0 {
		t.Fatalf("oversize write: got %v after %d bytes, want ErrFrameTooLarge and nothing written", err, buf.Len())
	}
}

func TestQueryRoundTrip(t *testing.T) {
	const sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.5"
	got, err := DecodeQuery(EncodeQuery(sql))
	if err != nil {
		t.Fatal(err)
	}
	if got != sql {
		t.Fatalf("got %q, want %q", got, sql)
	}
	if _, err := DecodeQuery(EncodeCount(3)); err == nil {
		t.Fatal("count frame decoded as query")
	}
	if _, err := DecodeQuery(append(EncodeQuery("x"), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cols := []string{"eps", "count"}
	rows := []types.Row{
		{types.Float(0.5), types.Int(3)},
		{types.Float(1.0), types.Int(1)},
		{types.Null(), types.Text("grouped")},
	}
	resp, err := DecodeResponse(EncodeRows(cols, rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Columns, cols) || !reflect.DeepEqual(resp.Data, rows) || resp.Count != len(rows) {
		t.Fatalf("rows response mangled: %+v", resp)
	}

	resp, err = DecodeResponse(EncodeCount(42))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 42 || resp.Err != "" || resp.Data != nil {
		t.Fatalf("count response mangled: %+v", resp)
	}

	resp, err = DecodeResponse(EncodeErr(errors.New("sgb: no such table")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "sgb: no such table" {
		t.Fatalf("error response mangled: %+v", resp)
	}

	if _, err := DecodeResponse([]byte{0x7F}); err == nil {
		t.Fatal("unknown message type accepted")
	}
	if _, err := DecodeResponse(append(EncodeCount(1), 9)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// allocatedBy reports the heap bytes fn allocated (freed or not).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// announce is a frame header promising n payload bytes (checksum 0).
func announce(n uint32) []byte {
	hdr := make([]byte, frameHdr)
	binary.LittleEndian.PutUint32(hdr, n)
	return hdr
}

// hostileRows is a MsgRows payload announcing 2²⁶ rows in nine bytes;
// hostileRow adds a first row announcing 2²⁶ values; hostileCols
// announces 2²⁶ column names instead. None carries a single element.
var (
	hostileRows = wal.AppendU32(wal.AppendU32([]byte{MsgRows}, 0), 1<<26)
	hostileRow  = wal.AppendU32(hostileRows[:len(hostileRows):len(hostileRows)], 1<<26)
	hostileCols = wal.AppendU32([]byte{MsgRows}, 1<<26)
)

// TestDecodeResponseHostileCounts: an announced count reserves
// nothing — unbounded, these payloads would cost the client 24 or 48
// bytes per announced element (1.5 and 3 GiB) to report "truncated".
func TestDecodeResponseHostileCounts(t *testing.T) {
	for _, p := range [][]byte{hostileRows, hostileRow, hostileCols} {
		var err error
		got := allocatedBy(func() { _, err = DecodeResponse(p) })
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%x: got %v, want a truncation error", p, err)
		}
		if got > 1<<20 {
			t.Errorf("%x: decoding %d bytes allocated %d", p, len(p), got)
		}
	}
}

// TestReadFrameAllocatesAsBytesArrive: a header announcing MaxFrame
// and then nothing must not reserve MaxFrame, and is a mid-frame
// truncation, not a clean end of stream.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var err error
	got := allocatedBy(func() { _, err = ReadFrame(bytes.NewReader(announce(MaxFrame))) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header then EOF: got %v, want a mid-frame truncation", err)
	}
	if got > 2<<20 {
		t.Fatalf("an 8-byte header allocated %d bytes", got)
	}

	// A payload of several steps still arrives whole, whatever the
	// reader's chunking, and a cut inside it is still a truncation.
	big := bytes.Repeat([]byte("0123456789abcdef"), (3*readStep+readStep/2)/16)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	p, err := ReadFrame(iotest.OneByteReader(bytes.NewReader(raw[:frameHdr+5])))
	if p != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut after 5 payload bytes: got %d bytes, %v", len(p), err)
	}
	if _, err := ReadFrame(bytes.NewReader(raw[:frameHdr+2*readStep])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut on a step boundary: got %v, want a mid-frame truncation", err)
	}
	p, err = ReadFrame(iotest.HalfReader(bytes.NewReader(raw)))
	if err != nil || !bytes.Equal(p, big) {
		t.Fatalf("%d-byte frame: got %d bytes, %v", len(big), len(p), err)
	}
}
