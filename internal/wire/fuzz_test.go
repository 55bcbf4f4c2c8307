package wire

import (
	"bytes"
	"errors"
	"testing"

	"github.com/sgb-db/sgb/internal/types"
)

// Fuzz targets for everything a peer controls: the frame reader and
// the two payload decoders. A plain `go test` runs each against its
// seeds only, which is what CI gates on.

// seedPayloads is one well-formed payload per message type.
func seedPayloads() [][]byte {
	return [][]byte{
		EncodeQuery("SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"),
		EncodeRows([]string{"eps", "n"}, []types.Row{
			{types.Float(0.5), types.Int(3)},
			{types.Null(), types.Text("grouped")},
			{types.Bool(true), types.Interval(2, 1.5)},
		}),
		EncodeRows(nil, nil),
		EncodeCount(42),
		EncodeErr(errors.New("sgb: no such table")),
	}
}

// addPayloadSeeds seeds a payload decoder: every prefix of every
// well-formed payload (so each field boundary is a cut), the
// hostile-count payloads, an unknown type and trailing garbage.
func addPayloadSeeds(f *testing.F) {
	for _, p := range seedPayloads() {
		for cut := 0; cut <= len(p); cut++ {
			f.Add(p[:cut])
		}
		f.Add(append(p[:len(p):len(p)], 0))
	}
	f.Add(hostileRows)
	f.Add(hostileRow)
	f.Add(hostileCols)
	f.Add([]byte{0x7F})
}

// reencode encodes a decoded response the way a server would have.
func reencode(resp *Response) []byte {
	switch {
	case resp.Err != "":
		return EncodeErr(errors.New(resp.Err))
	case resp.Columns != nil:
		return EncodeRows(resp.Columns, resp.Data)
	}
	return EncodeCount(resp.Count)
}

// FuzzDecodeResponse: any payload decodes or errors without panicking,
// allocation stays proportional to the payload (a decoded value is at
// most 48 bytes per input byte), and whatever decodes survives
// EncodeRows / EncodeCount / EncodeErr → DecodeResponse unchanged.
func FuzzDecodeResponse(f *testing.F) {
	addPayloadSeeds(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp *Response
		var err error
		if got, limit := allocatedBy(func() { resp, err = DecodeResponse(payload) }), uint64(64*len(payload)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), got, limit)
		}
		if err != nil {
			return
		}
		// Compared as bytes: NaN coordinates are legal and never
		// DeepEqual themselves.
		once := reencode(resp)
		again, err := DecodeResponse(once)
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if twice := reencode(again); !bytes.Equal(once, twice) {
			t.Fatalf("encode/decode/encode mismatch:\n%x\n%x", once, twice)
		}
	})
}

// FuzzDecodeQuery: any payload decodes or errors without panicking,
// and the encoding is canonical — what decodes re-encodes to itself.
func FuzzDecodeQuery(f *testing.F) {
	addPayloadSeeds(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var sql string
		var err error
		if got, limit := allocatedBy(func() { sql, err = DecodeQuery(payload) }), uint64(len(payload)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), got, limit)
		}
		if err == nil && !bytes.Equal(EncodeQuery(sql), payload) {
			t.Fatalf("query %q re-encodes differently from its %d-byte payload", sql, len(payload))
		}
	})
}

// FuzzReadFrame: any byte stream yields frames and then one error,
// never a panic; every frame returned re-frames to exactly the bytes
// it was read from; and the reader never holds more than readStep plus
// a small multiple of what the stream actually carried, whatever its
// headers announce.
func FuzzReadFrame(f *testing.F) {
	var stream []byte
	for _, p := range append(seedPayloads(), hostileRows, hostileRow, hostileCols) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, p); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(frame)
		f.Add(frame[:4])            // length, no checksum
		f.Add(frame[:frameHdr])     // header, no payload
		f.Add(frame[:len(frame)-1]) // torn payload
		flipped := bytes.Clone(frame)
		flipped[5] ^= 0x10 // checksum no longer matches
		f.Add(flipped)
		stream = append(stream, frame...)
	}
	f.Add(stream) // back-to-back frames
	f.Add([]byte{})
	f.Add(announce(MaxFrame))                    // 64 MiB announced, nothing sent
	f.Add(announce(MaxFrame + 1))                // over the limit
	f.Add(append(announce(MaxFrame), stream...)) // 64 MiB announced, a little sent

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		got := allocatedBy(func() {
			for {
				start := len(data) - r.Len()
				payload, err := ReadFrame(r)
				if err != nil {
					return
				}
				var buf bytes.Buffer
				if err := WriteFrame(&buf, payload); err != nil {
					t.Fatalf("frame read at %d does not re-frame: %v", start, err)
				}
				if end := len(data) - r.Len(); !bytes.Equal(buf.Bytes(), data[start:end]) {
					t.Fatalf("frame at [%d,%d) re-frames differently", start, end)
				}
			}
		})
		// Reading costs ≤ 2× the stream, re-framing it in the check
		// above another 3× (payload copy + bytes.Buffer growth).
		if limit := uint64(readStep + 8*len(data) + 64<<10); got > limit {
			t.Fatalf("reading a %d-byte stream allocated %d (limit %d)", len(data), got, limit)
		}
	})
}
