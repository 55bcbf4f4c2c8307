// Package wire is the framed client/server protocol of the SQL
// engine. It reuses the write-ahead log's framing discipline — every
// message travels as a 4-byte little-endian payload length, a 4-byte
// CRC32C (Castagnoli) of the payload, and the payload itself — so a
// torn or corrupted TCP stream is detected at the frame boundary
// instead of being half-decoded, and the row codec is the WAL's value
// codec verbatim (internal/wal.AppendRow / Decoder).
//
// The conversation is strict request/response: the client sends one
// Query frame (a SQL statement) and reads exactly one response frame —
// Rows for a SELECT, Count for DDL/DML, Err for a failure. Session
// state (SET algorithm, parallelism, incremental, ...) lives
// server-side, one session per connection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

// Message types, the first byte of every frame payload.
const (
	// MsgQuery carries one SQL statement, client to server.
	MsgQuery = byte(1)
	// MsgRows answers a SELECT: column names plus result rows.
	MsgRows = byte(2)
	// MsgCount answers DDL/DML: the affected-row count.
	MsgCount = byte(3)
	// MsgErr answers any failed statement with its error text.
	MsgErr = byte(4)
)

// MaxFrame bounds a frame payload. A peer announcing a larger frame is
// broken or hostile; the reader rejects the frame before allocating.
const MaxFrame = 1 << 26

// ErrFrameTooLarge reports a payload above MaxFrame, on either side of
// the connection. From WriteFrame it means nothing was written: the
// stream is still at a frame boundary and can carry another frame.
var ErrFrameTooLarge = errors.New("wire: frame payload exceeds limit")

// frameHdr is the frame header size: payload length + CRC32C.
const frameHdr = 8

// readStep is the most ReadFrame allocates before a payload byte has
// arrived.
const readStep = 1 << 20

// castagnoli is the CRC32C polynomial table (matching the WAL's frame
// checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFrame writes one framed payload: length, CRC32C, payload. The
// single Write call keeps the frame atomic with respect to the
// net.Conn's own write serialization.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	buf := make([]byte, frameHdr, frameHdr+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one framed payload, verifying its length bound and
// checksum. io.EOF surfaces unchanged when the stream ends cleanly at
// a frame boundary (a closing peer); any mid-frame truncation or
// checksum mismatch is an error.
//
// The payload buffer grows as bytes arrive — readStep first, then
// doubling up to the announced length — so an eight-byte header
// reserves at most readStep, and a peer that stops sending holds no
// more than readStep plus twice what it did send.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHdr]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, n, MaxFrame)
	}
	payload := make([]byte, 0, min(n, readStep))
	for len(payload) < n {
		got := len(payload)
		if got == cap(payload) {
			payload = slices.Grow(payload, min(n-got, got))
		}
		payload = payload[:min(n, cap(payload))]
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return nil, fmt.Errorf("wire: reading %d-byte frame payload: %w", n, err)
		}
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("wire: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// EncodeQuery encodes a SQL statement frame payload.
func EncodeQuery(sql string) []byte {
	b := []byte{MsgQuery}
	return wal.AppendString(b, sql)
}

// DecodeQuery decodes a MsgQuery payload.
func DecodeQuery(payload []byte) (string, error) {
	d := wal.NewDecoder(payload)
	if t := d.Byte(); t != MsgQuery {
		return "", fmt.Errorf("wire: expected query frame, got message type %d", t)
	}
	sql := d.String()
	if err := d.Err(); err != nil {
		return "", err
	}
	if d.Len() != 0 {
		return "", fmt.Errorf("wire: %d trailing bytes after query", d.Len())
	}
	return sql, nil
}

// Response is one decoded server answer. Exactly one shape is
// populated: Columns+Data for a row set, Count for a mutation, Err for
// a failure (the statement-level error, distinct from transport
// errors).
type Response struct {
	Columns []string
	Data    []types.Row
	Count   int
	Err     string
}

// EncodeRows encodes a SELECT answer.
func EncodeRows(cols []string, rows []types.Row) []byte {
	b := []byte{MsgRows}
	b = wal.AppendU32(b, uint32(len(cols)))
	for _, c := range cols {
		b = wal.AppendString(b, c)
	}
	b = wal.AppendU32(b, uint32(len(rows)))
	for _, r := range rows {
		b = wal.AppendRow(b, r)
	}
	return b
}

// EncodeCount encodes a DDL/DML answer.
func EncodeCount(n int) []byte {
	b := []byte{MsgCount}
	return wal.AppendU64(b, uint64(n))
}

// EncodeErr encodes a statement failure.
func EncodeErr(err error) []byte {
	b := []byte{MsgErr}
	return wal.AppendString(b, err.Error())
}

// DecodeResponse decodes any server answer frame.
func DecodeResponse(payload []byte) (*Response, error) {
	d := wal.NewDecoder(payload)
	resp := &Response{}
	switch t := d.Byte(); t {
	case MsgRows:
		// A column name and a row are each at least their 4-byte count,
		// so the bytes that remain bound both slices; the announced
		// counts alone reserve nothing, and a failed decode stops the
		// loop instead of appending to the announced length.
		ncols := d.Count()
		resp.Columns = make([]string, 0, min(ncols, d.Len()/4))
		for i := 0; i < ncols && d.Err() == nil; i++ {
			resp.Columns = append(resp.Columns, d.String())
		}
		nrows := d.Count()
		resp.Data = make([]types.Row, 0, min(nrows, d.Len()/4))
		for i := 0; i < nrows && d.Err() == nil; i++ {
			resp.Data = append(resp.Data, d.Row())
		}
		resp.Count = len(resp.Data)
	case MsgCount:
		resp.Count = int(d.U64())
	case MsgErr:
		resp.Err = d.String()
	default:
		return nil, fmt.Errorf("wire: unknown response message type %d", t)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after response", d.Len())
	}
	return resp, nil
}
