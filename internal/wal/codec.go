package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/sgb-db/sgb/internal/types"
)

// The row codec: a compact, self-describing binary encoding of
// types.Value rows shared by the WAL record bodies and the snapshot
// table sections. Integers are fixed-width little-endian — mutation
// records are dominated by float coordinates, so varint squeezing
// would buy little and cost branchy decode loops.

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendValue appends one SQL value: a kind byte followed by the
// kind's payload (nothing for NULL, 8 bytes for ints / floats / dates,
// 1 byte for bools, a length-prefixed string for text, 16 bytes for
// intervals).
func AppendValue(b []byte, v types.Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case types.KindNull:
	case types.KindInt, types.KindDate:
		b = AppendU64(b, uint64(v.I))
	case types.KindFloat:
		b = AppendU64(b, math.Float64bits(v.F))
	case types.KindText:
		b = AppendString(b, v.S)
	case types.KindBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case types.KindInterval:
		b = AppendU64(b, uint64(v.I))
		b = AppendU64(b, math.Float64bits(v.F))
	default:
		// Unknown kinds cannot round-trip; encode as NULL would silently
		// lose data, so make the frame undecodable instead.
		b = append(b, 0xFF)
	}
	return b
}

// AppendRow appends a value-count prefix and then each value.
func AppendRow(b []byte, row types.Row) []byte {
	b = AppendU32(b, uint32(len(row)))
	for _, v := range row {
		b = AppendValue(b, v)
	}
	return b
}

// maxDecodeCount bounds every decoded count and string length: a
// corrupt frame that survives the CRC check (or a fuzzer input) must
// not drive a multi-gigabyte allocation.
const maxDecodeCount = 1 << 26

// Decoder consumes the codec's encodings from a byte slice. Decode
// errors stick: after the first failure every method returns zero
// values and Err reports the cause, so call sites read fields linearly
// and check once.
//
// The read position is an index into b rather than a re-sliced b:
// advancing it stores no pointer, so decoding runs no write barrier
// while the collector marks.
type Decoder struct {
	b   []byte
	off int // b[off:] is unconsumed
	err error
}

// NewDecoder returns a decoder over b (which is not copied).
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.b) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: decode: "+format, args...)
	}
}

// Byte consumes one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.Len() < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// U32 consumes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.Len() < 4 {
		d.fail("truncated uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// U64 consumes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Len() < 8 {
		d.fail("truncated uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// Count consumes a uint32 used as an element count, bounds-checked so
// corrupt input cannot provoke huge allocations.
func (d *Decoder) Count() int {
	n := d.U32()
	if d.err == nil && n > maxDecodeCount {
		d.fail("count %d exceeds limit", n)
		return 0
	}
	return int(n)
}

// String consumes a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Count()
	if d.err != nil {
		return ""
	}
	if d.Len() < n {
		d.fail("truncated string of length %d", n)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// skip consumes n bytes.
func (d *Decoder) skip(n int) {
	if d.err != nil {
		return
	}
	if d.Len() < n {
		d.fail("truncated value of %d bytes", n)
		return
	}
	d.off += n
}

// Value consumes one SQL value.
func (d *Decoder) Value() (v types.Value) {
	d.valueInto(&v)
	return v
}

// valueInto consumes one SQL value into *v, which must be the zero
// Value. It stores Kind and the kind's payload fields only: nothing for
// NULL, S only for TEXT. A whole-Value copy into heap memory copies S's
// string pointer, which runs a write barrier while the collector marks.
func (d *Decoder) valueInto(v *types.Value) {
	kind := types.Kind(d.Byte())
	if d.err != nil {
		return
	}
	switch kind {
	case types.KindNull:
		return
	case types.KindInt, types.KindDate:
		v.I = int64(d.U64())
	case types.KindFloat:
		v.F = math.Float64frombits(d.U64())
	case types.KindText:
		v.S = d.String()
	case types.KindBool:
		v.B = d.Byte() != 0
	case types.KindInterval:
		v.I = int64(d.U64())
		v.F = math.Float64frombits(d.U64())
	default:
		d.fail("unknown value kind %d", int(kind))
		return
	}
	v.Kind = kind
}

// skipValue consumes one SQL value without decoding it.
func (d *Decoder) skipValue() {
	switch kind := types.Kind(d.Byte()); kind {
	case types.KindNull:
	case types.KindInt, types.KindDate, types.KindFloat:
		d.skip(8)
	case types.KindText:
		d.skip(d.Count())
	case types.KindBool:
		d.skip(1)
	case types.KindInterval:
		d.skip(16)
	default:
		d.fail("unknown value kind %d", int(kind))
	}
}

// Row consumes one encoded row.
func (d *Decoder) Row() types.Row {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	// Every value is at least its kind byte, so the bytes that remain
	// bound the row: an announced count alone reserves nothing.
	row := make(types.Row, 0, min(n, d.Len()))
	for i := 0; i < n; i++ {
		row = append(row, d.Value())
		if d.err != nil {
			return nil
		}
	}
	return row
}

// Rows consumes n encoded rows into one backing array, for a reader
// that keeps a whole row set (a wire response; WAL replay and snapshot
// load use Row). A first pass counts the values the bytes actually
// hold, so the array is sized from the payload, never from an announced
// count; the second decodes each value into its zeroed cell
// (valueInto). Every row's capacity is clipped to its length, so
// appending to one row cannot overwrite the next.
func (d *Decoder) Rows(n int) []types.Row {
	probe, total := *d, 0
	for i := 0; i < n && probe.err == nil; i++ {
		k := probe.Count()
		for j := 0; j < k && probe.err == nil; j++ {
			probe.skipValue()
		}
		total += k
	}
	if probe.err != nil {
		d.err = probe.err
		return nil
	}
	// Every row is at least its 4-byte count, so n is bounded too now.
	backing := make([]types.Value, total)
	rows := make([]types.Row, n)
	for i := range rows {
		k := d.Count()
		row := backing[:k:k]
		backing = backing[k:]
		for j := range row {
			d.valueInto(&row[j])
		}
		rows[i] = row
	}
	return rows
}

// Record types: one logical table mutation per WAL frame. Frames are
// written after the in-memory mutation succeeded and before the
// statement is acknowledged, so a frame in the log always describes a
// mutation replay can re-apply verbatim.

// RecordType tags a WAL frame payload.
type RecordType byte

// The WAL record kinds.
const (
	RecCreateTable RecordType = 1 + iota
	RecInsert
	RecDelete
	RecDropTable
)

// Record is one logical table mutation.
type Record interface{ recordType() RecordType }

// ColDef is one column of a CreateTable record.
type ColDef struct {
	Name string
	Kind types.Kind
}

// CreateTable records a CREATE TABLE.
type CreateTable struct {
	Name string
	Cols []ColDef
}

// Insert records the rows one INSERT statement (or bulk load) appended
// to a table, in insertion order and post type-coercion — replaying
// them through the ordinary insert path reproduces the stored rows
// exactly.
type Insert struct {
	Table string
	Rows  []types.Row
}

// Delete records the row indices one DELETE statement removed (sorted
// ascending, as storage.Table.DeleteRows requires).
type Delete struct {
	Table string
	Idx   []int
}

// DropTable records a DROP TABLE.
type DropTable struct {
	Name string
}

func (CreateTable) recordType() RecordType { return RecCreateTable }
func (Insert) recordType() RecordType      { return RecInsert }
func (Delete) recordType() RecordType      { return RecDelete }
func (DropTable) recordType() RecordType   { return RecDropTable }

// EncodeRecord serializes a record into a frame payload.
func EncodeRecord(rec Record) []byte {
	b := []byte{byte(rec.recordType())}
	switch r := rec.(type) {
	case CreateTable:
		b = AppendString(b, r.Name)
		b = AppendU32(b, uint32(len(r.Cols)))
		for _, c := range r.Cols {
			b = AppendString(b, c.Name)
			b = append(b, byte(c.Kind))
		}
	case Insert:
		b = AppendString(b, r.Table)
		b = AppendU32(b, uint32(len(r.Rows)))
		for _, row := range r.Rows {
			b = AppendRow(b, row)
		}
	case Delete:
		b = AppendString(b, r.Table)
		b = AppendU32(b, uint32(len(r.Idx)))
		for _, i := range r.Idx {
			b = AppendU64(b, uint64(i))
		}
	case DropTable:
		b = AppendString(b, r.Name)
	default:
		panic(fmt.Sprintf("wal: unknown record %T", rec))
	}
	return b
}

// DecodeRecord parses a frame payload back into a record.
func DecodeRecord(payload []byte) (Record, error) {
	d := NewDecoder(payload)
	switch rt := RecordType(d.Byte()); rt {
	case RecCreateTable:
		r := CreateTable{Name: d.String()}
		n := d.Count()
		for i := 0; i < n && d.Err() == nil; i++ {
			r.Cols = append(r.Cols, ColDef{Name: d.String(), Kind: types.Kind(d.Byte())})
		}
		return finishRecord(r, d)
	case RecInsert:
		r := Insert{Table: d.String()}
		n := d.Count()
		for i := 0; i < n && d.Err() == nil; i++ {
			r.Rows = append(r.Rows, d.Row())
		}
		return finishRecord(r, d)
	case RecDelete:
		r := Delete{Table: d.String()}
		n := d.Count()
		for i := 0; i < n && d.Err() == nil; i++ {
			r.Idx = append(r.Idx, int(d.U64()))
		}
		return finishRecord(r, d)
	case RecDropTable:
		return finishRecord(DropTable{Name: d.String()}, d)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", byte(rt))
	}
}

// finishRecord enforces that a payload decoded cleanly and completely;
// trailing garbage means the frame does not hold what its length
// claims.
func finishRecord(rec Record, d *Decoder) (Record, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("wal: record has %d trailing bytes", d.Len())
	}
	return rec, nil
}
