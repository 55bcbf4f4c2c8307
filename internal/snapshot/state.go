package snapshot

import (
	"errors"
	"fmt"
	"math"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/incr"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

// The payload codec. Built on the wal row codec so table rows share
// one binary form between log frames and checkpoints. Decoding is
// defensive throughout: the trailing CRC has already been verified
// when these run, but a truncated count or out-of-range byte must
// still surface as an error, never a panic — the core/incr Restore
// constructors re-validate the semantic invariants on top.

// evaluator-kind tags inside an encoded incr.State.
const (
	evalNone byte = iota
	evalAll
	evalAny
)

func appendPayload(b []byte, s *Snapshot) ([]byte, error) {
	b = wal.AppendU32(b, uint32(len(s.Tables)))
	for _, t := range s.Tables {
		b = wal.AppendString(b, t.Name)
		b = wal.AppendU32(b, uint32(len(t.Schema)))
		for _, c := range t.Schema {
			b = wal.AppendString(b, c.Name)
			b = append(b, byte(c.Type))
		}
		rows, _ := t.Snapshot()
		b = wal.AppendU64(b, uint64(len(rows)))
		for _, row := range rows {
			b = wal.AppendRow(b, row)
		}
	}
	b = wal.AppendU32(b, uint32(len(s.Incr)))
	for _, e := range s.Incr {
		if e.State == nil {
			return nil, errors.New("snapshot: incremental entry without state")
		}
		b = wal.AppendString(b, e.Table)
		b = wal.AppendString(b, e.Fingerprint)
		b = wal.AppendU64(b, uint64(e.Consumed))
		b = appendIncrState(b, e.State)
	}
	return b, nil
}

func decodePayload(d *wal.Decoder, s *Snapshot) error {
	nt := d.Count()
	for i := 0; i < nt && d.Err() == nil; i++ {
		name := d.String()
		nc := d.Count()
		schema := make(storage.Schema, 0, nc)
		for j := 0; j < nc && d.Err() == nil; j++ {
			schema = append(schema, storage.Column{Name: d.String(), Type: types.Kind(d.Byte())})
		}
		nr := int(d.U64())
		t := storage.NewTable(name, schema)
		t.Rows = make([]types.Row, 0, clampCap(nr)) //sgblint:allow snapshotsafe recovery-time rebuild of a table not yet published to any catalog
		for j := 0; j < nr && d.Err() == nil; j++ {
			t.Rows = append(t.Rows, d.Row()) //sgblint:allow snapshotsafe recovery-time rebuild of a table not yet published to any catalog
		}
		s.Tables = append(s.Tables, t)
	}
	ne := d.Count()
	for i := 0; i < ne && d.Err() == nil; i++ {
		e := IncrEntry{Table: d.String(), Fingerprint: d.String(), Consumed: int(d.U64())}
		st, err := decodeIncrState(d)
		if err != nil {
			return err
		}
		e.State = st
		s.Incr = append(s.Incr, e)
	}
	return d.Err()
}

// clampCap bounds a decoded preallocation hint so a corrupt length
// cannot drive a huge make; the slice still grows to the real size.
func clampCap(n int) int {
	const max = 1 << 20
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}

func appendOptions(b []byte, o core.Options) []byte {
	b = append(b, byte(o.Metric), byte(o.Overlap), byte(o.Algorithm))
	b = wal.AppendU64(b, math.Float64bits(o.Eps))
	b = wal.AppendU64(b, uint64(o.Seed))
	b = wal.AppendU64(b, uint64(o.Parallelism))
	// Two retired ablation options, an index refresh hysteresis and a
	// hull-test switch, keep their slots at their zero values.
	b = wal.AppendU64(b, 0)
	return append(b, 0)
}

func decodeOptions(d *wal.Decoder) core.Options {
	var o core.Options
	o.Metric = geom.Metric(d.Byte())
	o.Overlap = core.Overlap(d.Byte())
	o.Algorithm = core.Algorithm(d.Byte())
	o.Eps = math.Float64frombits(d.U64())
	o.Seed = int64(d.U64())
	o.Parallelism = int(d.U64())
	d.U64() // the retired options' slots (appendOptions)
	d.Byte()
	return o
}

// appendFloats / appendInt32s / appendBools: count-prefixed slabs with
// a presence byte where nil and empty differ semantically (the
// evaluator states use nil live/alive as "identity / all alive").

func appendFloats(b []byte, xs []float64) []byte {
	b = wal.AppendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = wal.AppendU64(b, math.Float64bits(x))
	}
	return b
}

func decodeFloats(d *wal.Decoder) []float64 {
	n := d.Count()
	if d.Err() != nil {
		return nil
	}
	out := make([]float64, 0, clampCap(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, math.Float64frombits(d.U64()))
	}
	return out
}

func appendInt32sOpt(b []byte, xs []int32) []byte {
	if xs == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = wal.AppendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = wal.AppendU32(b, uint32(x))
	}
	return b
}

func decodeInt32sOpt(d *wal.Decoder) []int32 {
	if d.Byte() == 0 {
		return nil
	}
	return decodeInt32s(d)
}

func decodeInt32s(d *wal.Decoder) []int32 {
	n := d.Count()
	if d.Err() != nil {
		return nil
	}
	out := make([]int32, 0, clampCap(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, int32(d.U32()))
	}
	return out
}

func appendInt32s(b []byte, xs []int32) []byte {
	b = wal.AppendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = wal.AppendU32(b, uint32(x))
	}
	return b
}

func appendBoolsOpt(b []byte, xs []bool) []byte {
	if xs == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = wal.AppendU32(b, uint32(len(xs)))
	for _, x := range xs {
		if x {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func decodeBoolsOpt(d *wal.Decoder) []bool {
	if d.Byte() == 0 {
		return nil
	}
	n := d.Count()
	if d.Err() != nil {
		return nil
	}
	out := make([]bool, 0, clampCap(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.Byte() != 0)
	}
	return out
}

func appendInt8s(b []byte, xs []int8) []byte {
	b = wal.AppendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = append(b, byte(x))
	}
	return b
}

func decodeInt8s(d *wal.Decoder) []int8 {
	n := d.Count()
	if d.Err() != nil {
		return nil
	}
	out := make([]int8, 0, clampCap(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, int8(d.Byte()))
	}
	return out
}

func appendIncrState(b []byte, s *incr.State) []byte {
	b = append(b, byte(s.Sem))
	b = appendOptions(b, s.Opt)
	switch {
	case s.All != nil:
		b = append(b, evalAll)
		b = appendAllState(b, s.All)
	case s.Any != nil:
		b = append(b, evalAny)
		b = appendAnyState(b, s.Any)
	default:
		b = append(b, evalNone)
	}
	return b
}

func decodeIncrState(d *wal.Decoder) (*incr.State, error) {
	s := &incr.State{Sem: incr.Semantics(d.Byte())}
	s.Opt = decodeOptions(d)
	switch kind := d.Byte(); kind {
	case evalNone:
	case evalAll:
		s.All = decodeAllState(d)
	case evalAny:
		s.Any = decodeAnyState(d)
	default:
		if d.Err() == nil {
			return nil, fmt.Errorf("snapshot: unknown evaluator kind %d", kind)
		}
	}
	return s, d.Err()
}

func appendAnyState(b []byte, s *core.AnyState) []byte {
	b = appendOptions(b, s.Opt)
	b = wal.AppendU32(b, uint32(s.Dims))
	b = appendFloats(b, s.Data)
	b = appendInt32sOpt(b, s.Live)
	b = appendBoolsOpt(b, s.Alive)
	b = wal.AppendU64(b, uint64(s.Dead))
	b = appendInt32s(b, s.UFParent)
	b = appendInt8s(b, s.UFRank)
	b = wal.AppendU64(b, uint64(s.UFCount))
	return b
}

func decodeAnyState(d *wal.Decoder) *core.AnyState {
	s := &core.AnyState{}
	s.Opt = decodeOptions(d)
	s.Dims = int(d.U32())
	s.Data = decodeFloats(d)
	s.Live = decodeInt32sOpt(d)
	s.Alive = decodeBoolsOpt(d)
	s.Dead = int(d.U64())
	s.UFParent = decodeInt32s(d)
	s.UFRank = decodeInt8s(d)
	s.UFCount = int(d.U64())
	return s
}

func appendAllState(b []byte, s *core.AllState) []byte {
	b = appendOptions(b, s.Opt)
	b = wal.AppendU32(b, uint32(s.Dims))
	b = appendFloats(b, s.Data)
	b = appendInt32sOpt(b, s.Live)
	b = wal.AppendU64(b, uint64(s.Dead))
	b = wal.AppendU64(b, s.RandState)
	b = wal.AppendU64(b, uint64(s.StageFloor))
	b = appendInt32s(b, s.Eliminated)
	b = appendInt32s(b, s.Deferred)
	b = wal.AppendU32(b, uint32(len(s.Groups)))
	for _, g := range s.Groups {
		b = appendInt32s(b, g)
	}
	return b
}

func decodeAllState(d *wal.Decoder) *core.AllState {
	s := &core.AllState{}
	s.Opt = decodeOptions(d)
	s.Dims = int(d.U32())
	s.Data = decodeFloats(d)
	s.Live = decodeInt32sOpt(d)
	s.Dead = int(d.U64())
	s.RandState = d.U64()
	s.StageFloor = int(d.U64())
	s.Eliminated = decodeInt32s(d)
	s.Deferred = decodeInt32s(d)
	n := d.Count()
	if d.Err() == nil {
		s.Groups = make([][]int32, 0, clampCap(n))
		for i := 0; i < n && d.Err() == nil; i++ {
			g := decodeInt32s(d)
			if len(g) == 0 {
				g = nil // hole: empty entry
			}
			s.Groups = append(s.Groups, g)
		}
	}
	return s
}
