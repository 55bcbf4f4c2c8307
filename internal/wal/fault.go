package wal

import (
	"errors"
	"fmt"
)

// ErrInjected is the cause FaultFile surfaces when a configured
// failpoint trips.
var ErrInjected = errors.New("wal: injected fault")

// FaultFile is a failpoint writer wrapper: it forwards to an
// underlying File until a configured fault trips, then simulates a
// crash — the triggering write is torn (a prefix reaches the file,
// optionally with its last byte garbled) and every later operation
// fails. Install it through Options.OpenFile to drive the
// crash-recovery kill-matrix without killing the process.
//
// Offsets count bytes written through this wrapper (across every file
// it opens, in open order), so a test can aim a fault at any absolute
// byte of the log stream — mid-frame, at a frame boundary, inside a
// segment header — without knowing the segment layout.
type FaultFile struct {
	// FailWriteAt tears the write that would carry the stream past this
	// byte count: bytes up to the limit are written, the rest is
	// dropped, and the write returns ErrInjected. < 0 disables.
	FailWriteAt int64
	// Garble flips the bits of the byte at FailWriteAt-1 (the last byte
	// that still reaches the file), turning the torn write into a
	// corrupt one — the CRC-detection case rather than the short-read
	// case.
	Garble bool
	// FailSyncN fails the Nth Sync call (1-based) with ErrInjected and
	// trips the failpoint. 0 disables.
	FailSyncN int

	written int64
	syncs   int
	tripped bool
}

// NewFaultFile returns a FaultFile with every failpoint disarmed;
// configure the one the test needs before wiring it into Options.
func NewFaultFile() *FaultFile { return &FaultFile{FailWriteAt: -1} }

// Wrap returns an OpenFile hook that routes every opened segment
// through ff. The wrapper reuses ff's counters across files, so the
// configured offsets address the concatenated stream.
func (ff *FaultFile) Wrap(open func(path string) (File, error)) func(path string) (File, error) {
	return func(path string) (File, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		return &faultHandle{ff: ff, f: f}, nil
	}
}

// faultHandle is the per-file view of a FaultFile.
type faultHandle struct {
	ff *FaultFile
	f  File
}

func (h *faultHandle) Write(p []byte) (int, error) {
	ff := h.ff
	if ff.tripped {
		return 0, fmt.Errorf("%w (already tripped)", ErrInjected)
	}
	if ff.FailWriteAt >= 0 && ff.written+int64(len(p)) > ff.FailWriteAt {
		keep := int(ff.FailWriteAt - ff.written)
		if keep < 0 {
			keep = 0
		}
		torn := p[:keep]
		if ff.Garble && keep > 0 {
			torn = append([]byte(nil), torn...)
			torn[keep-1] ^= 0xFF
		}
		n, _ := h.f.Write(torn)
		h.f.Sync() // make the torn prefix visible to the recovery scan
		ff.written += int64(n)
		ff.tripped = true
		return n, fmt.Errorf("%w: write torn at byte %d", ErrInjected, ff.FailWriteAt)
	}
	n, err := h.f.Write(p)
	ff.written += int64(n)
	if err != nil {
		ff.tripped = true
	}
	return n, err
}

func (h *faultHandle) Sync() error {
	ff := h.ff
	if ff.tripped {
		return fmt.Errorf("%w (already tripped)", ErrInjected)
	}
	ff.syncs++
	if ff.FailSyncN > 0 && ff.syncs == ff.FailSyncN {
		ff.tripped = true
		return fmt.Errorf("%w: sync %d failed", ErrInjected, ff.syncs)
	}
	return h.f.Sync()
}

func (h *faultHandle) Close() error { return h.f.Close() }
