package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Segment layout: an 8-byte magic, the 8-byte sequence number of the
// segment's first frame, then frames back to back. Frame layout:
// 4-byte payload length, 4-byte CRC32-C of the payload, payload.
const (
	segMagic  = "SGBWAL1\n"
	segHdrLen = len(segMagic) + 8
	frameHdr  = 8
	segPrefix = "wal-"
	segSuffix = ".seg"
	// maxFrame bounds a single record; a length field above it is
	// corruption, not a real frame.
	maxFrame = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when Append flushes to stable storage.
type SyncPolicy int

// The sync policies (SET durability = always | interval | off).
const (
	// SyncAlways fsyncs after every append: every acknowledged
	// statement survives a crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when Options.Interval has elapsed since the
	// last sync: a bounded window of acknowledged statements may be
	// lost, appends cost a write but rarely a flush.
	SyncInterval
	// SyncOff never fsyncs from Append: contents survive a process
	// crash (the OS holds them) but not a machine crash.
	SyncOff
)

// String spells the policy as SET durability accepts it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// File is the writable handle a Log appends frames through. *os.File
// satisfies it; tests substitute a FaultFile to inject torn writes and
// failed fsyncs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options tunes a Log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes (a segment may
	// exceed it by one frame). 0 selects 4 MiB.
	SegmentSize int64
	// Policy is the append sync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval flush spacing. 0 selects 100ms.
	Interval time.Duration
	// OpenFile opens a segment file for appending; nil selects os
	// creation. Tests interpose failpoint writers here.
	OpenFile func(path string) (File, error)
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.OpenFile == nil {
		o.OpenFile = func(path string) (File, error) {
			return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		}
	}
	return o
}

// segment describes one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64
	// validLen is the byte offset of the end of the last valid frame
	// (set by the open-time scan).
	validLen int64
	frames   int // valid frame count
	// tornTail records that the scan found bytes past the last valid
	// frame — a torn or corrupt frame that ends the log.
	tornTail bool
}

// Log is an append-only segmented WAL opened over a directory. It is
// not safe for concurrent use; the engine serializes mutations.
type Log struct {
	dir  string
	opt  Options
	segs []segment

	f        File // current segment handle (append mode)
	fPath    string
	fSize    int64
	lastSeq  uint64 // sequence number of the last appended frame (0 = none)
	lastSync time.Time
	failed   error // sticky: a torn append poisons the log
}

// ErrLogFailed wraps the first append failure; every later Append and
// Sync returns it. A log that tore a frame mid-write has no well-known
// end offset anymore — the process must recover by reopening, which
// repairs the tail.
var ErrLogFailed = errors.New("wal: log failed; reopen to recover")

// ErrTooLarge is returned by Append for a record whose payload exceeds
// the frame limit the open-time scan enforces: written, it would read
// back as a torn tail and take every later frame with it. Nothing is
// written and the log is not poisoned.
var ErrTooLarge = errors.New("wal: record exceeds the 64 MiB frame limit")

// Open opens (creating if needed) the WAL in dir, repairs any torn
// tail left by a crash — the file is truncated after the last valid
// frame and any segments beyond the first corruption are deleted — and
// positions for appending. The returned log's LastSeq reports the
// sequence number of the last surviving frame.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, lastSync: time.Now()}
	// Validate segments in order; the first corruption ends the log.
	for i := range segs {
		s := &segs[i]
		if err := scanSegment(s); err != nil {
			// Unreadable header: the segment contributes nothing. Frames
			// in later segments would replay over a hole, so drop them.
			removeSegments(segs[i:])
			segs = segs[:i]
			break
		}
		if s.tornTail {
			if err := os.Truncate(s.path, s.validLen); err != nil {
				return nil, fmt.Errorf("wal: repairing torn tail of %s: %w", s.path, err)
			}
			s.tornTail = false
			// A torn frame ends the log: later segments are unreachable.
			removeSegments(segs[i+1:])
			segs = segs[:i+1]
			break
		}
	}
	l.segs = segs
	if n := len(segs); n > 0 {
		last := segs[n-1]
		l.lastSeq = last.firstSeq + uint64(last.frames) - 1
		f, err := opt.OpenFile(last.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.fPath, l.fSize = f, last.path, last.validLen
	}
	return l, nil
}

// removeSegments best-effort deletes segment files (used when repair
// drops unreachable segments).
func removeSegments(segs []segment) {
	for _, s := range segs {
		os.Remove(s.path)
	}
}

// scanDir lists the segment files of dir sorted by first sequence
// number.
func scanDir(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// scanSegment walks a segment's frames, recording the valid length and
// frame count. It returns an error only when the header itself is
// unreadable; torn or corrupt frames merely end the valid region.
func scanSegment(s *segment) error {
	b, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	if len(b) < segHdrLen || string(b[:len(segMagic)]) != segMagic {
		return fmt.Errorf("wal: %s: bad segment header", s.path)
	}
	hdrSeq := binary.LittleEndian.Uint64(b[len(segMagic):segHdrLen])
	if hdrSeq != s.firstSeq {
		return fmt.Errorf("wal: %s: header sequence %d does not match file name", s.path, hdrSeq)
	}
	off := int64(segHdrLen)
	for {
		n, ok := validFrame(b, off)
		if !ok {
			if int64(len(b)) > off {
				s.tornTail = true
			}
			break
		}
		off += n
		s.frames++
	}
	s.validLen = off
	return nil
}

// validFrame checks the frame starting at off and returns its total
// length. ok is false at a clean end, a torn frame, or a corrupt one.
func validFrame(b []byte, off int64) (int64, bool) {
	if int64(len(b)) < off+frameHdr {
		return 0, false
	}
	length := binary.LittleEndian.Uint32(b[off:])
	crc := binary.LittleEndian.Uint32(b[off+4:])
	if length == 0 || length > maxFrame {
		return 0, false
	}
	end := off + frameHdr + int64(length)
	if int64(len(b)) < end {
		return 0, false
	}
	if crc32.Checksum(b[off+frameHdr:end], castagnoli) != crc {
		return 0, false
	}
	return frameHdr + int64(length), true
}

// LastSeq returns the sequence number of the last appended (or
// recovered) frame; 0 means the log is empty.
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Position returns the current append position (segment path and byte
// offset) — the frame-boundary coordinates the kill-matrix tests crash
// at.
func (l *Log) Position() (path string, off int64) { return l.fPath, l.fSize }

// SetPolicy switches the sync policy (SET durability). Tightening to
// SyncAlways syncs immediately so the promise holds from this
// statement on.
func (l *Log) SetPolicy(p SyncPolicy) error {
	l.opt.Policy = p
	if p == SyncAlways {
		return l.Sync()
	}
	return nil
}

// Policy returns the current sync policy.
func (l *Log) Policy() SyncPolicy { return l.opt.Policy }

// Append encodes rec as one frame, writes it to the current segment
// (rotating first when full), and applies the sync policy. It returns
// the frame's sequence number. A write failure poisons the log: the
// on-disk tail may be torn, so every later Append fails with
// ErrLogFailed until the log is reopened (which repairs the tail). An
// oversized record is refused with ErrTooLarge before anything is
// written, leaving the log as it was.
func (l *Log) Append(rec Record) (uint64, error) {
	if l.failed != nil {
		return 0, l.failed
	}
	payload := EncodeRecord(rec)
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	frame := make([]byte, frameHdr+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHdr:], payload)

	if l.f == nil || l.fSize >= l.opt.SegmentSize {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.fail(err)
		return 0, l.failed
	}
	l.fSize += int64(len(frame))
	l.lastSeq++
	cur := &l.segs[len(l.segs)-1]
	cur.frames++
	cur.validLen = l.fSize

	switch l.opt.Policy {
	case SyncAlways:
		if err := l.Sync(); err != nil {
			return 0, err
		}
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opt.Interval {
			if err := l.Sync(); err != nil {
				return 0, err
			}
		}
	}
	return l.lastSeq, nil
}

// fail poisons the log after a write error.
func (l *Log) fail(cause error) {
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %w", ErrLogFailed, cause)
	}
}

// rotate closes the current segment (synced) and starts the next one,
// whose first frame will be lastSeq+1.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			l.fail(err)
			return l.failed
		}
		if err := l.f.Close(); err != nil {
			l.fail(err)
			return l.failed
		}
		l.f = nil
	}
	firstSeq := l.lastSeq + 1
	path := filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix))
	f, err := l.opt.OpenFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, segHdrLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], firstSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		l.fail(err)
		return l.failed
	}
	l.f, l.fPath, l.fSize = f, path, int64(segHdrLen)
	l.segs = append(l.segs, segment{path: path, firstSeq: firstSeq, validLen: int64(segHdrLen)})
	syncDir(l.dir)
	return nil
}

// Sync flushes the current segment to stable storage.
func (l *Log) Sync() error {
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.fail(err)
		return l.failed
	}
	l.lastSync = time.Now()
	return nil
}

// Close syncs and closes the log. The log is unusable afterwards.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Prune deletes segments every frame of which has sequence number
// ≤ seq (because the next segment starts at or below seq+1). The
// checkpointer calls it with the covered sequence of the oldest
// retained snapshot, so recovery can always fall back that far.
func (l *Log) Prune(seq uint64) error {
	n := 0
	for n+1 < len(l.segs) && l.segs[n+1].firstSeq <= seq+1 {
		if err := os.Remove(l.segs[n].path); err != nil {
			return fmt.Errorf("wal: prune: %w", err)
		}
		n++
	}
	if n > 0 {
		l.segs = append(l.segs[:0], l.segs[n:]...)
		syncDir(l.dir)
	}
	return nil
}

// Replay decodes every valid frame with sequence number > fromSeq in
// order, invoking fn with each record. It reads the segment files
// directly (callable before or after Open on the same directory) and
// stops cleanly at the first torn or corrupt frame — corruption is
// never replayed. It returns the sequence number of the last frame
// delivered (or fromSeq if none).
func Replay(dir string, fromSeq uint64, fn func(seq uint64, rec Record) error) (uint64, error) {
	segs, err := scanDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return fromSeq, nil
		}
		return fromSeq, err
	}
	last := fromSeq
	for i := range segs {
		s := &segs[i]
		b, err := os.ReadFile(s.path)
		if err != nil {
			return last, fmt.Errorf("wal: %w", err)
		}
		if len(b) < segHdrLen || string(b[:len(segMagic)]) != segMagic {
			return last, nil // unreadable segment ends the log
		}
		seq := s.firstSeq - 1
		// Skip whole segments the snapshot already covers.
		if i+1 < len(segs) && segs[i+1].firstSeq <= fromSeq+1 {
			continue
		}
		off := int64(segHdrLen)
		for {
			n, ok := validFrame(b, off)
			if !ok {
				if int64(len(b)) > off {
					return last, nil // torn/corrupt frame ends the log
				}
				break
			}
			seq++
			if seq > fromSeq {
				rec, err := DecodeRecord(b[off+frameHdr : off+n])
				if err != nil {
					// The frame passed its checksum but does not decode: a
					// writer bug or targeted corruption. Stop rather than
					// guess.
					return last, nil
				}
				if err := fn(seq, rec); err != nil {
					return last, err
				}
				last = seq
			}
			off += n
		}
	}
	return last, nil
}

// syncDir fsyncs a directory so file creations, deletions, and renames
// inside it are durable. Errors are ignored: some filesystems and
// platforms reject directory fsync, and the fallback behavior (the
// metadata flushes on the next journal commit) is the pre-existing
// state of the art.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
