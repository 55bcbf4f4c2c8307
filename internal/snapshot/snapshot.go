// Package snapshot writes and reads checkpoint files: a point-in-time
// image of the engine's durable state — every table — stamped with the
// WAL sequence number it covers. Recovery loads the newest valid
// snapshot and replays only the WAL tail past its stamp, instead of
// the whole log. Cached groupings are not in it: each is a function of
// its table's rows, rebuilt by its first query after a reopen.
//
// # File format
//
// A snapshot is one file, snap-<seq>.ck, where <seq> is the covered
// WAL sequence number (zero-padded so lexical order is seq order):
//
//	8 bytes  magic "SGBSNAP1"
//	u32      format version (currently 1)
//	u64      covered WAL sequence number
//	payload  tables (wal row codec), then a u32 entry count of 0
//	u32      CRC32-C of everything before it
//
// Files written before checkpoints held tables only carry a non-zero
// entry count followed by serialized evaluators, up to the CRC. Load
// skips that section whole without decoding it; the CRC, verified
// first, covers it like the rest of the file.
//
// Writes are atomic: the image is assembled in a temp file in the same
// directory, fsynced, renamed into place, and the directory fsynced —
// a crash mid-checkpoint leaves either the old snapshot set or the new
// one, never a half-written file that parses. The trailing whole-file
// CRC makes torn or corrupted snapshots detectable, and recovery falls
// back to the previous retained snapshot when the newest fails its
// check (the engine retains two for exactly that reason).
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

const (
	magic      = "SGBSNAP1"
	version    = 1
	filePrefix = "snap-"
	fileSuffix = ".ck"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is the in-memory image a checkpoint serializes: the covered
// WAL sequence number and every table.
type Snapshot struct {
	Seq    uint64
	Tables []*storage.Table
}

// Path returns the snapshot file name covering seq inside dir.
func Path(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", filePrefix, seq, fileSuffix))
}

// Write atomically persists s into dir and returns the file path.
func Write(dir string, s *Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	b := make([]byte, 0, 4096)
	b = append(b, magic...)
	b = wal.AppendU32(b, version)
	b = wal.AppendU64(b, s.Seq)
	b = appendTables(b, s.Tables)
	b = wal.AppendU32(b, 0) // evaluator entries: none (file format)
	b = wal.AppendU32(b, crc32.Checksum(b, castagnoli))

	final := Path(dir, s.Seq)
	tmp, err := os.CreateTemp(dir, ".snap-tmp-*")
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(b); err != nil {
		cleanup()
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("snapshot: %w", err)
	}
	syncDir(dir)
	return final, nil
}

// Load reads and validates one snapshot file. Any corruption — bad
// magic, unknown version, CRC mismatch, or tables that do not decode —
// is an error; Load never returns a partially decoded image. An older
// file's evaluator entries are skipped (file format).
func Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	hdr := len(magic) + 4 + 8
	if len(b) < hdr+4 || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: %s: not a snapshot file", path)
	}
	if got := binary.LittleEndian.Uint32(b[len(b)-4:]); got != crc32.Checksum(b[:len(b)-4], castagnoli) {
		return nil, fmt.Errorf("snapshot: %s: checksum mismatch", path)
	}
	if v := binary.LittleEndian.Uint32(b[len(magic):]); v != version {
		return nil, fmt.Errorf("snapshot: %s: unsupported version %d", path, v)
	}
	s := &Snapshot{Seq: binary.LittleEndian.Uint64(b[len(magic)+4:])}
	d := wal.NewDecoder(b[hdr : len(b)-4])
	s.Tables = decodeTables(d)
	entries := d.U32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	if entries == 0 && d.Len() != 0 {
		return nil, fmt.Errorf("snapshot: %s: %d trailing payload bytes", path, d.Len())
	}
	return s, nil
}

// appendTables encodes each table's name, schema and rows, the rows in
// the wal row codec so log frames and checkpoints share one form.
func appendTables(b []byte, tables []*storage.Table) []byte {
	b = wal.AppendU32(b, uint32(len(tables)))
	for _, t := range tables {
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
	return b
}

// decodeTables is appendTables' inverse. The CRC has been verified when
// it runs, but a truncated count still surfaces as d.Err, never a panic.
func decodeTables(d *wal.Decoder) []*storage.Table {
	var tables []*storage.Table
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
		tables = append(tables, t)
	}
	return tables
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

// Info names one snapshot file and the WAL sequence its name claims to
// cover (validation happens at Load time).
type Info struct {
	Path string
	Seq  uint64
}

// List returns the snapshot files of dir, oldest first. A missing
// directory is an empty list.
func List(dir string) ([]Info, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var infos []Info
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix), 10, 64)
		if err != nil {
			continue
		}
		infos = append(infos, Info{Path: filepath.Join(dir, name), Seq: seq})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Seq < infos[j].Seq })
	return infos, nil
}

// Latest loads the newest valid snapshot of dir, skipping (but not
// deleting) corrupt ones so a torn checkpoint falls back to its
// predecessor. It returns the snapshot, its path, and how many newer
// snapshots were skipped as corrupt; all zero values when dir holds no
// loadable snapshot.
func Latest(dir string) (*Snapshot, string, int, error) {
	infos, err := List(dir)
	if err != nil {
		return nil, "", 0, err
	}
	skipped := 0
	for i := len(infos) - 1; i >= 0; i-- {
		s, err := Load(infos[i].Path)
		if err != nil {
			skipped++
			continue
		}
		return s, infos[i].Path, skipped, nil
	}
	return nil, "", skipped, nil
}

// Prune deletes the oldest snapshots beyond the keep newest and
// returns the smallest sequence number still covered by a retained
// snapshot (0 when none remain). The caller may drop WAL segments up
// to that sequence: even if the newest snapshot turns out corrupt at
// recovery, the oldest retained one plus the remaining WAL reconstruct
// everything.
func Prune(dir string, keep int) (uint64, error) {
	infos, err := List(dir)
	if err != nil {
		return 0, err
	}
	if keep < 1 {
		keep = 1
	}
	for len(infos) > keep {
		if err := os.Remove(infos[0].Path); err != nil {
			return 0, fmt.Errorf("snapshot: %w", err)
		}
		infos = infos[1:]
	}
	if len(infos) == 0 {
		return 0, nil
	}
	return infos[0].Seq, nil
}

// syncDir best-effort fsyncs a directory so a rename survives a crash.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
