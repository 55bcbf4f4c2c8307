package sgb

import (
	"errors"
	"fmt"

	"github.com/sgb-db/sgb/internal/snapshot"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/wal"
)

// The durability subsystem. A DB opened with OpenDir logs every table
// mutation to a write-ahead log and periodically checkpoints every
// table, so a crashed process reopens to exactly the prefix of
// statements whose log frames reached disk. Cached groupings are not
// durable: each is a function of its table's rows, so after a reopen
// its first incremental query builds it, as after SET incremental = on.
// The write path is log-after-apply: a statement mutates the in-memory
// tables first and appends its record before Exec acknowledges, so
// every logged frame describes a mutation that replay can re-apply
// verbatim (INSERT rows are logged post type-coercion for the same
// reason). The DB's writer lock serializes every mutation statement, so
// log order is apply order even under concurrent sessions.

const (
	// defaultCheckpointEvery is how many logged records trigger an
	// automatic checkpoint (SET checkpoint_every overrides; 0 disables).
	defaultCheckpointEvery = 1024
	// checkpointsRetained is how many snapshots Checkpoint keeps: the
	// newest plus one fallback, so a checkpoint torn by a crash never
	// strands recovery (the WAL is pruned only up to the older one).
	checkpointsRetained = 2
)

// durable holds the persistent-mode state of a DB opened with OpenDir.
// All fields are guarded by the DB's writer lock.
type durable struct {
	dir  string
	log  *wal.Log
	info RecoveryInfo
	// checkpointEvery triggers an automatic checkpoint after that many
	// logged records; 0 disables automatic checkpoints.
	checkpointEvery int
	// sinceCheckpoint counts records logged since the last checkpoint.
	sinceCheckpoint int
}

// RecoveryInfo reports what OpenDir reconstructed: which snapshot
// seeded the tables and how much WAL tail was replayed on top.
type RecoveryInfo struct {
	// SnapshotPath is the snapshot file recovery started from; empty
	// when the directory held no loadable snapshot.
	SnapshotPath string
	// SnapshotSeq is the WAL sequence number the snapshot covered.
	SnapshotSeq uint64
	// SnapshotsSkipped counts newer snapshots that failed validation
	// (torn or corrupt) and were passed over.
	SnapshotsSkipped int
	// RecordsReplayed counts WAL records applied past the snapshot.
	RecordsReplayed int
	// RowsReplayed counts rows re-inserted by the replayed records.
	RowsReplayed int
	// EvaluatorsRestored is always 0: checkpoints hold tables only, and
	// each cached grouping is built by its first query after a reopen.
	// It stays declared because bench/tracerun.go, frozen, reads it.
	EvaluatorsRestored int
}

// OpenDir opens (creating if needed) a persistent database rooted at
// dir. Recovery runs first: the newest valid checkpoint seeds the
// tables, then the WAL tail past the checkpoint replays into them; the
// evaluator cache starts empty. A torn WAL tail or a corrupt newest
// checkpoint is repaired by falling back, never by guessing — corrupt
// bytes are detected and discarded, not applied. Close the returned DB
// to release the log.
func OpenDir(dir string) (*DB, error) {
	db := Open()
	var info RecoveryInfo

	snap, snapPath, skipped, err := snapshot.Latest(dir)
	if err != nil {
		return nil, err
	}
	info.SnapshotsSkipped = skipped
	var fromSeq uint64
	if snap != nil {
		info.SnapshotPath = snapPath
		info.SnapshotSeq = snap.Seq
		fromSeq = snap.Seq
		for _, t := range snap.Tables {
			if err := db.cat.Create(t); err != nil {
				return nil, fmt.Errorf("sgb: recovering %s: %w", snapPath, err)
			}
		}
	}

	if _, err := wal.Replay(dir, fromSeq, func(_ uint64, rec wal.Record) error {
		if err := db.applyRecord(rec, &info); err != nil {
			return fmt.Errorf("sgb: replaying WAL: %w", err)
		}
		info.RecordsReplayed++
		return nil
	}); err != nil {
		return nil, err
	}

	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	db.dur = &durable{dir: dir, log: log, info: info, checkpointEvery: defaultCheckpointEvery}
	return db, nil
}

// Recovery reports what OpenDir reconstructed. The zero value means
// the DB is in-memory (Open) or recovered from an empty directory.
func (db *DB) Recovery() RecoveryInfo {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.dur == nil {
		return RecoveryInfo{}
	}
	return db.dur.info
}

// Close syncs and releases the write-ahead log of a persistent DB.
// Close is idempotent and a no-op for an in-memory database, and it is
// safe to race with in-flight queries: queries never touch the log, so
// they finish normally on their snapshots while — and after — the log
// closes. A mutation statement serialized after Close applies in
// memory only (the database degrades to in-memory mode rather than
// failing).
func (db *DB) Close() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.dur == nil {
		return nil
	}
	err := db.dur.log.Close()
	db.dur = nil
	return err
}

// applyRecord re-applies one WAL record to the tables; the evaluator
// cache is empty during replay, so there is nothing to maintain. A
// record that fails to apply is a writer bug or targeted corruption
// that slipped the frame checksum; recovery stops rather than guess.
func (db *DB) applyRecord(rec wal.Record, info *RecoveryInfo) error {
	switch r := rec.(type) {
	case wal.CreateTable:
		schema := make(storage.Schema, len(r.Cols))
		for i, c := range r.Cols {
			schema[i] = storage.Column{Name: c.Name, Type: c.Kind}
		}
		return db.cat.Create(storage.NewTable(r.Name, schema))

	case wal.DropTable:
		return db.cat.Drop(r.Name)

	case wal.Insert:
		t, err := db.cat.Lookup(r.Table)
		if err != nil {
			return err
		}
		n, err := t.InsertBatch(r.Rows)
		info.RowsReplayed += n
		return err

	case wal.Delete:
		t, err := db.cat.Lookup(r.Table)
		if err != nil {
			return err
		}
		return t.DeleteRows(r.Idx)

	default:
		return fmt.Errorf("unknown record %T", rec)
	}
}

// logRecordLocked appends one mutation record to the WAL (a no-op for
// an in-memory DB) and runs the automatic checkpoint trigger. The
// caller holds the writer lock and has already applied the mutation; a
// failed append therefore means the statement took effect in memory
// but is not durable — the error says so, and the poisoned log refuses
// further appends until the database is reopened (which recovers to
// the last durable prefix).
func (db *DB) logRecordLocked(rec wal.Record) error {
	if db.dur == nil {
		return nil
	}
	if _, err := db.dur.log.Append(rec); err != nil {
		if errors.Is(err, wal.ErrTooLarge) {
			// Logging on past an applied, unlogged statement would leave a
			// state no statement prefix produces (a replayed DELETE names
			// row positions); the snapshot makes this one durable instead.
			return db.checkpointLocked()
		}
		return fmt.Errorf("sgb: statement applied in memory but not logged: %w", err)
	}
	db.dur.sinceCheckpoint++
	if db.dur.checkpointEvery > 0 && db.dur.sinceCheckpoint >= db.dur.checkpointEvery {
		return db.checkpointLocked()
	}
	return nil
}

// Checkpoint writes a snapshot of every table stamped with the current
// WAL position, then prunes snapshots beyond the retained two
// and the WAL segments older than the oldest retained one. SQL spells
// it CHECKPOINT; it also fires automatically every checkpoint_every
// logged records.
func (db *DB) Checkpoint() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.checkpointLocked()
}

// checkpointLocked is Checkpoint under an already-held writer lock
// (the automatic trigger fires mid-statement). The lock excludes every
// concurrent mutation, so the tables and the WAL position the snapshot
// captures are one coherent state; queries running meanwhile neither
// block nor are blocked.
func (db *DB) checkpointLocked() error {
	if db.dur == nil {
		return errors.New("sgb: CHECKPOINT requires a persistent database (OpenDir)")
	}
	// The snapshot claims to cover everything up to LastSeq; make those
	// frames durable before the claim is.
	if err := db.dur.log.Sync(); err != nil {
		return err
	}
	s := &snapshot.Snapshot{Seq: db.dur.log.LastSeq()}
	for _, name := range db.cat.Names() {
		t, err := db.cat.Lookup(name)
		if err != nil {
			return err
		}
		s.Tables = append(s.Tables, t)
	}
	if _, err := snapshot.Write(db.dur.dir, s); err != nil {
		return err
	}
	floor, err := snapshot.Prune(db.dur.dir, checkpointsRetained)
	if err != nil {
		return err
	}
	if floor > 0 {
		if err := db.dur.log.Prune(floor); err != nil {
			return err
		}
	}
	db.dur.sinceCheckpoint = 0
	return nil
}
