package sgb

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/sgb-db/sgb/internal/incr"
	"github.com/sgb-db/sgb/internal/snapshot"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/wal"
)

// The durability subsystem. A DB opened with OpenDir logs every table
// mutation to a write-ahead log and periodically checkpoints the whole
// engine state — tables plus the incremental-grouping evaluators — so
// a crashed process reopens to exactly the prefix of statements whose
// log frames reached disk. The write path is log-after-apply: a
// statement mutates the in-memory tables first and appends its record
// before Exec acknowledges, so every logged frame describes a mutation
// that replay can re-apply verbatim (INSERT rows are logged post
// type-coercion for the same reason). The DB's writer lock serializes
// every mutation statement, so log order is apply order even under
// concurrent sessions.

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
// seeded the state, how much WAL tail was replayed on top, and how
// many incremental-grouping evaluators resumed without a rebuild.
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
	// EvaluatorsRestored counts incremental-grouping evaluators revived
	// from the snapshot and cached when recovery ends (SET incremental
	// queries resume where they stood instead of regrouping from scratch).
	EvaluatorsRestored int
}

// OpenDir opens (creating if needed) a persistent database rooted at
// dir. Recovery runs first: the newest valid checkpoint seeds the
// tables and the incremental-grouping cache, then the WAL tail past
// the checkpoint replays through the ordinary mutation paths. A torn
// WAL tail or a corrupt newest checkpoint is repaired by falling back,
// never by guessing — corrupt bytes are detected and discarded, not
// applied. Close the returned DB to release the log.
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
		// Revive the checkpointed evaluators before the tail replays:
		// the replay's INSERT and DELETE maintenance then advances them
		// exactly as the live statements did. An entry that fails to
		// restore is skipped, not fatal — it rebuilds lazily at its next
		// query. Each restores under its grouping's options and key,
		// whatever key it was saved under: one grouping restores once.
		seen := make(map[incrKey]bool)
		for _, e := range snap.Incr {
			t, err := db.cat.Lookup(e.Table)
			_, by, ok := strings.Cut(e.Fingerprint, "|by=")
			st, anySem := *e.State, e.State.Sem == incr.Any
			st.Opt = st.Opt.Maintained(anySem)
			key := incrKey{table: e.Table, fingerprint: st.Opt.Key(anySem, by)}
			if err != nil || !ok || e.Consumed > t.Len() || seen[key] {
				continue
			}
			seen[key] = true
			inc, err := incr.Restore(&st)
			if err != nil {
				continue
			}
			db.cache.add(key, &incrEntry{table: t, ev: inc, consumed: e.Consumed, gen: t.Generation()})
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
	info.EvaluatorsRestored = db.cache.len()

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

// applyRecord re-applies one WAL record through the same maintenance
// paths live statements use, so replayed mutations advance the
// restored incremental-grouping evaluators exactly as the originals
// did. A record that fails to apply is a writer bug or targeted
// corruption that slipped the frame checksum; recovery stops rather
// than guess.
func (db *DB) applyRecord(rec wal.Record, info *RecoveryInfo) error {
	switch r := rec.(type) {
	case wal.CreateTable:
		schema := make(storage.Schema, len(r.Cols))
		for i, c := range r.Cols {
			schema[i] = storage.Column{Name: c.Name, Type: c.Kind}
		}
		return db.cat.Create(storage.NewTable(r.Name, schema))

	case wal.DropTable:
		db.dropIncrEntries(r.Name)
		return db.cat.Drop(r.Name)

	case wal.Insert:
		t, err := db.cat.Lookup(r.Table)
		if err != nil {
			return err
		}
		preGen := t.Generation()
		n, err := t.InsertBatch(r.Rows)
		db.refreshAppendGen(t, preGen, t.Generation())
		info.RowsReplayed += n
		return err

	case wal.Delete:
		t, err := db.cat.Lookup(r.Table)
		if err != nil {
			return err
		}
		preGen := t.Generation()
		if err := t.DeleteRows(r.Idx); err != nil {
			return err
		}
		db.noteDelete(t, preGen, t.Generation(), r.Idx)
		return nil

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

// Checkpoint writes a snapshot of the whole engine state — every table
// plus the in-sync incremental-grouping evaluators — stamped with the
// current WAL position, then prunes snapshots beyond the retained two
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
	items := db.cache.items()
	sort.Slice(items, func(i, j int) bool { return keyLess(items[i].key, items[j].key) })
	for _, it := range items {
		e := it.e
		t, err := db.cat.Lookup(it.key.table)
		if err != nil {
			continue
		}
		// Read the generation before taking e.mu: Generation takes the
		// table lock (tier 20), which must never nest inside an entry
		// lock (tier 40). The value is stable here — the checkpoint runs
		// under db.wmu, so no writer can advance it.
		gen := t.Generation()
		e.mu.Lock()
		inc, ok := e.ev.(*incr.Incremental)
		if !ok || e.table != t || e.gen != gen {
			// Stale entries rebuild at their next query anyway — a
			// checkpointed copy would only replay into garbage.
			e.mu.Unlock()
			continue
		}
		st, err := inc.ExportState()
		consumed := e.consumed
		e.mu.Unlock()
		if err != nil {
			// A sweep entry, kept at several ε levels, has no export
			// format (incr.ErrNoExportFormat).
			continue
		}
		s.Incr = append(s.Incr, snapshot.IncrEntry{
			Table: it.key.table, Fingerprint: it.key.fingerprint, Consumed: consumed, State: st,
		})
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
