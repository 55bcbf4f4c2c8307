package sgb

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/plan"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

// Value is a SQL value produced by queries.
type Value = types.Value

// DB is an embedded in-memory SQL engine with the SGB-extended GROUP BY
// syntax. It plays the role of the paper's modified PostgreSQL: parser,
// planner, and executor all understand DISTANCE-TO-ALL / DISTANCE-TO-ANY
// grouping, and SET statements tune the similarity executor per
// session (SET algorithm = grid, SET parallelism = 4, SET seed = 1).
//
// A DB is safe for concurrent use. Open a Session per concurrent
// client (the wire server does this per connection) so SET state stays
// isolated; the DB-level Exec/Query methods share one default session.
// The concurrency discipline, bottom to top:
//
//   - Each table carries its own RWMutex; queries scan an immutable
//     snapshot captured in one coherent read (storage.Table.Snapshot),
//     so a long similarity grouping holds no lock while concurrent
//     statements mutate the table.
//   - wmu serializes mutation statements (INSERT, DELETE, CREATE,
//     DROP, CHECKPOINT, Close, and the durability SET knobs) so the
//     write-ahead log records mutations in exactly apply order.
//     Queries never take it.
//   - Cached incremental grouping state lives in a singleflight cache
//     (see cache.go): sessions asking the same similarity question
//     over one table share a single maintained evaluator, and
//     concurrent cold misses coalesce into one build.
type DB struct {
	cat *storage.Catalog
	// wmu serializes mutation statements. Lock order: wmu, a table's
	// lock, the cache's map lock, an entry's lock, a shared grouping's
	// memo lock — always outermost first, never backwards.
	wmu sync.Mutex
	// cache holds the shared incremental grouping state for the SET
	// incremental maintenance path: a similarity group-by over a bare
	// table scan appends only the rows inserted since the previous
	// query instead of regrouping from scratch, and DELETE feeds the
	// deleted row ids to the cached evaluators' decremental Remove.
	// Entries are keyed by lower-cased table name plus the key of the
	// query's grouping (core.Options.Key), so distinct groupings over one
	// table keep independent states and sessions asking for the same one
	// share it. The cache is bounded (SET incr_cache_size), evicting the
	// least recently used.
	cache *evalCache
	// def is the default session backing the DB-level Exec/Query API.
	def *Session
	// dur is non-nil for a persistent database (OpenDir): mutations
	// append to its write-ahead log and CHECKPOINT snapshots through
	// it. Guarded by wmu (queries never touch it).
	dur *durable
}

// Open creates an empty database. The default session uses the ε-grid
// strategy with automatic parallelism (workers = GOMAXPROCS on large
// inputs) and one-shot (non-incremental) grouping; see SET incremental.
func Open() *DB {
	db := &DB{
		cat:   storage.NewCatalog(),
		cache: newEvalCache(defaultIncrCacheCap),
	}
	db.def = db.NewSession()
	return db
}

// dropIncrEntries removes every cached grouping entry of the named
// table (lower-cased key space).
func (db *DB) dropIncrEntries(name string) {
	name = strings.ToLower(name)
	for _, it := range db.cache.items() {
		if it.key.table == name {
			db.cache.remove(it)
		}
	}
}

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    []types.Row
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// QueryOptions tunes similarity group-by execution for a single query.
type QueryOptions struct {
	// Algorithm selects the SGB strategy (the session default is
	// GridIndex, which supports any number of grouping attributes). Every
	// strategy groups alike, so a maintained grouping, SGB-Any or
	// SGB-All, runs on the ε-grid whatever it names, and sessions that
	// differ only in it share one cache entry.
	Algorithm Algorithm
	// Parallelism bounds the workers a one-shot DISTANCE-TO-ANY EPS IN
	// or SIMILARITY CUBE BY EPS splits its ε levels across, one
	// contiguous range of levels per worker: 0 picks GOMAXPROCS on large
	// inputs, 1 forces sequential evaluation, ≥ 2 allows that many
	// workers (never more than the levels). A single ε, DISTANCE-TO-ALL,
	// and every cached grouping evaluate sequentially. Results are
	// identical at every setting.
	Parallelism int
	// Seed seeds ON-OVERLAP JOIN-ANY arbitration, the one clause that draws.
	Seed int64
	// Stats, when non-nil, accumulates the SGB operator counters of the
	// work this query performed. On the incremental path that is what
	// the query itself extracted, appended to cached state, and folded —
	// all zero when a published answer already held everything; see
	// DB.CacheStats for the counters cached state accumulates across
	// queries.
	Stats *Stats
	// Incremental enables incremental group maintenance (SET
	// incremental = on): similarity group-by queries over a bare
	// single-table scan reuse cached grouping state — one entry per
	// (table, grouping configuration), where every ε of one
	// DISTANCE-TO-ANY grouping, single or in an EPS IN list, is a level
	// of one entry — so a query after INSERTs appends only the new rows.
	// Results are identical to a from-scratch evaluation.
	Incremental bool
}

// Exec runs a DDL/DML statement (CREATE TABLE, INSERT, DROP TABLE) or a
// query whose results are discarded, on the default session. It returns
// the number of affected (or returned) rows.
func (db *DB) Exec(sql string) (int, error) { return db.def.Exec(sql) }

// execCreate runs CREATE TABLE under the writer lock.
func (db *DB) execCreate(s *sqlparser.CreateTableStmt) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	schema := make(storage.Schema, len(s.Columns))
	cols := make([]wal.ColDef, len(s.Columns))
	for i, c := range s.Columns {
		schema[i] = storage.Column{Name: c.Name, Type: c.Type}
		cols[i] = wal.ColDef{Name: c.Name, Kind: c.Type}
	}
	if err := db.cat.Create(storage.NewTable(s.Name, schema)); err != nil {
		return err
	}
	return db.logRecordLocked(wal.CreateTable{Name: s.Name, Cols: cols})
}

// execDrop runs DROP TABLE under the writer lock.
func (db *DB) execDrop(s *sqlparser.DropTableStmt) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.cat.Drop(s.Name); err != nil {
		return err
	}
	// A re-created table of the same name must not inherit the old
	// table's grouping state (the entry's table-identity guard would
	// catch it too; dropping eagerly frees the memory now). In-flight
	// queries over the dropped table finish on their snapshots.
	db.dropIncrEntries(s.Name)
	return db.logRecordLocked(wal.DropTable{Name: s.Name})
}

// execInsert runs INSERT under the writer lock. The statement's rows
// are evaluated up front (stopping at the first bad row), then the
// valid prefix applies as one batch under the table's write lock — a
// concurrent snapshot observes either none or all of a batch's rows
// admitted before the first type error, never a torn statement.
func (db *DB) execInsert(s *sqlparser.InsertStmt) (int, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	t, err := db.cat.Lookup(s.Table)
	if err != nil {
		return 0, err
	}
	// Map the column list (defaults to table order).
	colIdx := make([]int, 0, len(t.Schema))
	if len(s.Columns) == 0 {
		for i := range t.Schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range s.Columns {
			idx := t.Schema.ColumnIndex(name)
			if idx < 0 {
				return 0, fmt.Errorf("sgb: table %s has no column %q", t.Name, name)
			}
			colIdx = append(colIdx, idx)
		}
	}
	var rows []types.Row
	var insErr error
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(colIdx) {
			insErr = fmt.Errorf("sgb: INSERT expects %d values, got %d", len(colIdx), len(exprRow))
			break
		}
		row := make(types.Row, len(t.Schema))
		for i := range row {
			row[i] = types.Null()
		}
		for i, e := range exprRow {
			v, err := evalConstExpr(e)
			if err != nil {
				insErr = err
				break
			}
			row[colIdx[i]] = v
		}
		if insErr != nil {
			break
		}
		rows = append(rows, row)
	}
	preGen := t.Generation()
	n, berr := t.InsertBatch(rows)
	if berr != nil && insErr == nil {
		insErr = berr
	}
	db.refreshAppendGen(t, preGen, t.Generation())
	// Log whatever prefix of the statement actually applied — the rows
	// are read back from the table, post type-coercion, so replay
	// through the same insert path reproduces the stored bytes exactly.
	// A failing statement may thus be partially durable, matching the
	// partial in-memory effect it had.
	if n > 0 {
		stored, _ := t.Snapshot()
		if lerr := db.logRecordLocked(wal.Insert{Table: t.Name, Rows: stored[len(stored)-n:]}); lerr != nil && insErr == nil {
			insErr = lerr
		}
	}
	return n, insErr
}

// refreshAppendGen re-synchronizes the table's cached grouping entries
// after an append-only mutation: appends preserve the prefix rows the
// evaluators hold, so an entry that was in sync before the inserts
// stays valid — only its generation stamp moves forward (the new
// suffix is consumed lazily at the next query). Entries that were
// already out of sync keep their stale stamp and rebuild at query
// time.
func (db *DB) refreshAppendGen(t *storage.Table, preGen, newGen int64) {
	for _, it := range db.cache.items() {
		e := it.e
		e.mu.Lock()
		if e.table == t && e.gen == preGen {
			e.gen = newGen
		}
		e.mu.Unlock()
	}
}

// execDelete runs DELETE FROM t [WHERE ...] under the writer lock: it
// resolves the doomed row set by evaluating the predicate against a
// table snapshot (coherent with the live rows, since the writer lock
// excludes every other mutation), compacts the table, and then
// maintains the table's cached incremental grouping states — entries
// that were in sync receive the deleted row ids through the
// evaluator's decremental Remove (row ids and grouping live ids
// coincide by the entry invariant), entries that were not are dropped
// and rebuild on their next query.
func (db *DB) execDelete(s *sqlparser.DeleteStmt, opt QueryOptions) (int, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	t, err := db.cat.Lookup(s.Table)
	if err != nil {
		return 0, err
	}
	var pred exec.Scalar
	if s.Where != nil {
		// The predicate's builder carries the session's similarity
		// settings, so a subquery inside DELETE ... WHERE resolves its
		// doomed rows exactly as the identical SELECT would in this
		// session (same strategy, same JOIN-ANY seed).
		pred, err = db.builder(opt).CompileTableExpr(t, s.Where)
		if err != nil {
			return 0, err
		}
	}
	rows, preGen := t.Snapshot()
	var doomed []int
	for i, row := range rows {
		if pred != nil {
			v, err := pred(row)
			if err != nil {
				return 0, err
			}
			if !v.Truthy() {
				continue
			}
		}
		doomed = append(doomed, i)
	}
	if len(doomed) == 0 {
		return 0, nil
	}
	if err := t.DeleteRows(doomed); err != nil {
		return 0, err
	}
	db.noteDelete(t, preGen, t.Generation(), doomed)
	return len(doomed), db.logRecordLocked(wal.Delete{Table: t.Name, Idx: doomed})
}

// noteDelete maintains the table's cached incremental grouping states
// after rows were deleted: entries that were in sync (gen == preGen) —
// SGB-Any level forests and SGB-All groupings alike — receive the
// deleted row ids through their decremental Remove, entries that were
// not (or whose Remove fails) are dropped and rebuild on their next
// query.
//
// The entries share nothing — each is its own evaluator under its own
// lock, repairing only the ε-components the victims touched — so they
// are maintained at once: the first on the calling goroutine, each
// further one on a goroutine of its own, and noteDelete returns when
// all are done. A table with one entry starts no goroutine. Every
// worker holds only its own entry's lock, under the caller's writer
// lock, so the lock order is the sequential loop's. A panic in one
// entry's maintenance drops that entry; once every entry is done, the
// first panic is raised again on the calling goroutine, where the
// caller can recover it.
func (db *DB) noteDelete(t *storage.Table, preGen, newGen int64, doomed []int) {
	// An entry of t is keyed under t's lower-cased name (sgbAnswerFunc);
	// maintainDeleted checks the identity itself.
	name := strings.ToLower(t.Name)
	its := db.cache.items()
	n := 0
	for _, it := range its {
		if it.key.table == name {
			its[n] = it
			n++
		}
	}
	if n == 0 {
		return
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for k := 1; k < n; k++ {
		go func(k int) {
			defer wg.Done()
			panics[k] = db.maintainDeleted(its[k], t, preGen, newGen, doomed)
		}(k)
	}
	panics[0] = db.maintainDeleted(its[0], t, preGen, newGen, doomed)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// maintainDeleted is noteDelete's work on one entry. It recovers a
// panic in the entry's maintenance, drops the entry and returns the
// panic's value; otherwise it returns nil.
func (db *DB) maintainDeleted(it cacheItem, t *storage.Table, preGen, newGen int64, doomed []int) (panicked any) {
	defer func() {
		if panicked = recover(); panicked != nil {
			db.cache.remove(it)
		}
	}()
	if !it.e.feedDeleted(t, preGen, newGen, doomed) {
		db.cache.remove(it)
	}
	return nil
}

// feedDeleted feeds a DELETE's row ids to the entry's evaluator and
// reports whether the entry is still worth keeping. The check and the
// feed happen under one hold of the entry lock: released in between, a
// query could rebuild the entry at newGen — from rows that no longer
// hold the victims — and the feed would then delete them twice. The
// evaluator is detached while it repairs, so one that panics leaves the
// entry holding none.
func (e *incrEntry) feedDeleted(t *storage.Table, preGen, newGen int64, doomed []int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.table != t {
		return true
	}
	if e.gen != preGen || e.ev == nil {
		// The entry missed an earlier mutation — it would rebuild at query
		// time anyway, and feeding it deletions now could only corrupt it
		// further — or is still mid-build: nothing to maintain.
		return false
	}
	// Row ids below consumed are exactly the evaluator's live ids;
	// rows at or beyond consumed were never absorbed and simply
	// vanish before they ever would be. The evaluator repairs the
	// forests of the trees the deleted points were in; the work is
	// maintenance no query asked for.
	fed := doomed[:0:0]
	for _, i := range doomed {
		if i < e.consumed {
			fed = append(fed, i)
		}
	}
	ev := e.ev
	e.ev = nil
	err := ev.Remove(fed)
	e.flushWork(nil)
	if err != nil {
		return false
	}
	e.ev = ev
	e.consumed -= len(fed)
	e.gen = newGen
	return true
}

// evalConstExpr evaluates a row-independent expression (literals,
// arithmetic, date/interval math) for INSERT ... VALUES.
func evalConstExpr(e sqlparser.Expr) (types.Value, error) {
	cq, err := plan.CompileConstant(e)
	if err != nil {
		return types.Value{}, err
	}
	return cq, nil
}

// SessionOptions returns the default session's current options (as
// mutated by SET statements executed through DB.Exec).
func (db *DB) SessionOptions() QueryOptions { return db.def.Options() }

// Query runs a SELECT with the default session's options.
func (db *DB) Query(sql string) (*Rows, error) { return db.def.Query(sql) }

// QueryOpt runs a SELECT with explicit similarity-grouping options.
func (db *DB) QueryOpt(sql string, opt QueryOptions) (*Rows, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.runSelect(sel, opt)
}

// builder returns a planner carrying the session's similarity settings.
func (db *DB) builder(opt QueryOptions) *plan.Builder {
	b := plan.NewBuilder(db.cat)
	b.SGBAlgorithm, b.SGBParallelism, b.SGBSeed, b.SGBStats = opt.Algorithm, opt.Parallelism, opt.Seed, opt.Stats
	return b
}

func (db *DB) runSelect(sel *sqlparser.SelectStmt, opt QueryOptions) (*Rows, error) {
	b := db.builder(opt)
	if opt.Incremental {
		b.SGBAnswer = db.sgbAnswerFunc
	}
	cq, err := b.BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	data, err := plan.Execute(cq)
	if err != nil {
		return nil, err
	}
	return &Rows{Columns: cq.Columns, Data: data}, nil
}

// sgbAnswerFunc implements plan.Builder.SGBAnswer: the one protocol
// between similarity queries and the shared evaluator cache, for
// single-ε queries (epsList nil) and EPS IN sweeps alike. Soundness
// rests on three facts: the planner installs the hook only for bare
// single-table scans, table snapshots grow append-only between
// generation changes the cache tracks, and the cache key covers the
// table identity, the grouping expressions, and every option that can
// change the grouping (core.Options.Key). An SGB-Any key covers ONLY
// the metric (plus table and expressions) — its components depend on
// nothing else — so every DISTANCE-TO-ANY query of one grouping, a
// single ε or an ε list, shares one evaluator kept at several levels:
// built at the first query's levels, given a level a later query asks
// for (one cell-graph pass over the live points, charged to that query)
// while it keeps fewer than core.MaxLevels, and rebuilt at a new top,
// keeping the levels below, when a query exceeds the old one. A
// single-ε query is a one-level read of that entry.
//
// A query whose snapshot the entry's published answer covers takes one
// atomic load and leaves: no point is extracted, the evaluator is not
// consulted, and the entry lock is not touched. Otherwise the entry
// lock is the singleflight slot: N sessions missing at once serialize,
// the first builds or extends the evaluator (the work lands in the
// entry's shared Stats and in that query's own block), publishes the
// generation's answer, and the rest find it. A snapshot that missed a
// mutation the cache tracked is brought up to date by extracting and
// appending only the rows past consumed; one the evaluator cannot be
// synchronized with (another table of the same name, a generation the
// cache did not follow) rebuilds it. A session whose snapshot is OLDER
// than the entry never rewinds shared state: it is served the previous
// generation's answer while that is retained, and evaluates privately
// (a nil return) after.
func (db *DB) sgbAnswerFunc(table, exprKey string, anySem bool, epsList []float64, opt core.Options) exec.AnswerFunc {
	// Cached state outlives any single query, so it runs under the
	// options its key prints and no session's other knobs: Parallelism
	// is 0 whatever the session set — every append runs sequentially —
	// and the query's Stats block is charged through flushWork, never
	// retained. The query's levels are read first: an SGB-Any key keeps
	// no ε.
	st := opt.Stats
	if len(epsList) == 0 {
		epsList = []float64{opt.Eps}
	}
	opt = opt.Maintained(anySem)
	key := incrKey{table: strings.ToLower(table), fingerprint: opt.Key(anySem, exprKey)}
	return func(src exec.Snapshot) ([]*exec.Grouping, error) {
		t, err := db.cat.Lookup(table)
		if err != nil {
			return nil, err
		}
		if src.Gen < 0 {
			// Not a table-scan snapshot (hand-built plan): nothing to key
			// cached state to.
			return nil, nil
		}
		n := len(src.Rows)
		e := db.cache.acquire(key)
		if gs := e.ans.Load().serve(t, src.Gen, n, epsList); gs != nil {
			return gs, nil
		}
		e.mu.Lock()
		defer func() {
			unbuilt := e.ev == nil
			e.mu.Unlock()
			// acquire evicts nothing: the slot is claimed now, or — the
			// build failed — given back without pushing a live entry out.
			if unbuilt {
				db.cache.remove(cacheItem{key: key, e: e})
			} else {
				db.cache.evictOver()
			}
		}()
		cur := e.ans.Load()
		if gs := cur.serve(t, src.Gen, n, epsList); gs != nil {
			return gs, nil // published while this query waited for the lock
		}
		if e.ev != nil && e.table == t && src.Gen < e.gen {
			return nil, nil
		}
		// The generation check is the staleness guard: an entry whose
		// stamp does not match the snapshot's generation missed a
		// mutation (a delete through a path the cache could not track, a
		// direct storage append, ...). A row-count check alone is not
		// enough — a delete followed by inserts restoring the old count
		// would slip past it and serve groups over rows that no longer
		// exist.
		if e.ev == nil || e.table != t || e.gen != src.Gen || e.consumed > n ||
			(anySem && slices.Max(e.ev.Levels()) < slices.Max(epsList)) {
			bopt := opt
			bopt.Stats = &e.work
			var ev evaluator
			if anySem {
				ev, err = core.NewAnyLevels(sweepLevels(e.ev, epsList), bopt)
			} else {
				ev, err = core.NewAllEvaluator(bopt)
			}
			if err != nil {
				// Kept: the old evaluator still matches e.table and e.consumed
				// (ev holds a typed nil here).
				return nil, err
			}
			e.ev, e.table, e.consumed, e.gen = ev, t, 0, src.Gen
		}
		if n > e.consumed {
			points, err := src.Points(e.consumed)
			if err != nil {
				if e.consumed == 0 {
					e.ev = nil // holds nothing: not worth a slot
				}
				return nil, err
			}
			err = e.ev.Append(points)
			e.flushWork(st)
			if err != nil {
				// A torn append leaves the evaluator holding an unknown
				// prefix; poison the entry so the next query rebuilds.
				e.ev = nil
				return nil, err
			}
			e.consumed = n
		}
		// Publish: the current answer gains this query's missing levels
		// when it already describes this snapshot; otherwise a new
		// generation's answer succeeds it.
		next := &answer{table: t, gen: src.Gen, consumed: n}
		if cur.covers(t, src.Gen, n) {
			next.levels, next.prev = cur.levels[:len(cur.levels):len(cur.levels)], cur.prev
		} else if cur != nil && cur.table == t {
			prev := *cur
			prev.prev = nil
			next.prev = &prev
		}
		gs := make([]*exec.Grouping, len(epsList))
		for i, eps := range epsList {
			if gs[i] = next.level(eps); gs[i] != nil {
				continue
			}
			// A level the entry does not keep costs this query one
			// cell-graph pass over the live points; while there is room,
			// the entry keeps it, so the pass is the only one.
			if anySem {
				if levels := e.ev.Levels(); len(levels) < core.MaxLevels && !slices.Contains(levels, eps) {
					if err := e.ev.AddLevel(eps); err != nil {
						e.flushWork(st)
						return nil, err
					}
				}
			}
			res, err := e.ev.GroupsAt(eps)
			e.flushWork(st)
			if err != nil {
				return nil, err
			}
			gs[i] = exec.NewGrouping(res)
			if len(next.levels) < core.MaxLevels {
				next.levels = append(next.levels, answerLevel{eps: eps, g: gs[i]})
			}
		}
		e.ans.Store(next)
		return gs, nil
	}
}

// sweepLevels is the level list an SGB-Any entry is built with: the
// query's levels and those the entry kept before (a rebuild above its
// top keeps them below the new one), the largest core.MaxLevels of
// them.
func sweepLevels(old evaluator, epsList []float64) []float64 {
	levels := slices.Clone(epsList)
	if old != nil {
		for _, eps := range old.Levels() {
			if !slices.Contains(levels, eps) {
				levels = append(levels, eps)
			}
		}
	}
	slices.Sort(levels)
	return levels[max(0, len(levels)-core.MaxLevels):]
}

// loadChunkBytes ends a LoadCSV WAL record at the row that crosses it.
const loadChunkBytes = 1 << 20

// LoadCSV creates a table from CSV previously written by DumpCSV (the
// header carries "name:type" cells). A persistent database logs it as a
// CREATE TABLE and bounded INSERT records, each applied before it is
// logged — an automatic checkpoint may fire between any two — so a
// crash mid-load recovers to a prefix of the file's rows.
func (db *DB) LoadCSV(name string, r io.Reader) error {
	src, err := storage.ReadCSV(name, r)
	if err != nil {
		return err
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.dur == nil {
		return db.cat.Create(src)
	}
	t := storage.NewTable(src.Name, src.Schema)
	if err := db.cat.Create(t); err != nil {
		return err
	}
	cols := make([]wal.ColDef, len(t.Schema))
	for i, c := range t.Schema {
		cols[i] = wal.ColDef{Name: c.Name, Kind: c.Type}
	}
	if err := db.logRecordLocked(wal.CreateTable{Name: t.Name, Cols: cols}); err != nil {
		return err
	}
	rows, _ := src.Snapshot() // post-coercion: ReadCSV admitted them through Insert
	var enc []byte
	for len(rows) > 0 {
		k := 0
		for size := 0; k < len(rows) && size < loadChunkBytes; k++ {
			enc = wal.AppendRow(enc[:0], rows[k])
			size += len(enc)
		}
		if _, err := t.InsertBatch(rows[:k]); err != nil {
			return err
		}
		if err := db.logRecordLocked(wal.Insert{Table: t.Name, Rows: rows[:k]}); err != nil {
			return err
		}
		rows = rows[k:]
	}
	return nil
}

// DumpCSV serializes a table to CSV.
func (db *DB) DumpCSV(name string, w io.Writer) error {
	t, err := db.cat.Lookup(name)
	if err != nil {
		return err
	}
	return t.WriteCSV(w)
}

// Tables lists the registered table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// TableLen returns the row count of a table.
func (db *DB) TableLen(name string) (int, error) {
	t, err := db.cat.Lookup(name)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// Catalog exposes the underlying catalog for in-module tooling (data
// generators, benchmarks). Not part of the stable public surface.
func (db *DB) Catalog() *storage.Catalog { return db.cat }
