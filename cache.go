package sgb

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/storage"
)

// The shared evaluator cache. Every session of a DB draws its cached
// incremental grouping state — an SGB-All evaluator per ε, an SGB-Any
// one kept at every ε level asked of it — from this one structure, so N
// sessions asking the same similarity question over one table share ONE
// maintained evaluator instead of building N. One mutex guards the key
// → entry map (held for a lookup or an eviction scan, never across
// evaluator work), and each entry carries its own mutex as a
// singleflight slot: concurrent misses for the same key all acquire the
// same entry, the first to lock it
// builds, and the rest find the built state when the lock frees —
// coalescing N identical cold queries into a single evaluation. Each
// entry also accumulates the operator work (distance computations,
// probes, ...) spent building and maintaining it, so DB.CacheStats can
// prove that sharing happened (N sessions, one build's worth of
// distance computations).

// defaultIncrCacheCap bounds the evaluator cache: enough for a handful
// of distinct similarity queries per table without letting a
// query-generating workload accumulate evaluators (each one retains a
// full copy of its table's grouping attributes).
const defaultIncrCacheCap = 8

// incrKey addresses one cached incremental grouping state.
type incrKey struct {
	table       string // lower-cased table name
	fingerprint string // core.Options.Key of the grouping and its exprs
}

// incrEntry is one cached incremental grouping state. Its invariant:
// the entry's evaluator holds exactly the first consumed rows of the
// table snapshot at generation gen, in order. Every mutation path
// keeps the pair current — INSERT refreshes gen (appends preserve the
// prefix), DELETE feeds the evaluator's Remove and refreshes gen — so
// a generation mismatch at query time means the table mutated behind
// the cache's back and the entry must be rebuilt. Keying on the
// generation (not the row count) is what makes a delete followed by
// inserts restoring the old length detectable.
//
// mu is the entry's singleflight lock: every build, append,
// maintenance feed, and result read holds it, so concurrent sessions
// hitting one key serialize on the entry — the first builds, the rest
// reuse — and the single-threaded evaluators underneath never see
// concurrent calls. All fields below mu are guarded by it, except ans
// (atomic) and lastUse (guarded by the cache's mutex instead).
type incrEntry struct {
	mu    sync.Mutex
	table *storage.Table // identity guard against DROP + re-CREATE
	// ev is the entry's evaluator once built: SGB-All grouping state at
	// one ε, or an SGB-Any handle kept at several ε levels
	// (incr.NewLevels). An SGB-Any fingerprint deliberately excludes ε,
	// so every DISTANCE-TO-ANY statement over this table under one
	// (metric, grouping) configuration — WITHIN, EPS IN or SIMILARITY
	// CUBE — reuses one maintained evaluator whichever levels it asks
	// for: a level the entry does not keep is added to it. Both follow
	// the same consumed / gen protocol, DELETE included: the forests are
	// repaired around the deleted rows, not dropped.
	ev       evaluator
	consumed int   // how many snapshot rows the state has absorbed
	gen      int64 // table generation the entry is synchronized with
	// stats accumulates the operator work performed building and
	// maintaining this entry, across every session that used it. work is
	// the block the evaluators charge; flushWork moves it into stats (and
	// into the per-query block of the query that caused it) before mu is
	// released.
	stats, work core.Stats

	// ans is the entry's published answer: written under mu, read by
	// queries without it.
	ans atomic.Pointer[answer]

	lastUse int64 // cache clock reading at the entry's last use; guarded by evalCache.mu
}

// evaluator is what an entry holds: an *incr.Incremental, whose Stats
// block is the entry's work.
type evaluator interface {
	AppendSet(ps *geom.PointSet) error
	Remove(ids []int) error
	Levels() []float64
	AddLevel(eps float64) error
	GroupsAt(eps float64) (*core.Result, error)
}

// flushWork charges the evaluator work done since the last flush to
// the entry's shared counters and to st, the causing query's block
// (nil for maintenance no query asked for).
func (e *incrEntry) flushWork(st *core.Stats) {
	e.stats.Merge(&e.work)
	st.Merge(&e.work)
	e.work = core.Stats{}
}

// answer is an entry's immutable result for one table generation: the
// groups the evaluator held after absorbing all consumed rows of that
// generation's snapshot — per ε level asked (one for SGB-All) — each
// with its memoized aggregate columns. It is valid for a query iff
// table, gen, and consumed equal the query's snapshot, and for such a
// query forever: a generation names one row sequence. Publication is
// copy-on-write under the entry lock (a new level, or a new generation,
// is a new answer), so readers need one atomic load and no lock. prev
// keeps the answer of the generation before, for readers whose scan
// predates the latest mutation; it has no prev of its own, so
// everything older dies with its generation.
type answer struct {
	table    *storage.Table
	gen      int64
	consumed int
	levels   []answerLevel
	prev     *answer
}

type answerLevel struct {
	eps float64
	g   *exec.Grouping
}

// covers reports whether the answer describes exactly the given
// snapshot.
func (a *answer) covers(t *storage.Table, gen int64, n int) bool {
	return a != nil && a.table == t && a.gen == gen && a.consumed == n
}

// level returns the grouping at eps, or nil.
func (a *answer) level(eps float64) *exec.Grouping {
	for _, l := range a.levels {
		if l.eps == eps {
			return l.g
		}
	}
	return nil
}

// serve returns the groupings at every level of epsList when the
// answer (or its predecessor) covers the snapshot and holds them all;
// nil otherwise.
func (a *answer) serve(t *storage.Table, gen int64, n int, epsList []float64) []*exec.Grouping {
	if a != nil && !a.covers(t, gen, n) {
		a = a.prev
	}
	if !a.covers(t, gen, n) {
		return nil
	}
	gs := make([]*exec.Grouping, len(epsList))
	for i, eps := range epsList {
		if gs[i] = a.level(eps); gs[i] == nil {
			return nil
		}
	}
	return gs
}

// evalCache is the LRU-bounded entry store. mu is never held while
// taking an entry's lock: a long build must not stall other lookups.
type evalCache struct {
	mu    sync.Mutex
	m     map[incrKey]*incrEntry
	cap   int   // SET incr_cache_size
	clock int64 // monotonic use counter driving LRU eviction
}

func newEvalCache(capacity int) *evalCache {
	return &evalCache{m: make(map[incrKey]*incrEntry), cap: capacity}
}

// acquire returns the entry for key, creating an empty placeholder on
// miss, and stamps it as just used. The caller locks the entry's mu
// before inspecting or building its state — that lock is what
// coalesces concurrent misses into one build. A placeholder evicts
// nothing: its builder calls evictOver once it holds an evaluator, or
// remove when the build failed and must cost the cache no live entry.
func (c *evalCache) acquire(key incrKey) *incrEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		e = &incrEntry{}
		c.m[key] = e
	}
	c.clock++
	e.lastUse = c.clock
	return e
}

// setCap changes the entry cap; shrinking evicts down immediately,
// least recently used first.
func (c *evalCache) setCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	c.evictLocked()
}

// len returns the live entry count.
func (c *evalCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// evictOver evicts least-recently-used entries until the count is
// within the cap. An entry evicted while a session still holds its
// pointer simply finishes that session's query orphaned — correct,
// merely unshared — and the next query for its key rebuilds.
func (c *evalCache) evictOver() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
}

func (c *evalCache) evictLocked() {
	for len(c.m) > c.cap {
		var victim incrKey
		oldest := int64(math.MaxInt64)
		for k, e := range c.m { //sgblint:allow determinism min-fold with a total-order key tie-break; iteration order cannot change the victim
			if e.lastUse < oldest || (e.lastUse == oldest && keyLess(k, victim)) {
				oldest, victim = e.lastUse, k
			}
		}
		delete(c.m, victim)
	}
}

// keyLess orders cache keys by (table, fingerprint) — the
// deterministic tie-break for equal-lastUse eviction candidates.
func keyLess(a, b incrKey) bool {
	if a.table != b.table {
		return a.table < b.table
	}
	return a.fingerprint < b.fingerprint
}

// cacheItem is one (key, entry) pair captured by items.
type cacheItem struct {
	key incrKey
	e   *incrEntry
}

// items captures the current entry set. Callers then lock each entry's
// mu individually, after the cache lock is released.
func (c *evalCache) items() []cacheItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheItem, 0, len(c.m))
	for k, e := range c.m { //sgblint:allow determinism capture order is incidental; every consumer acts on each item independently
		out = append(out, cacheItem{key: k, e: e})
	}
	return out
}

// remove deletes a captured item if the map still holds that exact
// entry (a concurrent eviction-plus-rebuild must not be collateral).
func (c *evalCache) remove(it cacheItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[it.key] == it.e {
		delete(c.m, it.key)
	}
}

// clearAll drops every entry.
func (c *evalCache) clearAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[incrKey]*incrEntry)
}

// CacheStats sums the operator work spent building and maintaining
// every live evaluator-cache entry. It is the shared-cache proof
// hook: after N sessions concurrently issue the same similarity query
// over one table, the cache must report a single evaluation's worth of
// distance computations — the singleflight entry locks coalesced the
// other N-1 builds into reads. Evicted entries take their counters
// with them, so compare against a cap large enough for the workload
// under test.
func (db *DB) CacheStats() Stats {
	var total core.Stats
	for _, it := range db.cache.items() {
		it.e.mu.Lock()
		s := it.e.stats
		it.e.mu.Unlock()
		total.Merge(&s)
	}
	return total
}
