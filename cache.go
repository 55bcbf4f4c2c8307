package sgb

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/incr"
	"github.com/sgb-db/sgb/internal/storage"
)

// The shared evaluator cache. Every session of a DB draws its cached
// incremental grouping state — resumable SGB evaluators and ε-lattice
// dendrograms — from this one structure, so N sessions asking the same
// similarity question over one table share ONE maintained evaluator
// instead of building N. The cache is sharded (key-hashed shards, each
// with its own mutex) so concurrent sessions touching different
// entries never contend, and each entry carries its own mutex as a
// singleflight slot: concurrent misses for the same key all acquire
// the same entry, the first to lock it builds, and the rest find the
// built state when the lock frees — coalescing N identical cold
// queries into a single evaluation. Each entry also accumulates the
// operator work (distance computations, probes, ...) spent building
// and maintaining it, so DB.CacheStats can prove that sharing happened
// (N sessions, one build's worth of distance computations).

// cacheShardCount is the number of key-hashed shards. 16 keeps lock
// contention negligible at the benchmark's 128 concurrent sessions
// while the per-shard maps stay small enough to scan cheaply during
// LRU eviction.
const cacheShardCount = 16

// defaultIncrCacheCap bounds the evaluator cache: enough for a handful
// of distinct similarity queries per table without letting a
// query-generating workload accumulate evaluators (each one retains a
// full copy of its table's grouping attributes).
const defaultIncrCacheCap = 8

// incrKey addresses one cached incremental grouping state.
type incrKey struct {
	table       string // lower-cased table name
	fingerprint string // semantics, options, and grouping exprs
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
// mu is the entry's singleflight lock: every build, append, export,
// maintenance feed, and result read holds it, so concurrent sessions
// hitting one key serialize on the entry — the first builds, the rest
// reuse — and the single-threaded evaluators underneath never see
// concurrent calls. All fields below mu are guarded by it; lastUse is
// atomic because the cache touches it under shard locks instead.
type incrEntry struct {
	mu    sync.Mutex
	table *storage.Table // identity guard against DROP + re-CREATE
	// Exactly one of inc and lat is set once built. inc is single-ε
	// incremental grouping state; lat is a shared ε-lattice dendrogram
	// (EPS IN / SIMILARITY CUBE): its fingerprint deliberately excludes
	// ε, so every session sweeping this table under one (metric,
	// grouping) configuration reuses one maintained evaluator
	// regardless of which ε levels it asks for. Lattice entries follow
	// the same consumed / gen protocol but take no decremental
	// maintenance — a DELETE drops them (single-linkage merges cannot
	// be unwound).
	inc      *incr.Incremental
	lat      *core.LatticeEvaluator
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

	lastUse atomic.Int64 // cache clock reading at the entry's last use
}

// built reports whether the entry holds an evaluator.
func (e *incrEntry) built() bool { return e.inc != nil || e.lat != nil }

// appendSet feeds the next snapshot rows' points to the evaluator.
func (e *incrEntry) appendSet(ps *geom.PointSet) error {
	if e.lat != nil {
		return e.lat.AppendSet(ps, &e.work)
	}
	return e.inc.AppendSet(ps)
}

// groupsAt materializes the evaluator's grouping at one ε level (a
// single-ε evaluator has only its own).
func (e *incrEntry) groupsAt(eps float64) (*core.Result, error) {
	if e.lat != nil {
		return e.lat.GroupsAt(eps)
	}
	return e.inc.Result()
}

// flushWork charges the evaluator work done since the last flush to
// the entry's shared counters and to st, the causing query's block
// (nil for maintenance no query asked for).
func (e *incrEntry) flushWork(st *core.Stats) {
	e.stats.Merge(&e.work)
	st.Merge(&e.work)
	e.work = core.Stats{}
}

// maxAnswerLevels bounds the ε levels one answer retains; a sweep
// asking for more has the rest cut per query.
const maxAnswerLevels = 16

// answer is an entry's immutable result for one table generation: the
// groups the evaluator held after absorbing all consumed rows of that
// generation's snapshot — per ε level for a lattice entry, exactly one
// level otherwise — each with its memoized aggregate columns. It is
// valid for a query iff table, gen, and consumed equal the query's
// snapshot, and for such a query forever: a generation names one row
// sequence. Publication is copy-on-write under the entry lock (a new
// level, or a new generation, is a new answer), so readers need one
// atomic load and no lock. prev keeps the answer of the generation
// before, for readers whose scan predates the latest mutation; it has
// no prev of its own, so everything older dies with its generation.
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

// evalCache is the sharded, LRU-bounded entry store.
type evalCache struct {
	cap     atomic.Int64 // SET incr_cache_size
	count   atomic.Int64 // live entries across all shards
	clock   atomic.Int64 // monotonic use counter driving LRU eviction
	evictMu sync.Mutex   // serializes evictors (evictions are rare)
	shards  [cacheShardCount]cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[incrKey]*incrEntry
}

func newEvalCache(capacity int) *evalCache {
	c := &evalCache{}
	c.cap.Store(int64(capacity))
	for i := range c.shards {
		c.shards[i].m = make(map[incrKey]*incrEntry)
	}
	return c
}

// shardFor hashes the key (FNV-1a over both parts) to its shard.
func (c *evalCache) shardFor(key incrKey) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key.table); i++ {
		h = (h ^ uint32(key.table[i])) * 16777619
	}
	for i := 0; i < len(key.fingerprint); i++ {
		h = (h ^ uint32(key.fingerprint[i])) * 16777619
	}
	return &c.shards[h%cacheShardCount]
}

// acquire returns the entry for key, creating an empty placeholder on
// miss, and stamps it as just used. The caller locks the entry's mu
// before inspecting or building its state — that lock is what
// coalesces concurrent misses into one build.
func (c *evalCache) acquire(key incrKey) *incrEntry {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		e = &incrEntry{}
		s.m[key] = e
		c.count.Add(1)
	}
	e.lastUse.Store(c.clock.Add(1))
	s.mu.Unlock()
	if !ok {
		c.evictOver()
	}
	return e
}

// add inserts a pre-built entry (the recovery path restoring
// checkpointed evaluators).
func (c *evalCache) add(key incrKey, e *incrEntry) {
	s := c.shardFor(key)
	s.mu.Lock()
	if _, ok := s.m[key]; !ok {
		c.count.Add(1)
	}
	s.m[key] = e
	e.lastUse.Store(c.clock.Add(1))
	s.mu.Unlock()
	c.evictOver()
}

// setCap changes the entry cap; shrinking evicts down immediately,
// least recently used first.
func (c *evalCache) setCap(n int) {
	c.cap.Store(int64(n))
	c.evictOver()
}

// len returns the live entry count.
func (c *evalCache) len() int { return int(c.count.Load()) }

// evictOver evicts least-recently-used entries until the count is
// within the cap. An entry evicted while a session still holds its
// pointer simply finishes that session's query orphaned — correct,
// merely unshared — and the next query for its key rebuilds.
func (c *evalCache) evictOver() {
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	for c.count.Load() > c.cap.Load() {
		var victimShard *cacheShard
		var victimKey incrKey
		oldest := int64(math.MaxInt64)
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			// Equal-lastUse ties break by key so repeated eviction runs
			// pick the same victim whatever order the map yields.
			for k, e := range s.m { //sgblint:allow determinism min-fold with a total-order key tie-break; iteration order cannot change the victim
				u := e.lastUse.Load()
				if u < oldest || (u == oldest && keyLess(k, victimKey)) {
					oldest, victimShard, victimKey = u, s, k
				}
			}
			s.mu.Unlock()
		}
		if victimShard == nil {
			return
		}
		victimShard.mu.Lock()
		// Re-check under the shard lock: a concurrent touch since the
		// scan means this entry is no longer the LRU — skip it and scan
		// again.
		if e, ok := victimShard.m[victimKey]; ok && e.lastUse.Load() == oldest {
			delete(victimShard.m, victimKey)
			c.count.Add(-1)
		}
		victimShard.mu.Unlock()
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
	key   incrKey
	e     *incrEntry
	shard *cacheShard
}

// items captures the current entry set, shard by shard. Callers then
// lock each entry's mu individually — never while holding a shard
// lock — so a long-running build on one entry cannot stall unrelated
// cache traffic.
func (c *evalCache) items() []cacheItem {
	var out []cacheItem
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.m { //sgblint:allow determinism capture order is incidental; every ordered consumer sorts the returned items
			out = append(out, cacheItem{key: k, e: e, shard: s})
		}
		s.mu.Unlock()
	}
	return out
}

// remove deletes a captured item if the map still holds that exact
// entry (a concurrent eviction-plus-rebuild must not be collateral).
func (c *evalCache) remove(it cacheItem) {
	it.shard.mu.Lock()
	if cur, ok := it.shard.m[it.key]; ok && cur == it.e {
		delete(it.shard.m, it.key)
		c.count.Add(-1)
	}
	it.shard.mu.Unlock()
}

// clearAll drops every entry.
func (c *evalCache) clearAll() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.count.Add(-int64(len(s.m)))
		s.m = make(map[incrKey]*incrEntry)
		s.mu.Unlock()
	}
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
