package sgb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestCacheFailedBuildKeepsLiveEntries: a query that cannot build its
// evaluator (a NULL grouping attribute here) must cost the cache
// nothing. Eight built entries fill the default cap — DISTANCE-TO-ALL
// at eight ε, since every DISTANCE-TO-ANY ε of one grouping is a level
// of one entry; eight failing queries under eight distinct keys must
// leave exactly those entries — same pointers, same accumulated work —
// and every one of them must still be served warm.
func TestCacheFailedBuildKeepsLiveEntries(t *testing.T) {
	db := Open()
	loadUniform(t, db, 400, 3)
	mustExec(t, db, "CREATE TABLE holes (id INT, x FLOAT, y FLOAT)")
	mustExec(t, db, "INSERT INTO holes VALUES (1, 0.5, 0.5), (2, 0.6, NULL), (3, 0.7, 0.7)")
	q := func(table string, i int) string {
		return fmt.Sprintf("SELECT count(*) FROM %s GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.%d ON-OVERLAP ELIMINATE", table, i)
	}
	for i := 1; i <= defaultIncrCacheCap; i++ {
		if st := warmQuery(t, db, q("pts", i)); st.PointsExtracted != 400 {
			t.Fatalf("build %d extracted %d rows, want 400", i, st.PointsExtracted)
		}
	}
	built := make(map[incrKey]*incrEntry)
	for _, it := range db.cache.items() {
		built[it.key] = it.e
	}
	if len(built) != defaultIncrCacheCap {
		t.Fatalf("cache holds %d entries, want %d", len(built), defaultIncrCacheCap)
	}
	before := db.CacheStats()

	for i := 1; i <= defaultIncrCacheCap; i++ {
		if _, err := db.QueryOpt(q("holes", i), QueryOptions{Algorithm: GridIndex, Incremental: true}); err == nil {
			t.Fatalf("query %d over a NULL grouping attribute succeeded", i)
		}
	}

	items := db.cache.items()
	if len(items) != len(built) {
		t.Fatalf("cache holds %d entries after the failing queries, want %d", len(items), len(built))
	}
	for _, it := range items {
		if built[it.key] != it.e {
			t.Fatalf("entry %v was evicted or replaced by a failed build", it.key)
		}
	}
	if after := db.CacheStats(); after != before {
		t.Fatalf("CacheStats changed across failing queries:\n before %+v\n  after %+v", before, after)
	}
	for i := 1; i <= defaultIncrCacheCap; i++ {
		if st := warmQuery(t, db, q("pts", i)); st.PointsExtracted != 0 {
			t.Fatalf("entry %d is no longer warm: extracted %d rows", i, st.PointsExtracted)
		}
	}
}

// TestCacheOneEntryPerGrouping: sessions over one table that differ
// only in a setting the grouping does not depend on share one cache
// entry, and the cache shows one build's distance computations — SET
// algorithm under DISTANCE-TO-ANY and under every DISTANCE-TO-ALL
// clause (every strategy groups alike, so a maintained grouping runs on
// the ε-grid whatever the session names), SET seed under every clause
// but JOIN-ANY. JOIN-ANY draws by the seed, so its seeds keep one entry
// each. Every session's answer equals an incremental = off session's
// row for row, evaluated one-shot under its own algorithm.
func TestCacheOneEntryPerGrouping(t *testing.T) {
	anyQ := "SELECT count(*), min(id), max(id) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.4"
	allQ := func(clause string) string {
		return "SELECT count(*), min(id), max(id) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.4 ON-OVERLAP " + clause
	}
	algorithms := []string{"SET algorithm = grid", "SET algorithm = rtree", "SET algorithm = allpairs"}
	allAlgorithms := append(algorithms, "SET algorithm = bounds")
	seeds := []string{"SET seed = 0", "SET seed = 7"}
	for _, tc := range []struct {
		name    string
		sql     string
		sets    []string // one per session
		entries int
	}{
		{"any/algorithm", anyQ, algorithms, 1},
		{"eliminate/algorithm", allQ("ELIMINATE"), allAlgorithms, 1},
		{"form-new-group/algorithm", allQ("FORM-NEW-GROUP"), allAlgorithms, 1},
		{"join-any/algorithm", allQ("JOIN-ANY"), allAlgorithms, 1},
		{"any/seed", anyQ, seeds, 1},
		{"eliminate/seed", allQ("ELIMINATE"), seeds, 1},
		{"form-new-group/seed", allQ("FORM-NEW-GROUP"), seeds, 1},
		{"join-any/seed", allQ("JOIN-ANY"), seeds, len(seeds)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := Open()
			loadUniform(t, db, 800, 21)
			for _, set := range tc.sets {
				on, off := db.NewSession(), db.NewSession()
				for _, s := range []*Session{on, off} {
					if _, err := s.Exec(set); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := on.Exec("SET incremental = on"); err != nil {
					t.Fatal(err)
				}
				got, err := on.Query(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				want, err := off.Query(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Data, want.Data) {
					t.Fatalf("%s: the cached answer differs from incremental = off\n want %v\n  got %v", set, want.Data, got.Data)
				}
			}
			if n := db.cache.len(); n != tc.entries {
				t.Fatalf("%d sessions left %d cache entries, want %d", len(tc.sets), n, tc.entries)
			}
			if tc.entries > 1 {
				return
			}
			one := Open()
			loadUniform(t, one, 800, 21)
			mustExec(t, one, tc.sets[0])
			mustExec(t, one, "SET incremental = on")
			mustQuery(t, one, tc.sql)
			if got, want := db.CacheStats(), one.CacheStats(); got != want || want.DistanceComputations == 0 {
				t.Fatalf("CacheStats after %d sessions = %+v, want one build's %+v", len(tc.sets), got, want)
			}
		})
	}
}

// TestEvalCacheHammer drives every cache operation from 16 goroutines
// (run it under -race) and checks, each time they have all returned,
// that the map is within the cap; then pins the eviction order: the
// victim is the minimum by (lastUse, key).
func TestEvalCacheHammer(t *testing.T) {
	const (
		workers = 16
		rounds  = 20
		ops     = 200
	)
	keys := make([]incrKey, 24)
	for i := range keys {
		keys[i] = incrKey{table: fmt.Sprintf("t%d", i%3), fingerprint: fmt.Sprintf("f%02d", i)}
	}
	c := newEvalCache(defaultIncrCacheCap)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < ops; i++ {
					key := keys[r.Intn(len(keys))]
					switch op := r.Intn(100); {
					case op < 75:
						// The query protocol: acquire, then settle the slot —
						// claim it (evicting over the cap) or give it back.
						e := c.acquire(key)
						if r.Intn(4) == 0 {
							c.remove(cacheItem{key: key, e: e})
						} else {
							c.evictOver()
						}
					case op < 85:
						c.setCap(1 + r.Intn(defaultIncrCacheCap))
					case op < 88:
						c.clearAll()
					default:
						if its := c.items(); len(its) > 0 {
							c.remove(its[r.Intn(len(its))])
						}
					}
				}
			}(int64(round*workers + w))
		}
		wg.Wait()
		c.mu.Lock()
		n, limit := len(c.m), c.cap
		c.mu.Unlock()
		if n > limit {
			t.Fatalf("round %d: %d entries with cap %d", round, n, limit)
		}
	}

	// Eviction order, distinct stamps: oldest use goes first.
	c.clearAll()
	c.setCap(len(keys))
	for _, k := range keys {
		c.acquire(k)
	}
	c.acquire(keys[0]) // keys[1] is now the least recently used
	c.setCap(len(keys) - 1)
	if c.m[keys[1]] != nil || c.len() != len(keys)-1 {
		t.Fatalf("LRU victim: keys[1] present = %v, len %d", c.m[keys[1]] != nil, c.len())
	}
	// Equal stamps: the key order breaks the tie, whatever the map yields.
	for _, e := range c.m {
		e.lastUse = 7
	}
	lowest := keys[0]
	for k := range c.m {
		if keyLess(k, lowest) {
			lowest = k
		}
	}
	c.setCap(len(keys) - 2)
	if c.m[lowest] != nil || c.len() != len(keys)-2 {
		t.Fatalf("tie-break victim %v present = %v, len %d", lowest, c.m[lowest] != nil, c.len())
	}
}
