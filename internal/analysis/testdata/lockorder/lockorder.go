// Package fixture exercises the lockorder analyzer: the lock types
// mirror the engine's hierarchy by name (classification is by type
// and field name), so the fixture needs no engine imports.
package fixture

import "sync"

// DB mirrors the engine's DB: wmu is the tier-10 writer lock.
type DB struct {
	wmu sync.Mutex
}

// Table mirrors storage.Table: mu is a tier-20 lock.
type Table struct {
	mu sync.RWMutex
}

// evalCache mirrors the evaluator cache: mu is the tier-30 map lock.
type evalCache struct {
	mu sync.Mutex
}

type incrEntry struct {
	mu sync.Mutex
}

// ordered acquires strictly inward — clean.
func ordered(db *DB, t *Table, c *evalCache, e *incrEntry) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	c.mu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	c.mu.Unlock()
}

// cacheInsideEntry takes the cache's map lock while holding an entry
// lock — the entry's builder must settle its slot after unlocking.
func cacheInsideEntry(c *evalCache, e *incrEntry) {
	e.mu.Lock()
	c.mu.Lock() // want `lock order inversion`
	c.mu.Unlock()
	e.mu.Unlock()
}

// inverted takes a table lock while holding an entry lock.
func inverted(t *Table, e *incrEntry) {
	e.mu.Lock()
	t.mu.RLock() // want `lock order inversion`
	t.mu.RUnlock()
	e.mu.Unlock()
}

// double reacquires a held lock.
func double(db *DB) {
	db.wmu.Lock()
	db.wmu.Lock() // want `self-deadlock`
	db.wmu.Unlock()
	db.wmu.Unlock()
}

// branches locks wmu in two switch arms; the arms are alternatives,
// not a sequence, so this is clean — the walker forks per branch.
func branches(db *DB, mode int) {
	switch mode {
	case 0:
		db.wmu.Lock()
		defer db.wmu.Unlock()
	case 1:
		db.wmu.Lock()
		defer db.wmu.Unlock()
	}
}

// unlockThenLock releases before reacquiring — clean.
func unlockThenLock(e *incrEntry, t *Table) {
	e.mu.Lock()
	e.mu.Unlock()
	t.mu.Lock()
	t.mu.Unlock()
}

// takesTable acquires the tier-20 table lock; callers holding an
// inner lock must not call it.
func takesTable(t *Table) {
	t.mu.Lock()
	t.mu.Unlock()
}

// callInversion holds the entry lock across a call that acquires the
// table lock — an inversion through the call graph.
func callInversion(t *Table, e *incrEntry) {
	e.mu.Lock()
	takesTable(t) // want `may acquire`
	e.mu.Unlock()
}

// viaHelper is the transitive case: helper itself calls takesTable.
func viaHelper(t *Table, e *incrEntry) {
	e.mu.Lock()
	helper(t) // want `may acquire`
	e.mu.Unlock()
}

func helper(t *Table) {
	takesTable(t)
}

// goroutineBody runs its closure concurrently; the closure's
// acquisitions are not part of the spawner's held set — clean.
func goroutineBody(db *DB, t *Table) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	go func() {
		t.mu.Lock()
		t.mu.Unlock()
	}()
}
