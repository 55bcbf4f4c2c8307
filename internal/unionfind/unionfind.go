package unionfind

// UF is a disjoint-set forest over the integers [0, Len()).
// The zero value is an empty forest; use Add or MakeSet to grow it.
type UF struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// New returns a forest with n singleton sets {0}, {1}, ..., {n-1}.
func New(n int) *UF {
	u := &UF{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		count:  n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Add appends a fresh singleton set and returns its element id.
func (u *UF) Add() int {
	id := len(u.parent)
	u.parent = append(u.parent, int32(id))
	u.rank = append(u.rank, 0)
	u.count++
	return id
}

// Len returns the number of elements in the forest.
func (u *UF) Len() int { return len(u.parent) }

// Count returns the current number of disjoint sets.
func (u *UF) Count() int { return u.count }

// Find returns the representative (root) of x's set, compressing the
// path along the way.
func (u *UF) Find(x int) int {
	root := int32(x)
	for u.parent[root] != root {
		root = u.parent[root]
	}
	// Path compression: point every node on the walk at the root.
	for int32(x) != root {
		next := u.parent[x]
		u.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets containing x and y and returns the root of the
// merged set. It is a no-op (returning the common root) when x and y
// are already in the same set.
func (u *UF) Union(x, y int) int {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return rx
	}
	return u.Link(rx, ry)
}

// Link merges the sets of the roots rx and ry, which must be two
// distinct roots, by Union's rank rule and returns the merged set's
// root: Union for a caller that already holds both roots.
func (u *UF) Link(rx, ry int) int {
	// Union by rank: attach the shorter tree under the taller one.
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.count--
	return rx
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Reset detaches x into a fresh singleton set and counts it as one.
// It is only sound as a batch operation over entire sets: the caller
// must Reset every member of each affected set (after decrementing
// count once per affected set via DropSets), otherwise surviving
// parent pointers would still lead into the detached element. The
// decremental SGB-Any maintenance uses exactly that discipline — it
// resets all members of every component touched by a deletion and then
// re-unions the survivors.
func (u *UF) Reset(x int) {
	u.parent[x] = int32(x)
	u.rank[x] = 0
	u.count++
}

// DropSets lowers the set count by n — the bookkeeping prologue of a
// Reset batch: the caller is about to dissolve n whole sets, and each
// Reset re-counts one element as a fresh singleton.
func (u *UF) DropSets(n int) { u.count -= n }

// Absorb merges another forest's partition into u at an offset: element
// i of o is element base+i of u. Used by the tile-local evaluate stage —
// each worker builds a private forest over its tile, a contiguous run
// of u's elements, and the merge stage folds the tile partitions into
// the global one.
func (u *UF) Absorb(o *UF, base int) {
	for i := range o.parent {
		if r := o.Find(i); r != i {
			u.Union(base+i, base+r)
		}
	}
}

// CopyFrom makes u a copy of o's forest, which must have u's length:
// the same parents, ranks and set count, in u's own storage. A one-shot
// ε sweep starts each level from the level below this way.
func (u *UF) CopyFrom(o *UF) {
	if len(o.parent) != len(u.parent) {
		panic("unionfind: CopyFrom between forests of different lengths")
	}
	copy(u.parent, o.parent)
	copy(u.rank, o.rank)
	u.count = o.count
}

// Sets returns the current partition as a map from root id to the
// sorted-by-insertion slice of member ids. Intended for result
// extraction and tests; O(n).
func (u *UF) Sets() map[int][]int {
	sets := make(map[int][]int)
	for i := range u.parent {
		r := u.Find(i)
		sets[r] = append(sets[r], i)
	}
	return sets
}
