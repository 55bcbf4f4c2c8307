package unionfind

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSingletons(t *testing.T) {
	u := New(5)
	if u.Count() != 5 || u.Len() != 5 {
		t.Fatalf("Count=%d Len=%d", u.Count(), u.Len())
	}
	for i := 0; i < 5; i++ {
		if u.Find(i) != i {
			t.Fatalf("Find(%d) = %d", i, u.Find(i))
		}
	}
}

func TestUnionBasics(t *testing.T) {
	u := New(6)
	u.Union(0, 1)
	u.Union(2, 3)
	if !u.Same(0, 1) || !u.Same(2, 3) {
		t.Fatal("expected merged pairs")
	}
	if u.Same(0, 2) {
		t.Fatal("unexpected merge")
	}
	if u.Count() != 4 {
		t.Fatalf("Count = %d, want 4", u.Count())
	}
	u.Union(1, 3) // bridges both pairs
	if !u.Same(0, 2) || u.Count() != 3 {
		t.Fatalf("bridge failed: Same=%v Count=%d", u.Same(0, 2), u.Count())
	}
	// Union of already-joined elements is a no-op.
	before := u.Count()
	u.Union(0, 3)
	if u.Count() != before {
		t.Fatal("redundant union changed count")
	}
}

func TestAdd(t *testing.T) {
	u := New(2)
	id := u.Add()
	if id != 2 || u.Len() != 3 || u.Count() != 3 {
		t.Fatalf("Add: id=%d Len=%d Count=%d", id, u.Len(), u.Count())
	}
	u.Union(id, 0)
	if !u.Same(2, 0) {
		t.Fatal("added element not merged")
	}
}

func TestSets(t *testing.T) {
	u := New(5)
	u.Union(0, 4)
	u.Union(1, 2)
	sets := u.Sets()
	if len(sets) != 3 {
		t.Fatalf("got %d sets, want 3", len(sets))
	}
	total := 0
	for _, members := range sets {
		total += len(members)
	}
	if total != 5 {
		t.Fatalf("members total %d, want 5", total)
	}
}

// Property test: compare against a naive quadratic implementation over
// random union sequences.
func TestAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(120)
		u := New(n)
		// naive: label array, merge = relabel
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		ops := r.Intn(4 * n)
		for k := 0; k < ops; k++ {
			a, b := r.Intn(n), r.Intn(n)
			u.Union(a, b)
			la, lb := label[a], label[b]
			if la != lb {
				for i := range label {
					if label[i] == lb {
						label[i] = la
					}
				}
			}
		}
		// Verify every pair agrees.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if u.Same(i, j) != (label[i] == label[j]) {
					t.Fatalf("trial %d: disagreement at (%d,%d)", trial, i, j)
				}
			}
		}
		// Count agrees with the number of distinct labels.
		distinct := make(map[int]bool)
		for _, l := range label {
			distinct[l] = true
		}
		if u.Count() != len(distinct) {
			t.Fatalf("trial %d: Count=%d naive=%d", trial, u.Count(), len(distinct))
		}
	}
}

func TestPathCompressionKeepsRootsStable(t *testing.T) {
	u := New(1000)
	for i := 1; i < 1000; i++ {
		u.Union(i-1, i)
	}
	root := u.Find(0)
	for i := 0; i < 1000; i++ {
		if u.Find(i) != root {
			t.Fatalf("Find(%d) = %d, want %d", i, u.Find(i), root)
		}
	}
	if u.Count() != 1 {
		t.Fatalf("Count = %d", u.Count())
	}
}

func BenchmarkUnionFind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u := New(10000)
		for j := 1; j < 10000; j++ {
			u.Union(j-1, j)
		}
		_ = u.Find(9999)
	}
}

func TestSnapshotRestore(t *testing.T) {
	u := New(6)
	u.Union(0, 1)
	u.Union(2, 3)
	u.Union(1, 3)
	parent, rank, count := u.Snapshot()
	v, ok := Restore(parent, rank, count)
	if !ok {
		t.Fatal("Restore rejected a valid snapshot")
	}
	if v.Count() != u.Count() || v.Len() != u.Len() {
		t.Fatalf("restored count/len = %d/%d, want %d/%d", v.Count(), v.Len(), u.Count(), u.Len())
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if u.Same(i, j) != v.Same(i, j) {
				t.Fatalf("partition diverges at (%d,%d)", i, j)
			}
		}
	}
	// Snapshot copies: mutating the restored forest leaves u alone.
	v.Union(4, 5)
	if u.Count() == v.Count() {
		t.Fatal("snapshot aliases the source forest")
	}
}

func TestRestoreRejectsCorrupt(t *testing.T) {
	cases := []struct {
		parent []int32
		rank   []int8
		count  int
	}{
		{[]int32{0, 1}, []int8{0}, 2},     // length mismatch
		{[]int32{0, 5}, []int8{0, 0}, 2},  // parent out of range
		{[]int32{0, -1}, []int8{0, 0}, 2}, // negative parent
		{[]int32{0, 1}, []int8{0, 0}, 3},  // count too large
		{[]int32{0, 1}, []int8{0, 0}, -1}, // negative count
	}
	for i, c := range cases {
		if _, ok := Restore(c.parent, c.rank, c.count); ok {
			t.Fatalf("case %d: corrupt snapshot accepted", i)
		}
	}
}

// TestLinkMatchesUnion: linking two roots leaves the forest exactly as
// Union of the same two elements does from the same state — parent,
// rank and count — and returns the same root, whichever root is taller
// or first.
func TestLinkMatchesUnion(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	u := New(200)
	for step := 0; u.Count() > 1; step++ {
		var rx, ry int
		for rx == ry {
			rx, ry = u.Find(r.Intn(u.Len())), u.Find(r.Intn(u.Len()))
		}
		parent, rank, count := u.Snapshot()
		viaUnion, _ := Restore(parent, rank, count)
		wantRoot := viaUnion.Union(rx, ry)
		gotRoot := u.Link(rx, ry)
		gp, gr, gc := u.Snapshot()
		wp, wr, wc := viaUnion.Snapshot()
		if gotRoot != wantRoot || gc != wc || !slices.Equal(gp, wp) || !slices.Equal(gr, wr) {
			t.Fatalf("step %d: Link(%d, %d) = %d (count %d), Union = %d (count %d); parent or rank differ",
				step, rx, ry, gotRoot, gc, wantRoot, wc)
		}
	}
}

// TestAbsorbAtOffset: absorbing tile forests at their offsets yields
// the partition of unioning every tile's pairs in the global forest.
func TestAbsorbAtOffset(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sizes := []int{7, 1, 12, 5}
	n := 0
	for _, s := range sizes {
		n += s
	}
	got, want := New(n), New(n)
	got.Union(0, n-1) // a global edge absorbed forests must keep
	want.Union(0, n-1)
	base := 0
	for _, s := range sizes {
		tile := New(s)
		for k := 0; k < s; k++ {
			a, b := r.Intn(s), r.Intn(s)
			tile.Union(a, b)
			want.Union(base+a, base+b)
		}
		got.Absorb(tile, base)
		base += s
	}
	if got.Count() != want.Count() {
		t.Fatalf("%d sets after Absorb, want %d", got.Count(), want.Count())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.Same(i, j) != want.Same(i, j) {
				t.Fatalf("elements %d and %d: Absorb says %v", i, j, got.Same(i, j))
			}
		}
	}
}
