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
		viaUnion := &UF{parent: slices.Clone(u.parent), rank: slices.Clone(u.rank), count: u.count}
		wantRoot := viaUnion.Union(rx, ry)
		gotRoot := u.Link(rx, ry)
		if gotRoot != wantRoot || u.count != viaUnion.count || !slices.Equal(u.parent, viaUnion.parent) || !slices.Equal(u.rank, viaUnion.rank) {
			t.Fatalf("step %d: Link(%d, %d) = %d (count %d), Union = %d (count %d); parent or rank differ",
				step, rx, ry, gotRoot, u.count, wantRoot, viaUnion.count)
		}
	}
}
