package unionfind

import "testing"

// TestResetBatch pins the Reset batch discipline: dissolving whole
// sets (DropSets once per set, Reset once per member) detaches every
// member into a counted singleton, leaves other sets untouched, and
// supports re-unioning a subset of the old members.
func TestResetBatch(t *testing.T) {
	u := New(6)
	u.Union(0, 1)
	u.Union(1, 2) // {0,1,2}
	u.Union(3, 4) // {3,4}, {5}
	if u.Count() != 3 {
		t.Fatalf("Count = %d, want 3", u.Count())
	}

	// Dissolve {0,1,2}: one set dropped, three singletons re-counted.
	u.DropSets(1)
	for _, x := range []int{0, 1, 2} {
		u.Reset(x)
	}
	if u.Count() != 5 {
		t.Fatalf("Count after dissolve = %d, want 5", u.Count())
	}
	for _, x := range []int{0, 1, 2} {
		if u.Find(x) != x {
			t.Fatalf("Find(%d) = %d after Reset, want itself", x, u.Find(x))
		}
	}
	if !u.Same(3, 4) || u.Same(0, 1) {
		t.Fatal("dissolving one set disturbed another")
	}

	// Re-union the survivors {1, 2}; 0 stays detached.
	u.Union(1, 2)
	if u.Count() != 4 || !u.Same(1, 2) || u.Same(0, 1) {
		t.Fatalf("re-union: Count = %d, Same(1,2) = %v, Same(0,1) = %v",
			u.Count(), u.Same(1, 2), u.Same(0, 1))
	}
}

// TestReinit: the forest returns to n singletons whatever it held, and
// grows or shrinks to the requested size.
func TestReinit(t *testing.T) {
	u := New(5)
	u.Union(0, 1)
	u.Union(1, 4)
	for _, n := range []int{5, 3, 9, 0} {
		u.Reinit(n)
		if u.Len() != n || u.Count() != n {
			t.Fatalf("Reinit(%d): Len = %d, Count = %d", n, u.Len(), u.Count())
		}
		for x := 0; x < n; x++ {
			if u.Find(x) != x {
				t.Fatalf("Reinit(%d): Find(%d) = %d", n, x, u.Find(x))
			}
		}
		if n >= 2 {
			u.Union(0, n-1)
			if !u.Same(0, n-1) || u.Count() != n-1 {
				t.Fatalf("Reinit(%d): union after reinit broken", n)
			}
		}
	}
	var zero UF
	zero.Reinit(4)
	if zero.Len() != 4 || zero.Add() != 4 {
		t.Fatal("Reinit on the zero value")
	}
}
