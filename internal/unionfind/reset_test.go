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

// TestCopyFrom: a copy holds the source's partition and set count, and
// unions on either side leave the other as it was.
func TestCopyFrom(t *testing.T) {
	src := New(6)
	src.Union(0, 1)
	src.Union(2, 3)
	dst := New(6)
	dst.Union(4, 5)
	dst.CopyFrom(src)
	if dst.Count() != 4 || !dst.Same(0, 1) || !dst.Same(2, 3) || dst.Same(4, 5) {
		t.Fatalf("copy: Count = %d, sets %v", dst.Count(), dst.Sets())
	}
	dst.Union(1, 2)
	src.Union(4, 5)
	if src.Same(0, 3) || dst.Same(4, 5) || src.Count() != 3 || dst.Count() != 3 {
		t.Fatalf("unions after the copy leaked: src %v, dst %v", src.Sets(), dst.Sets())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom between different lengths did not panic")
		}
	}()
	New(5).CopyFrom(src)
}
