package sgb

import (
	"reflect"
	"testing"
)

// TestIncrementalHandleErrors covers the handle's validation surface:
// options refused at creation, an empty handle's Result, and batches
// whose dimensionality does not match.
func TestIncrementalHandleErrors(t *testing.T) {
	if _, err := NewIncrementalAll(Options{Metric: L2, Eps: -1}); err == nil {
		t.Fatal("want error for invalid ε")
	}
	if _, err := NewIncrementalAny(Options{Metric: L2, Eps: 1, Algorithm: BoundsCheck}); err == nil {
		t.Fatal("want error for SGB-Any Bounds-Checking")
	}

	inc, err := NewIncrementalAny(Options{Metric: L2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inc.Result()
	if err != nil || len(res.Groups) != 0 {
		t.Fatalf("empty handle Result = %v, %v; want empty grouping", res, err)
	}
	if err := inc.Append([]Point{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if inc.Dims() != 2 || inc.Len() != 1 {
		t.Fatalf("Dims/Len = %d/%d, want 2/1", inc.Dims(), inc.Len())
	}
	if err := inc.Append([]Point{{1, 2, 3}}); err == nil {
		t.Fatal("want error for dimensionality mismatch")
	}
	if err := inc.Append([]Point{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for mixed dimensionality within a batch")
	}
	if err := inc.Append([]Point{{}}); err == nil {
		t.Fatal("want error for a zero-dimensional point")
	}
}

// TestWindowByPredicateGetsCopy: a WindowBy predicate that writes to
// its argument changes nothing the handle keeps, so the grouping after
// a later append still equals a one-shot run over the appended points.
func TestWindowByPredicateGetsCopy(t *testing.T) {
	opt := Options{Metric: L2, Eps: 1}
	points := []Point{{0, 0}, {10, 10}, {10.5, 10}, {20, 20}}
	inc, err := NewIncrementalAny(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(points); err != nil {
		t.Fatal(err)
	}
	n, err := inc.WindowBy(func(p Point) bool { p[0] += 100; return false })
	if err != nil || n != 0 {
		t.Fatalf("WindowBy evicted %d: %v", n, err)
	}
	if err := inc.Append([]Point{{0.5, 0}}); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := GroupByAny([]Point{{0, 0}, {10, 10}, {10.5, 10}, {20, 20}, {0.5, 0}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("after a writing predicate the handle groups %v, one-shot %v", got.Groups, want.Groups)
	}
}
