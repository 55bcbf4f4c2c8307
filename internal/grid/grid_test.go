package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// cellIDs reads one cell through the probe entry point: a zero-radius
// box at the cell's center covers exactly that cell.
func cellIDs(g *Table, c []int64) []int32 {
	center := make([]float64, len(c))
	for i, v := range c {
		center[i] = (float64(v) + 0.5) / g.inv
	}
	var cur Cursor
	return g.CollectBox(&cur, center, 0, nil)
}

// nextCell steps an odometer through the inclusive cell range [lo, hi],
// returning false after the last cell.
func nextCell(cur, lo, hi []int64) bool {
	for i := range cur {
		if cur[i] < hi[i] {
			cur[i]++
			return true
		}
		cur[i] = lo[i]
	}
	return false
}

func TestCellOfQuantization(t *testing.T) {
	g := New(2, 0.5)
	cases := []struct {
		p    []float64
		want []int64
	}{
		{[]float64{0, 0}, []int64{0, 0}},
		{[]float64{0.49, 0.99}, []int64{0, 1}},
		{[]float64{0.5, 1.0}, []int64{1, 2}},
		{[]float64{-0.01, -0.5}, []int64{-1, -1}},
		{[]float64{-0.51, 2.3}, []int64{-2, 4}},
	}
	for _, c := range cases {
		if got := g.CellOf(c.p, nil); !slices.Equal(got, c.want) {
			t.Errorf("CellOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestAddRemoveCollect(t *testing.T) {
	g := New(2, 1)
	c := []int64{3, 4}
	g.Add(c, 1)
	g.Add(c, 2)
	g.Add([]int64{3, 5}, 3)
	got := cellIDs(g, c)
	slices.Sort(got)
	if !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("CollectCell = %v", got)
	}
	g.Remove(c, 1)
	if got := cellIDs(g, c); !slices.Equal(got, []int32{2}) {
		t.Fatalf("after Remove: %v", got)
	}
	g.Remove(c, 2)
	if g.OccupiedCells() != 1 {
		t.Fatalf("empty cell not pruned: %d occupied", g.OccupiedCells())
	}
	g.Remove(c, 99) // absent id: no-op
}

// TestNeighborhoodCoversEps is the correctness property the finders
// rely on: for random points p, q with δ∞(p,q) ≤ ε, q's home cell lies
// inside the cell range of [p-ε, p+ε]. Now exercised well beyond the
// old MaxDims = 4 cap.
func TestNeighborhoodCoversEps(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 8} {
		for trial := 0; trial < 1000; trial++ {
			eps := math.Ldexp(r.Float64()+0.1, r.Intn(8)-4) // spread of scales
			g := New(d, eps)
			p := make([]float64, d)
			q := make([]float64, d)
			for i := 0; i < d; i++ {
				p[i] = r.Float64()*200 - 100
				// q within eps of p on every axis (inclusive boundary
				// sometimes, via exact offsets of ±eps).
				switch r.Intn(4) {
				case 0:
					q[i] = p[i] - eps
				case 1:
					q[i] = p[i] + eps
				default:
					q[i] = p[i] + (r.Float64()*2-1)*eps
				}
			}
			within := true
			for i := 0; i < d; i++ {
				if math.Abs(p[i]-q[i]) > eps {
					within = false
				}
			}
			if !within {
				continue // FP rounding pushed the offset outside ε
			}
			lo, hi := g.RangeOfBox(p, eps, nil, nil)
			c := g.CellOf(q, nil)
			for i := 0; i < d; i++ {
				if c[i] < lo[i] || c[i] > hi[i] {
					t.Fatalf("d=%d eps=%v: cell %v of %v outside range %v..%v of %v",
						d, eps, c, q, lo, hi, p)
				}
			}
		}
	}
}

func TestReset(t *testing.T) {
	g := New(1, 1)
	g.Add([]int64{1}, 1)
	g.Add([]int64{2}, 2)
	g.Reset()
	if g.OccupiedCells() != 0 {
		t.Fatal("Reset left occupied cells")
	}
	if got := cellIDs(g, []int64{1}); len(got) != 0 {
		t.Fatalf("Reset left ids: %v", got)
	}
	// The table must stay fully usable after Reset.
	g.Add([]int64{1}, 9)
	if got := cellIDs(g, []int64{1}); !slices.Equal(got, []int32{9}) {
		t.Fatalf("post-Reset Add lost: %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 1) },
		func() { New(2, 0) },
		func() { New(2, math.Inf(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	// Dimensionalities beyond the old cap are now valid.
	if g := New(12, 1); g.Dims() != 12 {
		t.Fatal("high-dimensional table rejected")
	}
}

// refGrid is the trivially correct reference the open-addressed table
// is cross-checked against: a Go map from stringified coordinates to id
// multisets.
type refGrid map[string][]int32

func refKey(c []int64) string { return fmt.Sprint(c) }

func (r refGrid) add(c []int64, id int32) { r[refKey(c)] = append(r[refKey(c)], id) }

func (r refGrid) remove(c []int64, id int32) {
	k := refKey(c)
	ids := r[k]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if len(ids) == 0 {
				delete(r, k)
			} else {
				r[k] = ids
			}
			return
		}
	}
}

func sortedCopy(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return out
}

// TestCrossCheckAgainstMapReference drives randomized Add / Remove /
// CollectBox / Reset traffic over a tiny coordinate universe — forcing
// hash-slot collisions, dead cells, and load-factor rebuilds — and
// demands multiset-identical probe results and OccupiedCells counts
// against the map reference at every probe.
func TestCrossCheckAgainstMapReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(100 + d)))
			g := New(d, 1)
			ref := refGrid{}
			randCell := func() []int64 {
				c := make([]int64, d)
				for i := range c {
					c[i] = int64(r.Intn(5) - 2) // 5^d universe: dense collisions at low d
				}
				return c
			}
			var cur Cursor
			for op := 0; op < 20000; op++ {
				switch r.Intn(8) {
				case 0, 1, 2:
					c, id := randCell(), int32(r.Intn(50))
					g.Add(c, id)
					ref.add(c, id)
				case 3, 4:
					c, id := randCell(), int32(r.Intn(50))
					g.Remove(c, id)
					ref.remove(c, id)
				case 5:
					if r.Intn(200) == 0 {
						g.Reset()
						clear(ref)
					}
				default:
					// Probe: a random cell and a random cube of cells
					// [lo, lo+k]^d, read as the box around its center
					// (k < 2 at d = 8 keeps the walk to 2^8 cells).
					c := randCell()
					if got, want := sortedCopy(cellIDs(g, c)), sortedCopy(ref[refKey(c)]); !slices.Equal(got, want) {
						t.Fatalf("op %d: cell %v = %v, want %v", op, c, got, want)
					}
					lo, k := randCell(), int64(r.Intn(min(3, 10-d)))
					hi, center := make([]int64, d), make([]float64, d)
					for i := range lo {
						hi[i] = lo[i] + k
						center[i] = float64(lo[i]) + float64(k+1)/2
					}
					var want []int32
					at := append([]int64(nil), lo...)
					for {
						want = append(want, ref[refKey(at)]...)
						if !nextCell(at, lo, hi) {
							break
						}
					}
					if got := sortedCopy(g.CollectBox(&cur, center, float64(k)/2+0.25, nil)); !slices.Equal(got, sortedCopy(want)) {
						t.Fatalf("op %d: CollectBox(%v..%v) = %v, want %v", op, lo, hi, got, want)
					}
				}
				if g.OccupiedCells() != len(ref) {
					t.Fatalf("op %d: OccupiedCells = %d, reference has %d", op, g.OccupiedCells(), len(ref))
				}
			}
		})
	}
}

// TestCollectBoxMatchesScan: the per-dimensionality probe walks return
// exactly the points whose home cell lies in the box's cell range, on
// random point sets at every dimensionality.
func TestCollectBoxMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, d := range []int{1, 2, 3, 4, 6} {
		g := New(d, 0.5)
		pts := make([][]float64, 400)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = r.Float64()*6 - 3
			}
			pts[i] = p
			g.AddPoint(p, int32(i))
		}
		var cur Cursor
		var lo, hi, c []int64
		for trial := 0; trial < 200; trial++ {
			center := pts[r.Intn(len(pts))]
			radius := r.Float64()
			got := sortedCopy(g.CollectBox(&cur, center, radius, nil))
			lo, hi = g.RangeOfBox(center, radius, lo, hi)
			var want []int32
			for i, p := range pts {
				c = g.CellOf(p, c)
				in := true
				for k := range c {
					in = in && lo[k] <= c[k] && c[k] <= hi[k]
				}
				if in {
					want = append(want, int32(i))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d: CollectBox %v != scan %v", d, got, want)
			}
		}
	}
}

// TestRebuildGrowth: a bulk load far past the initial directory
// capacity must keep every registration addressable (the doubling
// rebuild path), and a NewCap-hinted table must agree.
func TestRebuildGrowth(t *testing.T) {
	n := 20000
	g := New(2, 1)
	h := NewCap(2, 1, n)
	for i := 0; i < n; i++ {
		c := []int64{int64(i % 199), int64(i / 199)}
		g.Add(c, int32(i))
		h.Add(c, int32(i))
	}
	if g.OccupiedCells() != h.OccupiedCells() {
		t.Fatalf("occupied mismatch: %d vs %d", g.OccupiedCells(), h.OccupiedCells())
	}
	for i := 0; i < n; i += 37 {
		c := []int64{int64(i % 199), int64(i / 199)}
		got := cellIDs(g, c)
		if !slices.Contains(got, int32(i)) {
			t.Fatalf("id %d lost after growth rebuilds (cell %v has %v)", i, c, got)
		}
	}
}

// TestDeadCellCompaction: heavy add/remove churn over a shifting window
// of cells must not grow the directory without bound — dead cells are
// dropped by the load-factor rebuild, so the slot count stays within a
// small multiple of the live cell count.
func TestDeadCellCompaction(t *testing.T) {
	g := New(1, 1)
	for i := 0; i < 100000; i++ {
		g.Add([]int64{int64(i)}, int32(i))
		if i >= 16 {
			g.Remove([]int64{int64(i - 16)}, int32(i-16))
		}
	}
	if g.OccupiedCells() != 16 {
		t.Fatalf("live cells = %d, want 16", g.OccupiedCells())
	}
	if len(g.slots) > 1024 {
		t.Fatalf("directory grew to %d slots for 16 live cells: dead cells not compacted", len(g.slots))
	}
}

// TestSlabChainLongCell: one cell holding far more ids than a single
// slab, including interleaved removals from chain interiors.
func TestSlabChainLongCell(t *testing.T) {
	g := New(2, 1)
	c := []int64{0, 0}
	const n = 10 * slabIDs
	for i := 0; i < n; i++ {
		g.Add(c, int32(i))
	}
	// Remove every third id (from chain interiors as well as the head).
	want := []int32{}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			g.Remove(c, int32(i))
		} else {
			want = append(want, int32(i))
		}
	}
	got := sortedCopy(cellIDs(g, c))
	if !slices.Equal(got, want) {
		t.Fatalf("after chained removals: got %d ids, want %d (%v)", len(got), len(want), got)
	}
}

// TestBulkLoadMatchesIncremental checks that a bulk-loaded table
// answers probes with exactly the id sets of an AddPoint-built one —
// the Morton-major layout is a performance property, not a semantic
// one — and that it stays mutable afterwards.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 5} {
		n := 400
		ps := geom.NewPointSetCap(d, n)
		for i := 0; i < n; i++ {
			p := ps.Extend()
			for j := range p {
				p[j] = r.Float64()*8 - 4
			}
		}
		bulk := BulkLoad(ps, 0.5)
		inc := New(d, 0.5)
		for i := 0; i < n; i++ {
			inc.AddPoint(ps.At(i), int32(i))
		}
		if bulk.OccupiedCells() != inc.OccupiedCells() {
			t.Fatalf("d=%d: bulk %d cells vs incremental %d", d, bulk.OccupiedCells(), inc.OccupiedCells())
		}
		var cur Cursor
		var b1, b2 []int32
		for i := 0; i < n; i++ {
			b1 = bulk.CollectBox(&cur, ps.At(i), 0.5, b1[:0])
			b2 = inc.CollectBox(&cur, ps.At(i), 0.5, b2[:0])
			slices.Sort(b1)
			slices.Sort(b2)
			if !slices.Equal(b1, b2) {
				t.Fatalf("d=%d probe %d: bulk %v vs incremental %v", d, i, b1, b2)
			}
		}
		// Mutability after bulk load: remove half, re-probe.
		for i := 0; i < n; i += 2 {
			bulk.RemovePoint(ps.At(i), int32(i))
			inc.RemovePoint(ps.At(i), int32(i))
		}
		for i := 1; i < n; i += 7 {
			b1 = bulk.CollectBox(&cur, ps.At(i), 0.5, b1[:0])
			b2 = inc.CollectBox(&cur, ps.At(i), 0.5, b2[:0])
			slices.Sort(b1)
			slices.Sort(b2)
			if !slices.Equal(b1, b2) {
				t.Fatalf("d=%d post-remove probe %d: bulk %v vs incremental %v", d, i, b1, b2)
			}
		}
	}
}

// TestRenumber: ids follow the rank map in place — across slab chains,
// and with freed slabs on the freelist left alone.
func TestRenumber(t *testing.T) {
	g := New(2, 1)
	c, other := []int64{0, 0}, []int64{5, 5}
	const n = 3*slabIDs + 2 // a three-slab chain plus a partial head
	for id := int32(0); id < n; id++ {
		g.Add(c, id)
	}
	for id := int32(n); id < n+20; id++ {
		g.Add(other, id)
	}
	// Remove the even ids of the long cell (frees slabs), then close ranks.
	rank := make([]int32, n+20)
	next := int32(0)
	for id := range rank {
		if id < n && id%2 == 0 {
			g.Remove(c, int32(id))
			rank[id] = -1
			continue
		}
		rank[id] = next
		next++
	}
	g.Renumber(rank)
	got := append(cellIDs(g, c), cellIDs(g, other)...)
	slices.Sort(got)
	if len(got) != int(next) {
		t.Fatalf("%d ids registered after Renumber, want %d", len(got), next)
	}
	for i, id := range got {
		if id != int32(i) {
			t.Fatalf("ids after Renumber = %v, want 0..%d", got, next-1)
		}
	}
	// Recycled slabs must come back clean.
	g.Add(c, next)
	if ids := cellIDs(g, c); !slices.Contains(ids, next) || len(ids) != n/2+1 {
		t.Fatalf("Add after Renumber: cell holds %v", ids)
	}
}
