package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// cellCenter returns the center of cell c: the point whose home cell is
// c, and around which a zero-radius box covers exactly that cell.
func cellCenter(g *Table, c []int64) []float64 {
	p := make([]float64, len(c))
	for i, v := range c {
		p[i] = (float64(v) + 0.5) / g.inv
	}
	return p
}

// cellIDs reads one cell through the probe entry point.
func cellIDs(g *Table, c []int64) []int32 {
	var cur Cursor
	return g.CollectBox(&cur, cellCenter(g, c), 0, nil)
}

// blockCells is the number of cells in one directory block.
func blockCells(g *Table) int { return 1 << (g.dims * int(g.shift)) }

// occupiedCells counts the cells with a non-empty id list, and checks
// the per-block and table-wide live counters against the head arena on
// the way.
func occupiedCells(t testing.TB, g *Table) int {
	t.Helper()
	cells, blocks, used := 0, 0, 0
	for _, s := range g.slots {
		if s.off < 0 {
			continue
		}
		used++
		live := 0
		for k := 0; k < blockCells(g); k++ {
			h := g.head(s.off, k)
			if h >= 0 {
				live++
			}
			if (h >= 0) != (s.occ>>k&1 != 0) {
				t.Fatalf("block %d: occupancy %08b, head %d = %d", s.off, s.occ, k, h)
			}
		}
		if live > 0 {
			blocks++
		}
		cells += live
	}
	if used != g.used || blocks != g.live {
		t.Fatalf("used/live = %d/%d, directory holds %d/%d", g.used, g.live, used, blocks)
	}
	if len(g.blocks) != g.used*g.stride {
		t.Fatalf("arena holds %d words for %d blocks of %d", len(g.blocks), g.used, g.stride)
	}
	return cells
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
	c, above := []int64{3, 4}, []int64{3, 5} // two cells of one block
	g.AddPoint(cellCenter(g, c), 1)
	g.AddPoint(cellCenter(g, c), 2)
	g.AddPoint(cellCenter(g, above), 3)
	got := cellIDs(g, c)
	slices.Sort(got)
	if !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("cell %v = %v", c, got)
	}
	g.RemovePoint(cellCenter(g, c), 1)
	if got := cellIDs(g, c); !slices.Equal(got, []int32{2}) {
		t.Fatalf("after RemovePoint: %v", got)
	}
	g.RemovePoint(cellCenter(g, c), 2)
	if n := occupiedCells(t, g); n != 1 {
		t.Fatalf("empty cell not pruned: %d occupied", n)
	}
	g.RemovePoint(cellCenter(g, c), 99)               // absent id: no-op
	g.RemovePoint(cellCenter(g, []int64{40, 40}), 99) // absent block: no-op
	if got := cellIDs(g, above); !slices.Equal(got, []int32{3}) {
		t.Fatalf("neighbour cell of the block = %v", got)
	}
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

// blocksPerAxis is the number of directory blocks the cell range
// [lo, hi] touches along one axis.
func blocksPerAxis(g *Table, lo, hi int64) int64 {
	return hi>>g.shift - lo>>g.shift + 1
}

// TestProbeBlocksPerAxis: what the blocked layout buys. Three cells in
// a row lie in two blocks wherever they start, so a probe whose radius
// is the cell side looks up two blocks per axis; only a probe that
// rounding or paddedReach's pad widens to a fourth cell can touch three.
func TestProbeBlocksPerAxis(t *testing.T) {
	g := New(1, 1)
	for lo := int64(-9); lo <= 9; lo++ {
		for w := int64(1); w <= 4; w++ {
			want := int64(2)
			switch {
			case w == 1, w == 2 && lo&1 == 0:
				want = 1
			case w == 4 && lo&1 != 0:
				want = 3
			}
			if got := blocksPerAxis(g, lo, lo+w-1); got != want {
				t.Errorf("%d cells from %d: %d blocks, want %d", w, lo, got, want)
			}
		}
	}

	r := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 3} {
		for _, side := range []float64{0.05, 0.4, 1, 3} {
			g := New(d, side)
			p := make([]float64, d)
			var lo, hi []int64
			for trial := 0; trial < 2000; trial++ {
				for k := range p {
					p[k] = r.Float64()*40 - 20
				}
				lo, hi = g.RangeOfBox(p, side, lo, hi)
				for k := range p {
					if n := blocksPerAxis(g, lo[k], hi[k]); n != 2 {
						t.Fatalf("d=%d side=%g: probe at %v spans %d blocks on axis %d", d, side, p, n, k)
					}
				}
				// A point on a cell edge under the finders' padded
				// radius: four cells, so two or three blocks.
				for k := range p {
					p[k] = math.Round(p[k]/side) * side
				}
				m := 0.0
				for _, v := range p {
					m = math.Max(m, math.Abs(v))
				}
				lo, hi = g.RangeOfBox(p, side+(m+2*side)*0x1p-50, lo, hi)
				for k := range p {
					if n := blocksPerAxis(g, lo[k], hi[k]); n < 2 || n > 3 {
						t.Fatalf("d=%d side=%g: padded probe at %v spans %d blocks on axis %d", d, side, p, n, k)
					}
				}
			}
		}
	}
	// Above blockDims a block is one cell.
	if g := New(4, 1); blocksPerAxis(g, -1, 1) != 3 {
		t.Fatal("d=4 cells are blocked")
	}
}

func TestReset(t *testing.T) {
	g := New(1, 1)
	g.AddPoint([]float64{1.5}, 1)
	g.AddPoint([]float64{2.5}, 2)
	g.Reset()
	if occupiedCells(t, g) != 0 {
		t.Fatal("Reset left occupied cells")
	}
	if got := cellIDs(g, []int64{1}); len(got) != 0 {
		t.Fatalf("Reset left ids: %v", got)
	}
	// The table must stay fully usable after Reset.
	g.AddPoint([]float64{1.5}, 9)
	if got := cellIDs(g, []int64{1}); !slices.Equal(got, []int32{9}) {
		t.Fatalf("post-Reset AddPoint lost: %v", got)
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

// model pairs a table with the trivially correct reference it is
// cross-checked against: a Go map from stringified cell coordinates to
// id multisets. The randomized cross-check and FuzzGridOps both drive it.
type model struct {
	g   *Table
	ref map[string]*refCell
	cur Cursor
}

// refCell is one occupied cell of the reference.
type refCell struct {
	c   []int64
	ids []int32
}

func newModel(d int, side float64) *model {
	return &model{g: New(d, side), ref: map[string]*refCell{}}
}

func refKey(c []int64) string { return fmt.Sprint(c) }

func (m *model) add(c []int64, id int32) {
	m.g.AddPoint(cellCenter(m.g, c), id)
	rc := m.ref[refKey(c)]
	if rc == nil {
		rc = &refCell{c: slices.Clone(c)}
		m.ref[refKey(c)] = rc
	}
	rc.ids = append(rc.ids, id)
}

func (m *model) remove(c []int64, id int32) {
	m.g.RemovePoint(cellCenter(m.g, c), id)
	rc := m.ref[refKey(c)]
	if rc == nil {
		return
	}
	if i := slices.Index(rc.ids, id); i >= 0 {
		rc.ids[i] = rc.ids[len(rc.ids)-1]
		if rc.ids = rc.ids[:len(rc.ids)-1]; len(rc.ids) == 0 {
			delete(m.ref, refKey(c))
		}
	}
}

func (m *model) reset() {
	m.g.Reset()
	clear(m.ref)
}

// want lists the reference's ids over the inclusive cell range.
func (m *model) want(lo, hi []int64) []int32 {
	var ids []int32
	at := slices.Clone(lo)
	for {
		if rc := m.ref[refKey(at)]; rc != nil {
			ids = append(ids, rc.ids...)
		}
		if !nextCell(at, lo, hi) {
			return ids
		}
	}
}

// checkRange holds CollectRange over [lo, hi], and the occupancy
// counters, to the reference.
func (m *model) checkRange(t testing.TB, lo, hi []int64) {
	t.Helper()
	got := sortedCopy(m.g.CollectRange(&m.cur, lo, hi, nil))
	if want := sortedCopy(m.want(lo, hi)); !slices.Equal(got, want) {
		t.Fatalf("CollectRange(%v..%v) = %v, want %v", lo, hi, got, want)
	}
	if n := occupiedCells(t, m.g); n != len(m.ref) {
		t.Fatalf("%d occupied cells, reference has %d", n, len(m.ref))
	}
}

// checkBox holds CollectBox to the reference for the box of the given
// radius (in cell sides, a multiple of 1/4) around the center of cell
// c. Cell sides are powers of two, so the box's cell range is exact.
func (m *model) checkBox(t testing.TB, c []int64, radius float64) {
	t.Helper()
	lo, hi := make([]int64, len(c)), make([]int64, len(c))
	for i, v := range c {
		lo[i] = int64(math.Floor(float64(v) + 0.5 - radius))
		hi[i] = int64(math.Floor(float64(v) + 0.5 + radius))
	}
	got := sortedCopy(m.g.CollectBox(&m.cur, cellCenter(m.g, c), radius/m.g.inv, nil))
	if want := sortedCopy(m.want(lo, hi)); !slices.Equal(got, want) {
		t.Fatalf("CollectBox(cell %v, %g cells) = %v, want %v", c, radius, got, want)
	}
}

func sortedCopy(ids []int32) []int32 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// maxWidth bounds a checked range to 256 cells: 1–5 cells per axis up
// to d = 3, fewer above.
func maxWidth(d int) int {
	w := 5
	for math.Pow(float64(w), float64(d)) > 256 {
		w--
	}
	return w
}

// maxQuarters is the widest checkBox radius, in quarter cells, whose box
// stays within maxWidth cells per axis: a box of radius r around a cell
// center spans 2, 3, 4, 5 cells from r = 1/2, 3/4, 3/2, 7/4 on.
func maxQuarters(d int) int {
	return []int{0, 1, 2, 5, 6, 9}[maxWidth(d)]
}

// TestCrossCheckAgainstMapReference drives randomized AddPoint /
// RemovePoint / CollectBox / CollectRange / Reset traffic
// over a tiny mixed-sign coordinate universe — both parities of every
// axis, so every cell of a block, and forcing hash-slot collisions,
// dead cells and blocks, and load-factor rebuilds — and demands
// multiset-identical probe results and occupied-cell counts against the
// map reference at every probe.
func TestCrossCheckAgainstMapReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 5, 6, 8} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(100 + d)))
			m := newModel(d, 0.5)
			span := 6 // 6^d universe: dense collisions at low d
			if d == 1 {
				span = 200 // enough blocks for the directory to rebuild
			}
			randCell := func() []int64 {
				c := make([]int64, d)
				for i := range c {
					c[i] = int64(r.Intn(span) - span/2)
				}
				return c
			}
			for op := 0; op < 20000; op++ {
				switch r.Intn(9) {
				case 0, 1, 2:
					m.add(randCell(), int32(r.Intn(50)))
				case 3, 4:
					m.remove(randCell(), int32(r.Intn(50)))
				case 5:
					if r.Intn(200) == 0 {
						m.reset()
					}
				case 6:
					// The closure's single-cell collect, and boxes up to
					// a padded probe wide.
					m.checkBox(t, randCell(), 0)
					m.checkBox(t, randCell(), float64(r.Intn(maxQuarters(d)+1))/4)
				default:
					lo, hi := randCell(), make([]int64, d)
					for i := range lo {
						hi[i] = lo[i] + int64(r.Intn(maxWidth(d)))
					}
					m.checkRange(t, lo, hi)
				}
			}
		})
	}
}

// TestCollectBoxMatchesScan: the per-dimensionality probe walks return
// exactly the points whose home cell lies in the box's cell range, on
// random point sets at every dimensionality — radius 0, the cell side,
// and anything between — and CollectRange does over ranges 1–5 cells
// wide.
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
		scan := func() []int32 {
			var ids []int32
			for i, p := range pts {
				c = g.CellOf(p, c)
				in := true
				for k := range c {
					in = in && lo[k] <= c[k] && c[k] <= hi[k]
				}
				if in {
					ids = append(ids, int32(i))
				}
			}
			return ids
		}
		for trial := 0; trial < 200; trial++ {
			center := pts[r.Intn(len(pts))]
			radius := []float64{0, 0.5, r.Float64()}[trial%3]
			got := sortedCopy(g.CollectBox(&cur, center, radius, nil))
			lo, hi = g.RangeOfBox(center, radius, lo, hi)
			if want := scan(); !slices.Equal(got, want) {
				t.Fatalf("d=%d: CollectBox %v != scan %v", d, got, want)
			}
			lo = g.CellOf(pts[r.Intn(len(pts))], lo)
			for k := range lo {
				lo[k] -= int64(r.Intn(2))
				hi[k] = lo[k] + int64(r.Intn(maxWidth(d)))
			}
			got = sortedCopy(g.CollectRange(&cur, lo, hi, nil))
			if want := scan(); !slices.Equal(got, want) {
				t.Fatalf("d=%d: CollectRange(%v..%v) %v != scan %v", d, lo, hi, got, want)
			}
		}
	}
}

// TestRebuildGrowth: a bulk load far past the initial directory
// capacity must keep every registration addressable (the doubling
// rebuild path), and a NewCap-hinted table, which never rebuilds, must
// agree.
func TestRebuildGrowth(t *testing.T) {
	n := 20000
	g := New(2, 1)
	h := NewCap(2, 1, n)
	slots := len(h.slots)
	for i := 0; i < n; i++ {
		p := []float64{float64(i%199) - 99.5, float64(i/199) - 49.5}
		g.AddPoint(p, int32(i))
		h.AddPoint(p, int32(i))
	}
	if a, b := occupiedCells(t, g), occupiedCells(t, h); a != n || b != n {
		t.Fatalf("occupied cells: %d grown, %d hinted, want %d", a, b, n)
	}
	if len(h.slots) != slots {
		t.Fatalf("hinted directory rebuilt: %d -> %d slots", slots, len(h.slots))
	}
	// Arenas double when full: never more than about twice what is used.
	for _, tab := range []*Table{g, h} {
		if cap(tab.blocks) > 3*len(tab.blocks) || cap(tab.slabs) > 3*len(tab.slabs) {
			t.Fatalf("arenas over-allocated: %d of %d block words, %d of %d slabs in use",
				len(tab.blocks), cap(tab.blocks), len(tab.slabs), cap(tab.slabs))
		}
	}
	for i := 0; i < n; i += 37 {
		c := []int64{int64(i%199) - 100, int64(i/199) - 50}
		for _, tab := range []*Table{g, h} {
			if got := cellIDs(tab, c); !slices.Equal(got, []int32{int32(i)}) {
				t.Fatalf("id %d lost after growth rebuilds (cell %v has %v)", i, c, got)
			}
		}
	}
}

// TestDeadCellCompaction: heavy add/remove churn over a shifting window
// of cells must not grow the directory without bound — dead blocks are
// dropped by the load-factor rebuild, so the slot count and the arenas
// stay within a small multiple of the live cell count.
func TestDeadCellCompaction(t *testing.T) {
	g := New(1, 1)
	for i := 0; i < 100000; i++ {
		g.AddPoint([]float64{float64(i) + 0.5}, int32(i))
		if i >= 16 {
			g.RemovePoint([]float64{float64(i-16) + 0.5}, int32(i-16))
		}
	}
	if n := occupiedCells(t, g); n != 16 {
		t.Fatalf("live cells = %d, want 16", n)
	}
	if len(g.slots) > 1024 || cap(g.blocks) > 2048 || cap(g.slabs) > 1024 {
		t.Fatalf("directory grew to %d slots, %d block words, %d slabs for 16 live cells: dead blocks not compacted",
			len(g.slots), cap(g.blocks), cap(g.slabs))
	}
}

// TestRebuildDropsDeadBlocks: a rebuild keeps a block that still has
// one occupied cell — with its emptied cells still empty — and drops a
// block whose cells all emptied.
func TestRebuildDropsDeadBlocks(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		m := newModel(d, 1)
		sub := blockCells(m.g)
		cell := func(b int64, k int) []int64 { // cell k of block (b, 0, ...)
			c := make([]int64, d)
			c[0] = b << m.g.shift
			for a := range c {
				c[a] += int64(k >> a & int(m.g.shift))
			}
			return c
		}
		// Blocks -20..19 get every cell filled; then the even ones are
		// emptied and the odd ones keep their last cell only.
		id := int32(0)
		for b := int64(-20); b < 20; b++ {
			for k := 0; k < sub; k++ {
				m.add(cell(b, k), id)
				m.add(cell(b, k), id+1)
				id += 2
			}
		}
		id = 0
		for b := int64(-20); b < 20; b++ {
			for k := 0; k < sub; k++ {
				if b&1 == 0 || k < sub-1 {
					m.remove(cell(b, k), id)
					m.remove(cell(b, k), id+1)
				}
				id += 2
			}
		}
		if m.g.used != 40 || m.g.live != 20 {
			t.Fatalf("d=%d: before the rebuild used/live = %d/%d, want 40/20", d, m.g.used, m.g.live)
		}
		m.g.rebuild()
		if m.g.used != 20 || m.g.live != 20 {
			t.Fatalf("d=%d: after the rebuild used/live = %d/%d, want 20/20", d, m.g.used, m.g.live)
		}
		lo, hi := make([]int64, d), make([]int64, d)
		for b := int64(-20); b < 20; b++ {
			copy(lo, cell(b, 0))
			copy(hi, cell(b, sub-1))
			m.checkRange(t, lo, hi)
		}
		// Emptied cells of a kept block take registrations again.
		m.add(cell(-19, 0), 7)
		m.checkRange(t, cell(-19, 0), cell(-19, sub-1))
	}
}

// TestSlabChainLongCell: one cell holding far more ids than a single
// slab, including interleaved removals from chain interiors.
func TestSlabChainLongCell(t *testing.T) {
	g := New(2, 1)
	p := []float64{-0.5, 0.5}
	const n = 10 * slabIDs
	for i := 0; i < n; i++ {
		g.AddPoint(p, int32(i))
	}
	// Remove every third id (from chain interiors as well as the head).
	want := []int32{}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			g.RemovePoint(p, int32(i))
		} else {
			want = append(want, int32(i))
		}
	}
	got := sortedCopy(cellIDs(g, []int64{-1, 0}))
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
		if a, b := occupiedCells(t, bulk), occupiedCells(t, inc); a != b {
			t.Fatalf("d=%d: bulk %d cells vs incremental %d", d, a, b)
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
