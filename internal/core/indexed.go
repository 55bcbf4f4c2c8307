package core

import (
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/rtree"
)

// indexedFinder is the Index Bounds-Checking FindCloseGroups of
// Procedure 5: the ε-All bounding rectangles of the live groups are
// indexed in an on-the-fly R-tree (Groups_IX, Figure 6), so a window
// query with pi's ε-box retrieves the only groups that can be
// candidates or overlaps — O(n·log|G|) average case (Table 1).
//
// Because member MBRs are contained in their group's ε-All rectangle
// (clique members are pairwise within ε), a single index over the
// ε-All rectangles serves both the candidate and the overlap probes.
type indexedFinder struct {
	noHooks
	ix   *rtree.Tree
	dims int
	base int // the first group id the finder sees: its stage's floor

	// at is a flat store of one [Min | Max] row per group id from
	// base: the rectangle the group is stored under in Groups_IX (its
	// ε-All rectangle when last indexed), so delete-before-reinsert
	// removes the right entry. indexed[id−base] says whether the entry
	// exists (not while the group is removed). Rows are overwritten in
	// place: the R-tree keeps copies of its own.
	at      []float64
	indexed []bool

	// Buffers reused across probes: the window-query hit ids (collected
	// via Visit, so hits never round-trip through []any), the padded
	// window the R-tree is queried with, and groupChanged's current
	// ε-All rectangle.
	ids []int32
	win geom.Rect
	all geom.Rect
}

func newIndexedFinder(dims, base int) *indexedFinder {
	if dims == 0 {
		dims = 1
	}
	all := make([]float64, 2*dims)
	return &indexedFinder{ix: rtree.New(dims), dims: dims, base: base,
		all: geom.Rect{Min: all[:dims:dims], Max: all[dims:]}}
}

// findCloseGroups queries the R-tree with pi's ε-box widened by the
// grid's pad (geom.PaddedReach): where an overlap group's far member
// lies 2ε from pi, the rounded corners of an unpadded window and of the
// group's ε-All rectangle can miss each other by an ulp
// (TestFindersAgreeOnRoundedChains). classify tests the hits' MBRs
// against ε itself. Hits arrive in the R-tree's traversal order;
// processOne sorts the verified lists into creation order, so
// every strategy arbitrates JOIN-ANY identically for a given seed.
func (f *indexedFinder) findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group) {
	p := st.points.At(pi)
	geom.EpsBoxInto(&f.win, p, geom.PaddedReach(p, st.opt.Eps))
	st.opt.Stats.addProbe(1)
	f.ids = f.ids[:0]
	f.ix.Visit(f.win, func(_ geom.Rect, data any) bool {
		f.ids = append(f.ids, data.(*group).id)
		return true
	})
	return st.classify(pi, f.ids)
}

// entry returns the view of group id's row in at.
func (f *indexedFinder) entry(id int) geom.Rect {
	d := f.dims
	b := 2 * d * (id - f.base)
	return geom.Rect{Min: f.at[b : b+d : b+d], Max: f.at[b+d : b+2*d : b+2*d]}
}

// epsAllInto writes g's ε-All rectangle, [hi − ε, lo + ε] of its
// member MBR, into dst: by monotone rounding, bit for bit the
// intersection of the members' rounded ε-boxes.
func epsAllInto(dst geom.Rect, st *sgbAllState, g *group) {
	mbr, eps := st.mbrOf(g.id), st.opt.Eps
	for i := range mbr.Min {
		dst.Min[i], dst.Max[i] = mbr.Max[i]-eps, mbr.Min[i]+eps
	}
}

// index stores g under its current ε-All rectangle.
func (f *indexedFinder) index(st *sgbAllState, g *group) {
	r := f.entry(int(g.id))
	epsAllInto(r, st, g)
	f.indexed[int(g.id)-f.base] = true
	f.ix.Insert(r, g)
}

func (f *indexedFinder) groupCreated(st *sgbAllState, g *group) {
	for len(f.indexed) <= int(g.id)-f.base {
		f.indexed = append(f.indexed, false)
		f.at = append(f.at, make([]float64, 2*f.dims)...)
	}
	st.opt.Stats.addUpdate(1)
	f.index(st, g)
}

// groupChanged refreshes g's entry after a membership change. The
// window query only needs the indexed rectangle to CONTAIN the true
// ε-All rectangle (hits are verified exactly afterwards), so the entry
// is refreshed lazily:
//
//   - a removal can grow the ε-All rectangle beyond the indexed one —
//     reindex immediately (correctness);
//   - an insert only shrinks it — reindex merely when the stale entry
//     has become noticeably less selective (area hysteresis). Since the
//     rectangle's sides are bounded below by ε, a group reindexes O(1)
//     times over its lifetime instead of once per insert.
func (f *indexedFinder) groupChanged(st *sgbAllState, g *group) {
	if !f.indexed[int(g.id)-f.base] {
		return
	}
	r := f.entry(int(g.id))
	epsAllInto(f.all, st, g)
	if r.ContainsRect(f.all) {
		if r.Area() <= defaultHysteresis*f.all.Area() {
			return // still selective enough; keep the stale entry
		}
	}
	st.opt.Stats.addUpdate(2)
	f.ix.Delete(r, g)
	f.index(st, g)
}

// defaultHysteresis is the staleness bound for indexed group
// rectangles: the entry is refreshed once its area exceeds this
// multiple of the true ε-All rectangle's area.
const defaultHysteresis = 1.8

func (f *indexedFinder) groupRemoved(st *sgbAllState, g *group) {
	if !f.indexed[int(g.id)-f.base] {
		return
	}
	st.opt.Stats.addUpdate(1)
	f.ix.Delete(f.entry(int(g.id)), g)
	f.indexed[int(g.id)-f.base] = false
}
