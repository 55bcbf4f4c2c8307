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
	ix   *rtree.Tree
	dims int

	// Buffers reused across probes: the typed window-query hit list
	// (collected via Visit, so hits never round-trip through []any),
	// the candidate/overlap results, the probe's ε-box and the padded
	// window the R-tree is queried with.
	hits       []*group
	cands, ovs []*group
	pBox, win  geom.Rect
}

func newIndexedFinder(dims int) *indexedFinder {
	if dims == 0 {
		dims = 1
	}
	return &indexedFinder{ix: rtree.New(dims), dims: dims}
}

// findCloseGroups queries the R-tree with pi's ε-box widened by the
// grid's pad (geom.PaddedReach): a member MBR may stick a few ulps out of its
// group's ε-All rectangle where distances round onto ε, and an unpadded
// window then missed the overlap group it intersects. classifyGroup's
// exact tests keep the unpadded box.
func (f *indexedFinder) findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group) {
	p := st.points.At(pi)
	geom.EpsBoxInto(&f.pBox, p, st.opt.Eps)
	geom.EpsBoxInto(&f.win, p, geom.PaddedReach(p, st.opt.Eps))
	st.opt.Stats.addProbe(1)
	f.hits = f.hits[:0]
	f.ix.Visit(f.win, func(_ geom.Rect, data any) bool {
		f.hits = append(f.hits, data.(*group))
		return true
	})
	// Hits arrive in the R-tree's traversal order; processOne sorts the
	// verified lists into creation order, so every strategy arbitrates
	// JOIN-ANY identically for a given seed.
	needOverlap := st.opt.Overlap != JoinAny
	f.cands, f.ovs = f.cands[:0], f.ovs[:0]
	for _, gj := range f.hits {
		if gj.id < st.stageFloor {
			continue // frozen by a FORM-NEW-GROUP recursion stage
		}
		f.cands, f.ovs = st.classifyGroup(pi, gj, p, &f.pBox, needOverlap, f.cands, f.ovs)
	}
	return f.cands, f.ovs
}

func (f *indexedFinder) groupCreated(st *sgbAllState, g *group) {
	g.indexedRect = g.epsRect.Clone()
	g.indexed = true
	st.opt.Stats.addUpdate(1)
	f.ix.Insert(g.indexedRect, g)
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
	if !g.indexed {
		return
	}
	if g.indexedRect.ContainsRect(g.epsRect) {
		if g.indexedRect.Area() <= defaultHysteresis*g.epsRect.Area() {
			return // still selective enough; keep the stale entry
		}
	}
	st.opt.Stats.addUpdate(2)
	f.ix.Delete(g.indexedRect, g)
	g.indexedRect = g.epsRect.Clone()
	f.ix.Insert(g.indexedRect, g)
}

// defaultHysteresis is the staleness bound for indexed group
// rectangles: the entry is refreshed once its area exceeds this
// multiple of the true ε-All rectangle's area.
const defaultHysteresis = 1.8

func (f *indexedFinder) groupRemoved(st *sgbAllState, g *group) {
	if !g.indexed {
		return
	}
	st.opt.Stats.addUpdate(1)
	f.ix.Delete(g.indexedRect, g)
	g.indexed = false
}

// stageReset rebuilds Groups_IX empty at a FORM-NEW-GROUP recursion
// stage: every group created so far is frozen, so keeping its
// rectangle indexed would only produce window-query hits that the
// stage filter discards — on high-overlap inputs those stale hits
// dominated the runtime.
func (f *indexedFinder) stageReset(st *sgbAllState) {
	for _, g := range st.groups {
		if g != nil {
			g.indexed = false
		}
	}
	f.ix = rtree.New(f.dims)
}
