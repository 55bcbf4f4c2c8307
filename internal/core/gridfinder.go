package core

import (
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
)

// gridFinder is the GridIndex FindCloseGroups for SGB-All: every live
// group is registered ONCE, in the home cell of its anchor — its first
// member, members[0] — and probes find it by neighbourhood. The anchor
// lies in the group's member MBR [lo, hi], and every member is within ε
// of every other by the distance key, so per axis (up to the rounding
// geom.PaddedReach covers)
//
//   - a candidate group's anchor is within ε of the probe point pi: pi
//     passes classify's MBR test, hi − p ≤ ε and p − lo ≤ ε, and
//   - an overlap group's anchor is within 2ε of pi: some member is
//     within ε of pi, and the anchor within ε of that member.
//
// The grid's cell side is that reach — ε under JOIN-ANY, which never
// consults overlaps, 2ε under ELIMINATE / FORM-NEW-GROUP — so either
// probe scans the 3^d cells around pi's home cell, and a new group
// costs one registration instead of one per cell its rectangle covers.
// One registration per group also means a probe collects every id at
// most once: no dedup pass.
//
// A group re-anchors only when its first member leaves it (an
// ELIMINATE / FORM-NEW-GROUP victim); inserts never move the anchor.
//
// A probe hands its hits to classify, the filter-and-verify step all
// three rectangle finders share, in whatever order the cells yield
// them; processOne puts the candidate and overlap lists into creation
// order (sortByStamp), the one order every strategy has to arbitrate
// in.
type gridFinder struct {
	tab   *grid.Table
	cur   grid.Cursor
	reach float64 // probe radius and cell side: ε, or 2ε with overlaps

	// anchor[id−base] is the member whose home cell group id is
	// registered in, -1 while the group is unregistered (removed); base
	// is the first group id the finder sees, its stage's floor.
	anchor []int32
	base   int

	ids []int32 // the probe's hits, reused across probes
}

func newGridFinder(dims int, opt Options, sizeHint, base int) *gridFinder {
	reach := opt.Eps
	if opt.Overlap != JoinAny {
		reach *= 2
	}
	return &gridFinder{tab: grid.NewCap(dims, reach, sizeHint), reach: reach, base: base}
}

// probeRadius pads the reach so the scanned cell range provably holds
// the anchor cell (geom.PaddedReach).
func (f *gridFinder) probeRadius(p geom.Point) float64 { return geom.PaddedReach(p, f.reach) }

func (f *gridFinder) findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group) {
	p := st.points.At(pi)
	st.opt.Stats.addProbe(1)
	f.ids = f.tab.CollectBox(&f.cur, p, f.probeRadius(p), f.ids[:0])
	return st.classify(pi, f.ids)
}

func (f *gridFinder) groupCreated(st *sgbAllState, g *group) {
	for len(f.anchor) <= g.id-f.base {
		f.anchor = append(f.anchor, -1)
	}
	f.register(st, g)
}

// groupChanged re-anchors g when its first member left it; any other
// membership change keeps the registration.
func (f *gridFinder) groupChanged(st *sgbAllState, g *group) {
	if a := f.anchor[g.id-f.base]; a >= 0 && int(a) != g.members[0] {
		f.unregister(st, g)
		f.register(st, g)
	}
}

func (f *gridFinder) groupRemoved(st *sgbAllState, g *group) {
	if f.anchor[g.id-f.base] >= 0 {
		f.unregister(st, g)
	}
}

func (f *gridFinder) register(st *sgbAllState, g *group) {
	a := g.members[0]
	f.anchor[g.id-f.base] = int32(a)
	st.opt.Stats.addUpdate(1)
	f.tab.AddPoint(st.points.At(a), int32(g.id))
}

func (f *gridFinder) unregister(st *sgbAllState, g *group) {
	st.opt.Stats.addUpdate(1)
	f.tab.RemovePoint(st.points.At(int(f.anchor[g.id-f.base])), int32(g.id))
	f.anchor[g.id-f.base] = -1
}
