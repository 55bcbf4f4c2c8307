package core

import "github.com/sgb-db/sgb/internal/geom"

// refine decides whether a point that passed a group's ε-All rectangle
// filter truly satisfies the distance-to-all predicate.
//
// Under L∞ the rectangle test is exact (Definition 5), so refine is a
// no-op returning true.
//
// Under L2 the rectangle admits false positives — points inside the
// ε-All rectangle but outside some member's ε-circle (the grey area of
// Figure 7b). In two dimensions the Convex Hull Test of Procedure 6
// resolves them:
//
//   - a point inside the group's convex hull is within diam(g) ≤ ε of
//     every member, hence a true candidate;
//   - for a point outside the hull, the farthest member is a hull
//     vertex, so comparing against the farthest hull vertex decides —
//     by the distance key against ε's key, as the member scan does,
//     since a square root can round a distance just past ε onto it.
//
// In dimensions other than two (the paper defers d > 3 to future work)
// we refine with an exact member scan, which preserves correctness at
// the cost of the filter's constant-time guarantee.
func (st *sgbAllState) refine(pi int, g *group) bool {
	if st.opt.Metric == geom.LInf {
		return true
	}
	if st.dims != 2 || len(g.members) <= smallGroupScan {
		return st.isCandidate(pi, g)
	}
	st.opt.Stats.addHull(1)
	hull := st.hullOf(g)
	p := st.points.At(pi)
	if hull.Contains(p) {
		return true
	}
	v, _ := hull.Farthest(p, st.opt.Metric)
	st.opt.Stats.addDist(int64(hull.Len()))
	return st.opt.Metric.DistKey(p, v) <= st.opt.Metric.EpsKey(st.opt.Eps)
}

// smallGroupScan is the membership count below which the L2 refinement
// scans members directly instead of consulting the hull: for tiny
// groups the exact scan is cheaper than (re)building and querying the
// hull, and it avoids the rebuild's allocations entirely. Results are
// identical either way — both paths are exact.
const smallGroupScan = 8
