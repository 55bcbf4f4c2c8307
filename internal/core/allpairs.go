package core

// allPairsFinder is the naive FindCloseGroups of Procedure 2: it
// evaluates the distance-to-all similarity predicate between pi and
// every previously processed point. With n input points this incurs
// C(n,2) distance computations, the O(n²) baseline of Table 1.
type allPairsFinder struct {
	noHooks
	cands, ovs []*group // result buffers, reused across probes
}

func (f *allPairsFinder) findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group) {
	f.cands, f.ovs = f.cands[:0], f.ovs[:0]
	joinAny := st.opt.Overlap == JoinAny
	keyed := 0
	for _, gj := range st.groups {
		if gj == nil {
			continue
		}
		// near counts the members within ε: all of them make gj a
		// candidate, some an overlap group. JOIN-ANY never consults
		// OverlapGroups, so its scan stops at the first member that is
		// not within ε.
		near := int32(0)
		for m := gj.head; m >= 0; m = st.next[m] {
			keyed++
			if st.near(pi, int(m)) {
				near++
			} else if joinAny {
				break
			}
		}
		if near == gj.size {
			f.cands = append(f.cands, gj)
		} else if near > 0 && !joinAny {
			f.ovs = append(f.ovs, gj)
		}
	}
	st.opt.Stats.addDist(int64(keyed))
	return f.cands, f.ovs
}
