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
	for _, gj := range st.groups[st.stageFloor:] {
		if gj == nil {
			continue
		}
		candidateFlag := true
		overlapFlag := false
		for m := gj.head; m >= 0; m = st.next[m] {
			st.opt.Stats.addDist(1)
			if st.near(pi, int(m)) {
				overlapFlag = true
			} else {
				candidateFlag = false
				if st.opt.Overlap == JoinAny {
					// JOIN-ANY never consults OverlapGroups, so the
					// scan can stop at the first failing member.
					break
				}
			}
		}
		if candidateFlag {
			f.cands = append(f.cands, gj)
		} else if st.opt.Overlap != JoinAny && overlapFlag {
			f.ovs = append(f.ovs, gj)
		}
	}
	return f.cands, f.ovs
}
