package core

// boundsFinder is the Bounds-Checking FindCloseGroups of Procedure 4:
// each group carries its member MBR, from which its ε-All bounding
// rectangle (Definition 5) follows, so deciding candidacy takes O(d)
// comparisons per group
// instead of one per member — O(n·|G|) overall (Table 1). It hands
// every live group of the current stage to classify.
type boundsFinder struct {
	noHooks
	ids []int32 // live group ids, reused across probes
}

func (f *boundsFinder) findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group) {
	f.ids = f.ids[:0]
	for id := st.stageFloor; id < len(st.groups); id++ {
		if st.groups[id] != nil {
			f.ids = append(f.ids, int32(id))
		}
	}
	return st.classify(pi, f.ids)
}
