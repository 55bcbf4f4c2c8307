package core

import "github.com/sgb-db/sgb/internal/geom"

// SGBAll evaluates the SGB-All (DISTANCE-TO-ALL) operator over points:
// every output group is a clique of the ε-similarity graph, and points
// qualifying for multiple groups are arbitrated by opt.Overlap.
// Members are reported as indices into points. This is Procedure 1 of
// the paper with the strategy selected by opt.Algorithm.
func SGBAll(points []geom.Point, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := CheckPoints(points); err != nil {
		return nil, err
	}
	return sgbAllSet(geom.FromPoints(points), opt)
}

// SGBAllSet is SGBAll over flat point storage; exec builds the
// PointSet directly from the tuple store, and FromPoints adapts
// []Point callers (zero-copy when the points already view one flat
// buffer).
func SGBAllSet(ps *geom.PointSet, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return sgbAllSet(ps, opt)
}

func sgbAllSet(ps *geom.PointSet, opt Options) (*Result, error) {
	if ps == nil || ps.Len() == 0 {
		return &Result{}, nil
	}
	if err := checkCoords(ps, opt.Eps); err != nil {
		return nil, err
	}
	sc := getPassScratch()
	st := sc.allState(ps, opt)
	order := resized(st.spare, ps.Len())
	for i := range order {
		order[i] = i
	}
	st.run(order, 0)
	res := st.result(nil)
	sc.release()
	return res, nil
}

// result materializes the grouping: the groups in creation order (the
// order list), members as idx maps their stored indices (nil: they are
// the output ids), in one run sized exactly, and the eliminated points
// in a list of its own: the Result shares nothing with the state.
func (st *sgbAllState) result(idx []int32) *Result {
	n, k := 0, 0
	for _, id := range st.order {
		if g := st.groups[id]; g != nil {
			n, k = n+int(g.size), k+1
		}
	}
	members, ends := make([]int32, 0, n), make([]int32, 0, k)
	for _, id := range st.order {
		if g := st.groups[id]; g != nil {
			members = st.appendMembers(members, g)
			ends = append(ends, int32(len(members)))
		}
	}
	if idx != nil {
		for i, m := range members {
			members[i] = idx[m]
		}
	}
	res := newResult(members, ends)
	if len(st.eliminated) > 0 {
		res.Eliminated = make([]int, len(st.eliminated))
		for i, m := range st.eliminated {
			if idx != nil {
				m = int(idx[m])
			}
			res.Eliminated[i] = m
		}
	}
	return res
}

// run executes the whole-set SGB-All passes over the given input order,
// each on a finder of its own (passFinder), on a state taken from the
// pass scratch pool. Under FORM-NEW-GROUP semantics the overlapping
// points deferred into S′ are grouped by a further pass that only
// considers groups formed at its own recursion stage ("form new groups
// out of the points in Oset"), exactly as Example 1 creates the
// singleton group g3{a5}; each stage defers into the buffer of the
// order the stage before it ran, and the last one's is kept (spare).
func (st *sgbAllState) run(order []int, depth int) {
	for {
		st.opt.Stats.noteDepth(depth)
		// Groups created before this stage are frozen for candidacy: the
		// recursive pass must not re-admit deferred points into the
		// groups that deferred them. A fresh finder has never seen them.
		st.stageFloor = len(st.groups)
		st.finder = st.passFinder(order)

		st.processPoints(order)

		// FORM-NEW-GROUP: group the deferred set S′ again until it is
		// empty. Each stage strictly shrinks S′ (a deferred point implies
		// at least two placed points at its stage), so the recursion
		// terminates.
		if st.opt.Overlap != FormNewGroup || len(st.deferred) == 0 {
			st.spare = order
			return
		}
		order, st.deferred = st.deferred, order[:0]
		st.deferCause = st.deferCause[:0]
		depth++
	}
}

// processPoints runs the main per-point arbitration loop of
// Procedure 1 over the given input order, one processOne per point.
func (st *sgbAllState) processPoints(order []int) {
	for _, pi := range order {
		st.processOne(pi)
	}
}

// processOne arbitrates a single input point: probe for candidate and
// overlap groups, place (or defer / eliminate) the point, then apply
// the overlap clause to the partially matching groups. It is the
// single place points enter the grouping state — run drives it (via
// processPoints) for one-shot evaluation including the FORM-NEW-GROUP
// recursion stages, and the incremental AllEvaluator drives it batch
// by batch, so retained state after k points is identical either way.
func (st *sgbAllState) processOne(pi int) {
	st.cur = pi
	candidates, overlaps := st.finder.findCloseGroups(st, pi)
	sortByStamp(candidates)
	st.processGroupingAll(pi, candidates)
	if st.opt.Overlap != JoinAny && len(overlaps) > 0 {
		sortByStamp(overlaps)
		st.processOverlap(pi, overlaps)
	}
}

// processGroupingAll is Procedure 3: place pi into a new group, an
// existing group, or arbitrate via the ON-OVERLAP clause.
func (st *sgbAllState) processGroupingAll(pi int, candidates []*group) {
	switch len(candidates) {
	case 0:
		st.newGroupFor(pi)
	case 1:
		st.insert(pi, candidates[0])
	default:
		switch st.opt.Overlap {
		case JoinAny:
			st.insert(pi, candidates[st.rand.drawAt(st.points.At(pi), len(candidates))])
		case Eliminate:
			// ProcessEliminate: drop pi from the output.
			st.eliminatePoint(pi)
		case FormNewGroup:
			// ProcessNewGroup: defer pi into S′ for the recursive pass.
			st.deferPoint(pi)
		}
	}
}

// processOverlap is the final step of Procedure 1: groups in
// OverlapGroups contain some (but not all) members within ε of pi;
// those members are themselves overlap points (they satisfy the
// predicate with pi's group as well as their own). ELIMINATE deletes
// them; FORM-NEW-GROUP moves them into S′.
func (st *sgbAllState) processOverlap(pi int, overlaps []*group) {
	for _, g := range overlaps {
		victim := st.victim[:0]
		hit := false
		for m := g.head; m >= 0; m = st.next[m] {
			st.opt.Stats.addDist(1)
			v := st.near(pi, int(m))
			victim = append(victim, v)
			hit = hit || v
		}
		st.victim = victim
		if !hit {
			continue
		}
		k := 0
		for m := g.head; m >= 0; m = st.next[m] {
			if victim[k] {
				switch st.opt.Overlap {
				case Eliminate:
					st.eliminatePoint(int(m))
				case FormNewGroup:
					st.deferPoint(int(m))
				}
			}
			k++
		}
		st.removeMembers(g, victim)
	}
}

// passFinder returns the finder of a whole-set pass over order: the
// grid's sorted cell index over exactly those points (sortedCells,
// the pass scratch's, rebuilt for each stage), any other strategy's own
// finder.
func (st *sgbAllState) passFinder(order []int) finder {
	if st.opt.Algorithm != GridIndex {
		return newFinder(st, 0)
	}
	sc := st.scratch
	sc.sorted.build(st.points, order, st.opt.Metric, st.key)
	sc.grid = gridFinder{cells: &sc.sorted, members: st.opt.Overlap != JoinAny,
		ids: sc.grid.ids[:0], keys: sc.grid.keys[:0], touched: sc.grid.touched[:0]}
	return &sc.grid
}

// newFinder instantiates the strategy selected by the options for the
// groups from st.stageFloor on, the grid on a hash grid of its cells
// that points can join one at a time (an AllEvaluator's); sizeHint
// pre-sizes its directory (grid.NewCap). Hashed cell keys support any
// dimensionality, so the grid is the strategy at every d.
func newFinder(st *sgbAllState, sizeHint int) finder {
	switch st.opt.Algorithm {
	case AllPairs:
		return &allPairsFinder{}
	case BoundsCheck:
		return &boundsFinder{}
	case OnTheFlyIndex:
		return newIndexedFinder(st.dims, st.stageFloor)
	case GridIndex:
		return newGridFinder(st.opt, newHashCells(st.dims, st.opt.Eps, sizeHint))
	default:
		panic("core: unknown algorithm")
	}
}
