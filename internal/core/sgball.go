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
	res := &Result{}
	if ps == nil || ps.Len() == 0 {
		return res, nil
	}
	if err := checkCoords(ps, opt.Eps); err != nil {
		return nil, err
	}

	st := &sgbAllState{
		points:     ps,
		opt:        opt,
		dims:       ps.Dims(),
		rand:       newRNG(opt.Seed),
		pointGroup: make([]int32, ps.Len()),
	}
	for i := range st.pointGroup {
		st.pointGroup[i] = -1
	}
	st.finder = newFinder(st)

	order := make([]int, ps.Len())
	for i := range order {
		order[i] = i
	}
	st.run(order, 0)
	return materializeAll(st), nil
}

// run executes one SGB-All pass over the given input order. Under
// FORM-NEW-GROUP semantics the overlapping points deferred into S′ are
// grouped by a recursive pass that only considers groups formed at its
// own recursion stage ("form new groups out of the points in Oset"),
// exactly as Example 1 creates the singleton group g3{a5}.
func (st *sgbAllState) run(order []int, depth int) {
	st.opt.Stats.noteDepth(depth)
	// Groups created before this stage are frozen for candidacy: the
	// recursive pass must not re-admit deferred points into the groups
	// that deferred them. The finder respects this via the stage floor.
	stageFloor := len(st.groups)
	if depth == 0 {
		stageFloor = 0
	}
	prevFloor := st.stageFloor
	st.stageFloor = stageFloor
	defer func() { st.stageFloor = prevFloor }()
	if depth > 0 {
		st.finder.stageReset(st)
	}

	st.processPoints(order)

	// FORM-NEW-GROUP: recursively group the deferred set S′ until it is
	// empty. Each stage strictly shrinks S′ (a deferred point implies at
	// least two placed points at its stage), so the recursion terminates.
	if st.opt.Overlap == FormNewGroup && len(st.deferred) > 0 {
		next := st.deferred
		st.deferred = nil
		st.run(next, depth+1)
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
	p := st.points.At(pi)
	for _, g := range overlaps {
		victims := make(map[int]bool)
		for _, m := range g.members {
			st.opt.Stats.addDist(1)
			if st.opt.Metric.Within(p, st.points.At(m), st.opt.Eps) {
				victims[m] = true
			}
		}
		if len(victims) == 0 {
			continue
		}
		switch st.opt.Overlap {
		case Eliminate:
			for _, m := range g.members {
				if victims[m] {
					st.eliminatePoint(m)
				}
			}
		case FormNewGroup:
			for _, m := range g.members {
				if victims[m] {
					st.deferPoint(m)
				}
			}
		}
		st.removeMembers(g, victims)
	}
}

// newFinder instantiates the strategy selected by the options.
func newFinder(st *sgbAllState) finder {
	switch st.opt.Algorithm {
	case AllPairs:
		return &allPairsFinder{}
	case BoundsCheck:
		return &boundsFinder{}
	case OnTheFlyIndex:
		return newIndexedFinder(st.dims)
	case GridIndex:
		// Hashed cell keys support any dimensionality, so the grid is
		// the strategy at every d — no R-tree fallback.
		return newGridFinder(st.dims, st.opt, st.points.Len())
	default:
		panic("core: unknown algorithm")
	}
}
