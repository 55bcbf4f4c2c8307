package core

import (
	"slices"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
)

// gridFinder is the GridIndex FindCloseGroups for SGB-All. It keeps a
// cell index of side about ε (cellIndex) and registers in it one of two
// things, by the clause:
//
//   - under ELIMINATE and FORM-NEW-GROUP, every placed member of the
//     pass's groups, by stored index. A probe keys the members in the
//     cells around pi (near's DistKey ≤ EpsKey) and counts the hits per
//     group: a group with a hit for each member is a candidate, one with
//     some but fewer an overlap group. That is All-Pairs' definition
//     read off the members within ε — no rectangle test, no hull;
//   - under JOIN-ANY, which never consults overlaps, each group once, by
//     id, in the cell of its anchor — its first member, which never
//     leaves it (JOIN-ANY removes no member, and a decremental retire
//     drops the whole group). A candidate group's anchor lies in its
//     member MBR, which classify's test puts within ε of pi on every
//     axis, so a probe hands the anchors around pi to classify.
//
// Either way what a probe needs is within ε of pi on every axis (by
// the distance key; under L2 by geom's TestDistKeyBoundsEveryAxis), and
// such a point lies in pi's cell or in an adjacent one. One
// registration per member or group means a probe collects each at most
// once: no dedup pass. The probe hands its lists over in whatever order
// the cells yield them; processOne puts them into creation order
// (sortByStamp), the one order every strategy arbitrates in.
type gridFinder struct {
	noHooks
	cells   cellIndex
	members bool // register members (ELIMINATE, FORM-NEW-GROUP), not anchors

	ids     []int32   // the probe's registrants
	keys    []float64 // their distance keys, under members
	touched []int32   // the groups with a hit in st.hits
}

// cellIndex is where gridFinder registers: a whole-set pass's sorted
// cells, or an AllEvaluator's hash grid. Registrants are int32 ids, each
// filed under the cell of the stored point pos.
type cellIndex interface {
	add(ps *geom.PointSet, pos int, id int32)
	remove(ps *geom.PointSet, pos int, id int32)
	// collect appends to dst the ids registered in the cells around
	// stored point pi: every cell that can hold a point within ε of it.
	collect(ps *geom.PointSet, pi int, dst []int32) []int32
}

func newGridFinder(opt Options, cells cellIndex) *gridFinder {
	return &gridFinder{cells: cells, members: opt.Overlap != JoinAny}
}

func (f *gridFinder) findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group) {
	st.opt.Stats.addProbe(1)
	f.ids = f.cells.collect(st.points, pi, f.ids[:0])
	if !f.members {
		return st.classify(pi, f.ids)
	}
	st.opt.Stats.addDist(int64(len(f.ids)))
	f.keys = st.points.AppendDistKeys(f.keys[:0], st.opt.Metric, st.points.At(pi), f.ids)
	if n := len(st.groups); len(st.hits) < n { // first sized for a group per point
		st.hits = append(st.hits, make([]int32, max(n, st.points.Len())-len(st.hits))...)
	}
	touched := f.touched[:0]
	for k, m := range f.ids {
		if f.keys[k] > st.key {
			continue
		}
		g := st.pointGroup[m]
		if st.hits[g] == 0 {
			touched = append(touched, g)
		}
		st.hits[g]++
	}
	f.touched = touched
	st.cands, st.ovs = st.cands[:0], st.ovs[:0]
	for _, id := range touched {
		g := st.groups[id]
		if st.hits[id] == g.size {
			st.cands = append(st.cands, g)
		} else {
			st.ovs = append(st.ovs, g)
		}
		st.hits[id] = 0
	}
	return st.cands, st.ovs
}

// placed registers m, or g under its anchor when m founds it.
func (f *gridFinder) placed(st *sgbAllState, g *group, m int) {
	if f.members {
		f.add(st, m, int32(m))
	} else if g.size == 1 {
		f.add(st, m, g.id)
	}
}

// left unregisters m, or g when its anchor goes (only a decremental
// retire, which removes every member, takes a JOIN-ANY group's anchor).
func (f *gridFinder) left(st *sgbAllState, g *group, m int) {
	if f.members {
		f.remove(st, m, int32(m))
	} else if int32(m) == g.head {
		f.remove(st, m, g.id)
	}
}

func (f *gridFinder) add(st *sgbAllState, pos int, id int32) {
	st.opt.Stats.addUpdate(1)
	f.cells.add(st.points, pos, id)
}

func (f *gridFinder) remove(st *sgbAllState, pos int, id int32) {
	st.opt.Stats.addUpdate(1)
	f.cells.remove(st.points, pos, id)
}

// sortedCells is the cell index of a whole-set pass — a one-shot run,
// and each FORM-NEW-GROUP stage over the points it arbitrates (run).
// The pass's points are known up front, so they are bucketed once by
// the cell graph's radix sort at cellSide(metric, key, maxAbs), which
// puts every pair within the distance key in one cell or in adjacent
// ones, and each occupied cell lists its occupied neighbours by the
// cell graph's forward-prefix walk (cellSort.forward). A probe
// reads the registrants of at most 3^d occupied cells and hashes
// nothing. Every point of the pass is placed at most once in it (a
// point that leaves a group is eliminated or deferred to the next
// stage), so a cell's registrants fit in its run of the sort order.
// One sortedCells serves every stage of a run, and its buffers every
// pass that takes the same pass scratch (passScratch).
//
// Besides the sort, which it shares with the pass scratch's cell graph,
// it keeps a cell per point, the neighbourhood lists and a registrant
// count per cell; the registrant slots are the radix sort's spare id
// buffer.
type sortedCells struct {
	*cellSort
	cellAt []int32 // stored index → its cell, for the pass's points
	adjAt  []int32 // cell c's neighbourhood, itself first: adj[adjAt[c]:adjAt[c+1]]
	adj    []int32
	count  []int32 // cell c's registrants: reg[start(c) : start(c)+count[c]]
	reg    []int32
}

// build indexes the stored points order of ps for a pass at the
// distance key key.
func (s *sortedCells) build(ps *geom.PointSet, order []int, metric geom.Metric, key float64) {
	ids := slices.Grow(s.ids[:0], len(order))
	for _, pi := range order {
		ids = append(ids, int32(pi))
	}
	s.reset(ps, ids)
	s.bucket(1 / cellSide(metric, key, s.maxAbs))
	cells := len(s.ends)
	s.cellAt = resized(s.cellAt, ps.Len())
	for c := 0; c < cells; c++ {
		for _, id := range s.members(c) {
			s.cellAt[id] = int32(c)
		}
	}
	// One walk lists every cell's forward neighbours, cell after cell,
	// in the sort's spare id buffer while it holds, and counts each
	// cell's neighbours; a cell's list is then itself, the cells before
	// it (placed while those are listed) and its forward ones.
	at := resized(s.adjAt, cells+1)
	clear(at)
	fwd := s.tmp[:0]
	for a := 0; a < cells; a++ {
		from := len(fwd)
		fwd = s.forward(a, fwd)
		at[a+1] += int32(len(fwd) - from)
		for _, b := range fwd[from:] {
			at[b+1]++
		}
	}
	for c := 0; c < cells; c++ {
		at[c+1] += at[c] + 1
	}
	adj, next := resized(s.adj, int(at[cells])), resized(s.count, cells)
	for c := range next {
		next[c] = at[c] + 1
	}
	for a := int32(0); a < int32(cells); a++ {
		adj[at[a]] = a
		for k := next[a]; k < at[a+1]; k++ {
			b := fwd[0]
			fwd = fwd[1:]
			adj[k] = b
			adj[next[b]] = a
			next[b]++
		}
	}
	clear(next)
	s.adjAt, s.adj, s.count, s.reg = at, adj, next, s.tmp
}

// start returns where cell c's run begins in the sort order.
func (s *sortedCells) start(c int32) int32 {
	if c == 0 {
		return 0
	}
	return s.ends[c-1]
}

func (s *sortedCells) add(_ *geom.PointSet, pos int, id int32) {
	c := s.cellAt[pos]
	s.reg[s.start(c)+s.count[c]] = id
	s.count[c]++
}

func (s *sortedCells) remove(_ *geom.PointSet, pos int, id int32) {
	c := s.cellAt[pos]
	from := s.start(c)
	regs := s.reg[from : from+s.count[c]]
	for k, r := range regs {
		if r == id {
			regs[k] = regs[len(regs)-1]
			s.count[c]--
			return
		}
	}
}

func (s *sortedCells) collect(_ *geom.PointSet, pi int, dst []int32) []int32 {
	c := s.cellAt[pi]
	for _, b := range s.adj[s.adjAt[c]:s.adjAt[c+1]] {
		from := s.start(b)
		dst = append(dst, s.reg[from:from+s.count[b]]...)
	}
	return dst
}

// hashCells is the cell index of an AllEvaluator's appends and Remove
// replays: a batch of k ≪ n points cannot pay back a sort over n, so
// registrants go into a grid.Table of side ε under their point, and a
// probe collects the box geom.PaddedReach(p, ε) around p, which
// provably holds the cell of every point within ε of p on every axis.
type hashCells struct {
	tab *grid.Table
	eps float64
}

func newHashCells(dims int, eps float64, sizeHint int) *hashCells {
	return &hashCells{tab: grid.NewCap(dims, eps, sizeHint), eps: eps}
}

func (h *hashCells) add(ps *geom.PointSet, pos int, id int32) { h.tab.AddPoint(ps.At(pos), id) }

func (h *hashCells) remove(ps *geom.PointSet, pos int, id int32) {
	h.tab.RemovePoint(ps.At(pos), id)
}

func (h *hashCells) collect(ps *geom.PointSet, pi int, dst []int32) []int32 {
	p := ps.At(pi)
	return h.tab.CollectBox(p, geom.PaddedReach(p, h.eps), dst)
}
