package core

import (
	"errors"
	"fmt"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file is the persistence boundary of the resumable evaluators:
// ExportState copies the LOGICAL evaluation state — points, liveness,
// components or group membership, PRNG position — into plain slices a
// checkpoint writer can serialize, and the Restore constructors rebuild
// a working evaluator from such a snapshot. Derived structures (the
// SGB-Any Points_IX, the SGB-All finder, rect rows, hulls, Union-Find
// scratch) are deliberately NOT serialized: they are recomputed on
// restore from the logical state through the same registration steps
// the live evaluator runs, which keeps the on-disk format small and
// independent of index implementation details.
//
// Equivalence guarantees (exercised by persist_test.go):
//
//   - SGB-Any: components are order-independent, and restore re-adds
//     every live point to a fresh index, so a restored evaluator is
//     observationally identical to the original — same Results, same
//     behavior under further Append/Remove.
//   - SGB-All: arbitration depends on the candidate enumeration order
//     and the JOIN-ANY draw key. Export writes the groups in creation
//     order, restore numbers them in that order, rect rows are
//     recomputed from members with the same order-insensitive min/max
//     folds, and the draws are keyed by coordinates under the seed
//     state — so a restored evaluator takes future appends
//     bit-identically. What the format does not hold is WHICH point
//     created a group or caused an ELIMINATE / FORM-NEW-GROUP event,
//     the stamps a local replay splices by (decremental.go). Under
//     JOIN-ANY a group's creator is its first member, so they are
//     known; under the other two clauses a restored evaluator runs on
//     the order alone until its first Remove replays everything.
//     A JOIN-ANY state whose draws were keyed by live rank (RandState
//     says so) is arbitrated again from its point log.

// AnyState is the portable snapshot of an AnyEvaluator. All slices are
// owned by the state (ExportState copies out; Restore copies in).
type AnyState struct {
	Opt  Options // Stats stripped: counters are not evaluation state
	Dims int
	Data []float64 // flat coordinates of every stored point, stride Dims

	Live  []int32 // stored positions in arrival order; nil = identity
	Alive []bool  // liveness per stored position; nil = all alive
	Dead  int     // tombstone count (= number of false flags in Alive)

	UFParent []int32 // Union-Find forest over stored positions
	UFRank   []int8
	UFCount  int
}

// ExportState snapshots the evaluator's logical state: the points and
// the top level's partition — all of it for a one-level evaluator; a
// multi-level one restores as its top level alone. The forest is not
// exported (RestoreAnyEvaluator). The evaluator remains usable; later
// mutations do not affect the snapshot.
func (e *AnyEvaluator) ExportState() *AnyState {
	opt := e.opt
	opt.Stats = nil
	parent, rank, count := e.f.ufs[len(e.f.ufs)-1].Snapshot()
	return &AnyState{
		Opt:      opt,
		Dims:     e.points.Dims(),
		Data:     append([]float64(nil), e.points.Data()...),
		Live:     append([]int32(nil), e.live...),
		Alive:    append([]bool(nil), e.alive...),
		Dead:     e.dead,
		UFParent: parent,
		UFRank:   rank,
		UFCount:  count,
	}
}

// RestoreAnyEvaluator rebuilds a resumable SGB-Any evaluation from a
// snapshot: the points and the Union-Find forest are adopted, and every
// live point is re-registered in a freshly built Points_IX. The spanning
// forest a Remove repairs is not in the snapshot: appends maintain the
// adopted partition, and the first Remove plants the forest with one
// probe pass over the live points (AnyEvaluator.plant). Corrupt
// snapshots (out-of-range positions, inconsistent liveness) are
// rejected rather than trusted — a checksummed checkpoint should never
// produce one, but recovery code must not panic on its inputs.
func RestoreAnyEvaluator(s *AnyState) (*AnyEvaluator, error) {
	opt := s.Opt
	opt.Stats = nil
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if s.Dims < 1 {
		return nil, errors.New("core: restore: dims must be >= 1")
	}
	if len(s.Data)%s.Dims != 0 {
		return nil, fmt.Errorf("core: restore: %d coordinates is not a multiple of dims %d", len(s.Data), s.Dims)
	}
	n := len(s.Data) / s.Dims
	uf, ok := unionfind.Restore(
		append([]int32(nil), s.UFParent...),
		append([]int8(nil), s.UFRank...),
		s.UFCount)
	if !ok || uf.Len() != n {
		return nil, errors.New("core: restore: corrupt union-find snapshot")
	}
	if s.Dead != 0 && s.Alive == nil {
		// The index rebuild needs the bitmap to skip tombstones.
		return nil, errors.New("core: restore: dead count without liveness bitmap")
	}
	live, alive, err := checkLiveness(n, s.Live, s.Alive, s.Dead)
	if err != nil {
		return nil, err
	}
	e := &AnyEvaluator{
		opt:    opt,
		eps:    []float64{opt.Eps},
		points: geom.Wrap(s.Dims, append([]float64(nil), s.Data...)),
		f:      &anyForests{keys: []float64{opt.Metric.EpsKey(opt.Eps)}, ufs: []*unionfind.UF{uf}},
		ix:     newAnyGrid(s.Dims, n, opt.Eps),
		live:   live,
		alive:  alive,
		dead:   s.Dead,
	}
	if err := checkCoords(e.points, opt.Eps); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	// Rebuild Points_IX by registering every live stored position —
	// components are already known, so add (no probing) suffices,
	// mirroring the storage-compaction rebuild.
	for i := 0; i < n; i++ {
		if alive == nil || alive[i] {
			e.ix.add(e.points, i, e.opt)
		}
	}
	return e, nil
}

// AllState is the portable snapshot of an AllEvaluator.
type AllState struct {
	Opt  Options // Stats stripped
	Dims int
	Data []float64 // flat coordinates of every stored point, stride Dims

	Live []int32 // stored indices in arrival order; nil = identity
	Dead int

	// RandState is the seed state of the JOIN-ANY draws and, with it,
	// the tag of how they are keyed: newRNG's value means by the drawing
	// point's coordinates, rankKeyedState's by its live rank — what
	// checkpoints before the re-key hold. RestoreAllEvaluator accepts
	// both and nothing else under JOIN-ANY, anything under the others.
	RandState  uint64
	StageFloor int     // FORM-NEW-GROUP stage freeze floor
	Eliminated []int32 // stored indices dropped by ELIMINATE
	Deferred   []int32 // S′: stored indices deferred by FORM-NEW-GROUP

	// Groups holds each group's member list (stored indices, join
	// order) in creation order. Restore skips empty entries: older
	// checkpoints wrote one for every group ELIMINATE or FORM-NEW-GROUP
	// had emptied, when ids still fed candidate ordering.
	Groups [][]int32
}

// ExportState snapshots the evaluator's logical state. The evaluator
// remains usable; later mutations do not affect the snapshot.
func (e *AllEvaluator) ExportState() *AllState {
	st := e.st
	opt := st.opt
	opt.Stats = nil
	s := &AllState{
		Opt:        opt,
		Dims:       st.dims,
		Data:       append([]float64(nil), st.points.Data()...),
		Live:       append([]int32(nil), e.live...),
		Dead:       e.dead,
		RandState:  st.rand.state,
		StageFloor: st.stageFloor,
		Eliminated: toInt32(st.eliminated),
		Deferred:   toInt32(st.deferred),
		Groups:     make([][]int32, 0, len(st.order)),
	}
	for _, id := range st.order {
		if g := st.groups[id]; g != nil {
			s.Groups = append(s.Groups, toInt32(g.members))
		}
	}
	return s
}

// RestoreAllEvaluator rebuilds a resumable SGB-All evaluation from a
// snapshot. Group structs, rect rows (order-insensitive min/max folds
// over the members, so bit-identical to the originals), the pointGroup
// map, and the finder registrations are all recomputed; the convex
// hull caches start dirty and rebuild lazily. A JOIN-ANY snapshot whose
// draws were keyed by live rank is not adopted: its grouping is one no
// run of this engine produces, so its live points are arbitrated again.
// Corrupt snapshots are rejected, not trusted.
func RestoreAllEvaluator(s *AllState) (*AllEvaluator, error) {
	opt := s.Opt
	opt.Stats = nil
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if s.Dims < 1 {
		return nil, errors.New("core: restore: dims must be >= 1")
	}
	if len(s.Data)%s.Dims != 0 {
		return nil, fmt.Errorf("core: restore: %d coordinates is not a multiple of dims %d", len(s.Data), s.Dims)
	}
	n := len(s.Data) / s.Dims
	live, _, err := checkLiveness(n, s.Live, nil, s.Dead)
	if err != nil {
		return nil, err
	}
	if s.StageFloor != 0 {
		// The retained state is the main pass; a recursion stage only
		// ever runs on Result's clone.
		return nil, errors.New("core: restore: stage floor out of range")
	}
	pts := geom.Wrap(s.Dims, append([]float64(nil), s.Data...))
	if err := checkCoords(pts, opt.Eps); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	// Only JOIN-ANY draws, so only its state must name the seed: the other
	// clauses restore whatever seed they were saved under.
	if opt.Overlap == JoinAny && s.RandState != newRNG(opt.Seed).state {
		if s.RandState != rankKeyedState(opt.Seed) {
			return nil, errors.New("core: restore: PRNG state matches no draw key of this seed")
		}
		if live != nil {
			pts = pts.Gather(live)
		}
		e, err := NewAllEvaluator(s.Dims, opt)
		if err != nil {
			return nil, err
		}
		return e, e.Append(pts)
	}

	st := newMaintainedState(pts, opt)
	st.eliminated = toInt(s.Eliminated, n)
	st.deferred = toInt(s.Deferred, n)
	if st.eliminated == nil && len(s.Eliminated) > 0 || st.deferred == nil && len(s.Deferred) > 0 {
		return nil, errors.New("core: restore: eliminated/deferred index out of range")
	}
	// Only JOIN-ANY says who created what: nothing ever leaves a group,
	// so the creator is the first member, and there are no events.
	// Otherwise the stamps keep the stored order, below every stamp an
	// append can hand out, and the causes are unknown.
	stamped := opt.Overlap == JoinAny
	st.elimCause = unknownCauses(len(st.eliminated))
	st.deferCause = unknownCauses(len(st.deferred))
	for _, members := range s.Groups {
		if len(members) == 0 {
			continue
		}
		g := st.allocGroup()
		g.id = len(st.groups)
		g.members = make([]int, 0, len(members))
		for _, m := range members {
			if m < 0 || int(m) >= n {
				return nil, fmt.Errorf("core: restore: group %d member %d out of range", g.id, m)
			}
			if st.pointGroup[m] != -1 {
				return nil, fmt.Errorf("core: restore: point %d in two groups", m)
			}
			g.members = append(g.members, int(m))
			st.pointGroup[m] = int32(g.id)
		}
		g.stamp = g.members[0]
		if !stamped {
			g.stamp = g.id - len(s.Groups)
		} else if k := len(st.groups); k > 0 && g.stamp <= st.groups[k-1].stamp {
			return nil, fmt.Errorf("core: restore: group %d out of creation order", g.id)
		}
		st.newRectRow(g, st.points.At(g.members[0]))
		for _, m := range g.members[1:] {
			p := st.points.At(m)
			g.epsRect.ShrinkToEpsBox(p, opt.Eps)
			g.mbr.ExtendPoint(p)
		}
		g.hullDirty = true
		st.groups = append(st.groups, g)
		st.order = append(st.order, int32(g.id))
		// The same groupCreated call, in the same order, a replayed run
		// would make.
		st.finder.groupCreated(st, g)
	}
	return &AllEvaluator{st: st, live: live, dead: s.Dead, stamped: stamped}, nil
}

// unknownCauses fills a restored event list's causes with -1: before
// anything an append can cause, and equal, so a merge keeps their order.
func unknownCauses(n int) []int32 {
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// checkLiveness validates the live/alive/dead triple of a snapshot
// against n stored positions and returns defensive copies.
func checkLiveness(n int, live []int32, alive []bool, dead int) ([]int32, []bool, error) {
	if alive != nil && len(alive) != n {
		return nil, nil, errors.New("core: restore: liveness bitmap length mismatch")
	}
	deadSeen := 0
	for _, a := range alive {
		if !a {
			deadSeen++
		}
	}
	if alive != nil && deadSeen != dead {
		return nil, nil, errors.New("core: restore: dead count does not match liveness bitmap")
	}
	if live == nil {
		if dead != 0 {
			return nil, nil, errors.New("core: restore: tombstones without a live mapping")
		}
		return nil, copyBools(alive), nil
	}
	if len(live) != n-dead {
		return nil, nil, errors.New("core: restore: live mapping length mismatch")
	}
	seen := make([]bool, n)
	for _, pos := range live {
		if pos < 0 || int(pos) >= n || seen[pos] {
			return nil, nil, errors.New("core: restore: corrupt live mapping")
		}
		if alive != nil && !alive[pos] {
			return nil, nil, errors.New("core: restore: live mapping names a dead position")
		}
		seen[pos] = true
	}
	return append([]int32(nil), live...), copyBools(alive), nil
}

func copyBools(b []bool) []bool {
	if b == nil {
		return nil
	}
	return append([]bool(nil), b...)
}

func toInt32(xs []int) []int32 {
	if xs == nil {
		return nil
	}
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// toInt widens back, rejecting out-of-range indices with a nil return
// (the caller raises the error; n bounds the valid index space).
func toInt(xs []int32, n int) []int {
	if xs == nil {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		if x < 0 || int(x) >= n {
			return nil
		}
		out[i] = int(x)
	}
	return out
}
