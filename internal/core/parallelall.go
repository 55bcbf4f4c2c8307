package core

import (
	"sort"
	"sync"
	"time"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
	"github.com/sgb-db/sgb/internal/partition"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file is the parallel arm of SGB-All — the end of the pipeline's
// Amdahl tail. The old pipeline parallelized only the ε-adjacency
// precomputation and then queued every point through one sequential
// arbitration loop; here arbitration itself runs on workers:
//
//	partition  — cut the input into multi-axis ε-tiles (internal/partition)
//	connect    — per-tile Union-Find over a bulk-loaded ε-grid plus
//	             frontier edges: the ε-connected components, on workers
//	arbitrate  — components are batched by point count and every batch
//	             arbitrates on a worker against a PRIVATE group set, in
//	             input order restricted to the batch, tracing the
//	             provenance key of each order-sensitive event (allTrace)
//	merge      — one sort over the traced keys reconstructs the global
//	             sequential creation / elimination order
//
// Why this is exact and not just close: SGB-All arbitration DECOMPOSES
// over the ε-connected components of the input — a point only ever
// meets groups of its own component, processing order restricted to a
// component is the component's own order, and the JOIN-ANY draw is
// keyed by the drawing point's coordinates (rng.drawAt), not by a
// shared stream cursor. ARCHITECTURE.md, "SGB-All decomposes over
// ε-components", has the argument in full; the decremental path
// (decremental.go) stands on it as well. Conflicts between workers are
// therefore impossible by construction: "speculative" per-batch
// arbitration commits without a repair pass, and the merge is a pure
// order reconstruction, bit-identical to the sequential output (the
// equivalence suites in parallel_test.go enforce this across semantics
// × metrics × strategies × worker counts).

// sgbAllParallel runs the parallel SGB-All pipeline with the given
// worker count, returning the same Result a sequential run produces.
// It reports false when the input cannot be split into at least two
// ε-tiles (the caller then evaluates sequentially).
func sgbAllParallel(ps *geom.PointSet, opt Options, workers int) (*Result, bool) {
	n := ps.Len()
	phaseStart := time.Now() //sgblint:allow determinism wall-clock feeds phase-timing stats only, never result rows
	plan := partition.Split(ps, opt.Eps, workers)
	if plan == nil {
		return nil, false
	}
	opt.Stats.notePhase(phasePartition, &phaseStart)

	// Connect: ε-connected components = per-tile Union-Find (each tile
	// probes its own bulk-loaded, Morton-major ε-grid) + frontier edges,
	// folded into one global forest. This is the SGB-Any pipeline run
	// for its components only.
	uf := unionfind.New(n)
	tileUFs := make([]*unionfind.UF, len(plan.Tiles))
	frontEdges := make([][]unionfind.Edge, workers)
	connStats := make([]Stats, len(plan.Tiles)+workers)
	ftab := frontierGrid(ps, opt.Eps, plan.Frontier)
	var wg sync.WaitGroup
	for ti := range plan.Tiles {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tileUFs[ti] = tileComponents(plan.Tiles[ti].Points, opt, &connStats[ti])
		}(ti)
	}
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			lo, hi := chunkRange(len(plan.Frontier), workers, wi)
			frontEdges[wi] = frontierEdges(ps, opt, plan, ftab, lo, hi, &connStats[len(plan.Tiles)+wi])
		}(wi)
	}
	wg.Wait()
	for ti := range tileUFs {
		uf.Absorb(tileUFs[ti], plan.Tiles[ti].Global)
	}
	for _, es := range frontEdges {
		uf.UnionEdges(es)
	}
	for i := range connStats {
		opt.Stats.merge(&connStats[i])
	}
	opt.Stats.notePhase(phaseConnect, &phaseStart)

	// Schedule: number components by first appearance (ascending input
	// index), then cut the component sequence into contiguous batches
	// of near-equal point count — one batch per worker. Contiguity in
	// first-appearance order keeps a batch's points roughly input-
	// clustered, which keeps its private finder's filter work close to
	// the sequential run's.
	compOf := make([]int32, n)
	rootComp := make(map[int32]int32, workers*4)
	nComp := int32(0)
	for i := 0; i < n; i++ {
		root := int32(uf.Find(i))
		c, seen := rootComp[root]
		if !seen {
			c = nComp
			rootComp[root] = c
			nComp++
		}
		compOf[i] = c
	}
	nBatches := workers
	if int(nComp) < nBatches {
		nBatches = int(nComp)
	}
	compBatch := make([]int32, nComp)
	compSize := make([]int32, nComp)
	for i := 0; i < n; i++ {
		compSize[compOf[i]]++
	}
	{
		b, filled := int32(0), 0
		target := (n + nBatches - 1) / nBatches
		for c := int32(0); c < nComp; c++ {
			compBatch[c] = b
			filled += int(compSize[c])
			if filled >= target && int(b) < nBatches-1 {
				b++
				filled = 0
			}
		}
	}
	orders := make([][]int, nBatches)
	for i := 0; i < n; i++ {
		b := compBatch[compOf[i]]
		orders[b] = append(orders[b], i)
	}

	// Arbitrate: every batch runs the one true arbitration loop
	// (sgbAllState.run — the same code the sequential path executes)
	// over its points, against a private group set, with tracing on.
	// The global point set is shared read-only; pointGroup is shared
	// with component-disjoint writes.
	pointGroup := make([]int32, n)
	for i := range pointGroup {
		pointGroup[i] = -1
	}
	states := make([]*sgbAllState, nBatches)
	batchStats := make([]Stats, nBatches)
	for b := 0; b < nBatches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			local := opt
			local.Stats = &batchStats[b]
			st := &sgbAllState{
				points:     ps,
				opt:        local,
				dims:       ps.Dims(),
				rand:       newRNG(opt.Seed),
				pointGroup: pointGroup,
				trace:      &allTrace{},
			}
			st.finder = newFinder(st)
			st.run(orders[b], nil, 0)
			states[b] = st
		}(b)
	}
	wg.Wait()
	for b := range batchStats {
		opt.Stats.merge(&batchStats[b])
	}
	opt.Stats.notePhase(phaseArbitrate, &phaseStart)

	// Merge: order group creations and eliminations globally by their
	// provenance keys. No repair pass runs because none is ever needed —
	// see the file comment.
	type keyedGroup struct {
		key     []int32
		members []int
	}
	var groups []keyedGroup
	type keyedElim struct {
		key []int32
		pi  int
	}
	var elims []keyedElim
	for _, st := range states {
		for id, g := range st.groups {
			if g == nil || len(g.members) == 0 {
				continue
			}
			groups = append(groups, keyedGroup{key: st.trace.groupKeys[id], members: g.members})
		}
		for k, pi := range st.eliminated {
			elims = append(elims, keyedElim{key: st.trace.elimKeys[k], pi: pi})
		}
	}
	sort.Slice(groups, func(i, j int) bool { return keyLess(groups[i].key, groups[j].key) })
	sort.Slice(elims, func(i, j int) bool { return keyLess(elims[i].key, elims[j].key) })
	res := &Result{}
	for _, g := range groups {
		res.Groups = append(res.Groups, Group{Members: g.members})
	}
	for _, e := range elims {
		res.Eliminated = append(res.Eliminated, e.pi)
	}
	opt.Stats.notePhase(phaseMerge, &phaseStart)
	return res, true
}

// tileComponents computes the ε-graph components of one tile: the
// tile's points are bulk-loaded into an ε-grid with the Morton-major
// slab layout, then every point collects its cell neighborhood and
// unions the exact within-ε pairs (half: j < i).
func tileComponents(tps *geom.PointSet, opt Options, stats *Stats) *unionfind.UF {
	uf := unionfind.New(tps.Len())
	tab := grid.BulkLoad(tps, opt.Eps)
	metric, eps := opt.Metric, opt.Eps
	var cur grid.Cursor
	var buf []int32
	for i := 0; i < tps.Len(); i++ {
		p := tps.At(i)
		stats.addProbe(1)
		buf = tab.CollectBox(&cur, p, eps, buf[:0])
		for _, j := range buf {
			if int(j) >= i {
				continue
			}
			stats.addDist(1)
			if metric.Within(p, tps.At(int(j)), eps) {
				uf.Union(i, int(j))
			}
		}
	}
	return uf
}

// allTrace records, during a traced SGB-All run, the provenance key of
// every order-sensitive output event — group creations, ELIMINATE
// victims, FORM-NEW-GROUP deferrals. The parallel pipeline arbitrates
// ε-connected components on private worker states and then merges
// their outputs into the global sequential order by sorting on these
// keys (see parallelall.go's pipeline below).
//
// The key of a processing occurrence is its position in the global
// processing order, written positionally so workers can compute it
// without coordination:
//
//	stage 0:  [pi]                     — the input index itself
//	stage s:  parent key ++ [j]        — the deferring occurrence's key
//	                                     plus the event's index among
//	                                     that occurrence's defer events
//
// Stage s occurrences run in the order their defer events fired during
// stage s-1, so "later stage" ⟺ longer key and, within a stage,
// lexicographic key order IS global processing order (induction over
// stages). Event keys extend the occurrence key with the event's
// intra-occurrence sequence number; group creation keys are the bare
// occurrence key (at most one group is created per occurrence).
type allTrace struct {
	cur []int32 // occurrence key of the point being processed
	seq int32   // intra-occurrence event counter

	groupKeys [][]int32 // creation key per group id (parallel to st.groups)
	elimKeys  [][]int32 // event key per entry of st.eliminated
	deferKeys [][]int32 // event key per entry of st.deferred
}

// beginStage0 starts the occurrence of input point pi at stage 0.
func (t *allTrace) beginStage0(pi int32) {
	t.cur = append(t.cur[:0], pi)
	t.seq = 0
}

// beginOccurrence starts a deferred occurrence with the given key (the
// defer event's key, owned by deferKeys — read-only here).
func (t *allTrace) beginOccurrence(key []int32) {
	t.cur = key
	t.seq = 0
}

// noteGroup records the creation key of the group just appended to
// st.groups.
func (t *allTrace) noteGroup() {
	t.groupKeys = append(t.groupKeys, append([]int32(nil), t.cur...))
}

// eventKey returns the key of the next event of the current occurrence.
func (t *allTrace) eventKey() []int32 {
	k := make([]int32, len(t.cur)+1)
	copy(k, t.cur)
	k[len(t.cur)] = t.seq
	t.seq++
	return k
}

// keyLess orders provenance keys: stage first (key length), then
// lexicographic — the global processing order.
func keyLess(a, b []int32) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
