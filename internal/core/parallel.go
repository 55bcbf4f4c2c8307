package core

import (
	"sync"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
	"github.com/sgb-db/sgb/internal/partition"
)

// This file is the parallel arm of the SGB-Any pipeline (SGB-All has
// none: it is order-sensitive and runs one sequential loop):
//
//	partition — cut the input into multi-axis ε-tiles (internal/partition)
//	evaluate  — per-tile SGB-Any runs on worker goroutines, each into
//	            private Union-Finds (one per ε level) over the tile's
//	            sub-PointSet
//	frontier  — probes over the frontier band keeping each probe's
//	            cross-tile candidates within ε as one keyed run, chunked
//	            across workers against one bulk-loaded read-only ε-grid
//	            (anyFrontier)
//	merge     — a single-threaded Union-Find reduction folding tile
//	            partitions, then the frontier runs through the one join,
//	            into the global forests (anyMerge)
//
// SGB-Any's connected-component semantics are order-independent, so
// the tiled evaluation is exact: every ε-edge of the similarity graph
// is either intra-tile (found by the tile-local run) or has both
// endpoints in the frontier (found by the frontier probe) — the
// partition invariant proved in internal/partition. Tiles are cut at
// the top level's ε, so the invariant holds at every level below it.
//
// sgbAnyParallel runs the tiled SGB-Any pipeline with the given worker
// count into f. It reports false when the input cannot be split into at
// least two ε-tiles (the caller then evaluates sequentially).
func sgbAnyParallel(ps *geom.PointSet, opt Options, f *anyForests, workers int) bool {
	plan := partition.Split(ps, opt.Eps, workers)
	if plan == nil {
		return false
	}
	tiles := make([]*anyForests, len(plan.Tiles))
	stats := make([]Stats, len(plan.Tiles))
	var front []frontierRuns

	// Evaluate and frontier stages share the worker pool: both are
	// read-only over the input and write only worker-private state. A
	// worker's panic is recovered into its slot (the frontier probe's is
	// the last) and the first one is raised again here once every worker
	// is done, where the caller can recover it.
	var wg sync.WaitGroup
	panics := make([]any, len(plan.Tiles)+1)
	for ti := range plan.Tiles {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			defer func() { panics[ti] = recover() }()
			tile := &plan.Tiles[ti]
			local := opt
			local.Stats = &stats[ti]
			tiles[ti] = newAnyForests(f.keys, tile.Points.Len())
			sgbAnyLocal(tile.Points, local, tiles[ti])
		}(ti)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { panics[len(plan.Tiles)] = recover() }()
		front = anyFrontier(ps, plan, opt, f.keys[len(f.keys)-1], workers)
	}()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for ti := range stats {
		opt.Stats.Merge(&stats[ti])
	}
	anyMerge(f, plan, tiles, front, opt)
	return true
}

// frontierRuns is what one frontier worker keeps: for each probe that
// found a cross-tile pair within the top level, one run of the
// candidates it kept, ids[ends[r-1]:ends[r]] with their keys, for the
// probing point probes[r]. dists counts the keys it computed.
type frontierRuns struct {
	probes, ends, ids []int32
	keys              []float64
	dists             int64
}

// anyFrontier finds every within-top pair of ps whose endpoints lie in
// different tiles of plan; plan must be ps's cut at opt.Eps, and top the
// top level's threshold in DistKey space. Both endpoints of such a pair
// are in plan.Frontier, so only the frontier points are bulk-loaded into
// an ε-grid, which is read-only afterwards: workers goroutines probe it
// over near-equal contiguous chunks of the frontier, each with a private
// Cursor, and a pair is kept once — by its higher-id endpoint. A probe's
// candidates past the id and tile filter are keyed in one kernel call.
// A worker's panic is recovered, and the first one is raised again on
// the calling goroutine once every worker is done.
func anyFrontier(ps *geom.PointSet, plan *partition.Plan, opt Options, top float64, workers int) []frontierRuns {
	ftab := grid.BulkLoad(ps.Gather(plan.Frontier), opt.Eps)
	out := make([]frontierRuns, workers)
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			r := &out[w]
			var cur grid.Cursor
			var buf []int32
			var keys []float64
			lo, hi := w*len(plan.Frontier)/workers, (w+1)*len(plan.Frontier)/workers
			for _, gi := range plan.Frontier[lo:hi] {
				p := ps.At(int(gi))
				buf = ftab.CollectBox(&cur, p, opt.Eps, buf[:0])
				n := 0
				for _, fj := range buf {
					if gj := plan.Frontier[fj]; gj < gi && plan.TileOf[gj] != plan.TileOf[gi] {
						buf[n] = gj
						n++
					}
				}
				r.dists += int64(n)
				keys = ps.AppendDistKeys(keys[:0], opt.Metric, p, buf[:n])
				kept := len(r.ids)
				for k, key := range keys {
					if key <= top {
						r.ids, r.keys = append(r.ids, buf[k]), append(r.keys, key)
					}
				}
				if len(r.ids) > kept {
					r.probes, r.ends = append(r.probes, gi), append(r.ends, int32(len(r.ids)))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// anyMerge folds the tiles' forests and the frontier's runs into f.
// Union-Find merging is order-independent, so the final components are
// identical to a sequential run. Absorbing every tile at every level
// keeps each level refining the next, which the join relies on.
func anyMerge(f *anyForests, plan *partition.Plan, tiles []*anyForests, front []frontierRuns, opt Options) {
	for ti, tf := range tiles {
		for l, uf := range f.ufs {
			uf.Absorb(tf.ufs[l], plan.Tiles[ti].Global)
		}
	}
	var j anyJoin
	var merged int64
	for w := range front {
		r := &front[w]
		start := int32(0)
		for k, end := range r.ends {
			merged += j.link(int(r.probes[k]), r.ids[start:end], r.keys[start:end], f)
			start = end
		}
		opt.Stats.addDist(r.dists)
	}
	opt.Stats.addMerge(merged)
	opt.Stats.addProbe(int64(len(plan.Frontier)))
}

// sgbAnyLocal runs one SGB-Any evaluation over a (sub-)PointSet into f
// — the tile-local evaluate stage, shared with the sequential path in
// sgbAnyLevels: the index opt.Algorithm names absorbs each point at
// every level of f at once (anyJoin.step, the step the incremental
// evaluator runs on the grid).
func sgbAnyLocal(ps *geom.PointSet, opt Options, f *anyForests) {
	ix := newAnyIndex(ps.Dims(), ps.Len(), opt)
	var j anyJoin
	for i := 0; i < ps.Len(); i++ {
		j.step(ix, ps, i, opt, f)
	}
}
