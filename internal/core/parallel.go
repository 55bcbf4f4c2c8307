package core

import (
	"sync"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/partition"
)

// This file is the parallel arm of the SGB-Any pipeline (SGB-All has
// none: it is order-sensitive and runs one sequential loop):
//
//	partition — cut the input into multi-axis ε-tiles (internal/partition)
//	evaluate  — per-tile SGB-Any runs on worker goroutines, each into
//	            private Union-Finds (one per ε level) over the tile's
//	            sub-PointSet
//	frontier  — probes over the frontier band emitting cross-tile
//	            within-ε pairs with their keys, chunked across workers
//	            against one bulk-loaded read-only ε-grid
//	            (Plan.FrontierPairs)
//	merge     — a single-threaded Union-Find reduction folding tile
//	            partitions and frontier pairs into the global forests,
//	            level by level
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

	type tileResult struct {
		f     *anyForests
		stats Stats
	}
	tileRes := make([]tileResult, len(plan.Tiles))
	var front [][]partition.Pair
	var frontDists int64

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
			local.Stats = &tileRes[ti].stats
			tileRes[ti].f = newAnyForests(f.keys, tile.Points.Len())
			sgbAnyLocal(tile.Points, local, tileRes[ti].f)
		}(ti)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { panics[len(plan.Tiles)] = recover() }()
		front, frontDists = plan.FrontierPairs(ps, opt.Metric, opt.Eps, workers)
	}()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}

	// Merge: fold tile partitions and frontier pairs into the shared
	// forests. Union-Find merging is order-independent, so the final
	// components are identical to a sequential run. Absorbing every
	// tile at every level keeps each level refining the next, which the
	// frontier pairs' union relies on.
	for ti := range plan.Tiles {
		for l, uf := range f.ufs {
			uf.Absorb(tileRes[ti].f.ufs[l], plan.Tiles[ti].Global)
		}
		opt.Stats.Merge(&tileRes[ti].stats)
	}
	var merged int64
	for _, pairs := range front {
		for _, p := range pairs {
			merged += f.union(int(p.A), int(p.B), p.Key)
		}
	}
	opt.Stats.addMerge(merged)
	opt.Stats.addProbe(int64(len(plan.Frontier)))
	opt.Stats.addDist(frontDists)
	return true
}

// sgbAnyLocal runs one SGB-Any evaluation over a (sub-)PointSet into f
// — the tile-local evaluate stage, shared with the sequential path in
// sgbAnyLevels. One level drives the resumable anyIndex step of the
// strategy opt names, the one the incremental evaluator runs, over the
// whole input at once; several levels drive the ε-grid's stepLevels.
func sgbAnyLocal(ps *geom.PointSet, opt Options, f *anyForests) {
	if len(f.ufs) == 1 {
		ix := newAnyIndex(ps.Dims(), ps.Len(), opt)
		for i := 0; i < ps.Len(); i++ {
			ix.step(ps, i, opt, f.ufs[0])
		}
		return
	}
	g := newAnyGrid(ps.Dims(), ps.Len(), opt.Eps)
	for i := 0; i < ps.Len(); i++ {
		g.stepLevels(ps, i, opt, f)
	}
}
