package core

import (
	"sync"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/partition"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file is the parallel arm of the SGB-Any pipeline (SGB-All has
// none: it is order-sensitive and runs one sequential loop):
//
//	partition — cut the input into multi-axis ε-tiles (internal/partition)
//	evaluate  — per-tile SGB-Any runs on worker goroutines, each into
//	            a private Union-Find over the tile's sub-PointSet
//	frontier  — probes over the frontier band emitting cross-tile
//	            within-ε pairs, chunked across workers against one
//	            bulk-loaded read-only ε-grid (Plan.FrontierPairs, the
//	            probe the ε-lattice's tiled build shares)
//	merge     — a single-threaded Union-Find reduction folding tile
//	            partitions and frontier pairs into the global forest
//
// SGB-Any's connected-component semantics are order-independent, so
// the tiled evaluation is exact: every ε-edge of the similarity graph
// is either intra-tile (found by the tile-local run) or has both
// endpoints in the frontier (found by the frontier probe) — the
// partition invariant proved in internal/partition.
//
// sgbAnyParallel runs the tiled SGB-Any pipeline with the given worker
// count. It reports false when the input cannot be split into at least
// two ε-tiles (the caller then evaluates sequentially).
func sgbAnyParallel(ps *geom.PointSet, opt Options, uf *unionfind.UF, workers int) bool {
	plan := partition.Split(ps, opt.Eps, workers)
	if plan == nil {
		return false
	}

	type tileResult struct {
		uf    *unionfind.UF
		stats Stats
	}
	tileRes := make([]tileResult, len(plan.Tiles))
	var front [][]partition.Pair
	var frontDists int64

	// Evaluate and frontier stages share the worker pool: both are
	// read-only over the input and write only worker-private state.
	var wg sync.WaitGroup
	for ti := range plan.Tiles {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tile := &plan.Tiles[ti]
			local := opt
			local.Stats = &tileRes[ti].stats
			tileRes[ti].uf = unionfind.New(tile.Points.Len())
			sgbAnyLocal(tile.Points, local, tileRes[ti].uf)
		}(ti)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		front, frontDists = plan.FrontierPairs(ps, opt.Metric, opt.Eps, workers)
	}()
	wg.Wait()

	// Merge: fold tile partitions and frontier pairs into the shared
	// forest. Union-Find merging is order-independent, so the final
	// components are identical to a sequential run.
	for ti := range plan.Tiles {
		uf.Absorb(tileRes[ti].uf, plan.Tiles[ti].Global)
		opt.Stats.Merge(&tileRes[ti].stats)
	}
	sets := uf.Count()
	for _, pairs := range front {
		for _, p := range pairs {
			uf.Union(int(p.A), int(p.B))
		}
	}
	opt.Stats.addMerge(int64(sets - uf.Count()))
	opt.Stats.addProbe(int64(len(plan.Frontier)))
	opt.Stats.addDist(frontDists)
	return true
}

// sgbAnyLocal runs one SGB-Any evaluation over a (sub-)PointSet into
// uf — the tile-local evaluate stage, shared with the sequential path
// in sgbAnySet. It drives the same resumable anyIndex step as the
// incremental evaluator, over the whole input at once.
func sgbAnyLocal(ps *geom.PointSet, opt Options, uf *unionfind.UF) {
	ix := newAnyIndex(ps.Dims(), ps.Len(), opt)
	for i := 0; i < ps.Len(); i++ {
		ix.step(ps, i, opt, uf)
	}
}
