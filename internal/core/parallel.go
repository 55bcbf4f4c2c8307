package core

import (
	"sync"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
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
//	            within-ε edges, chunked across workers against one
//	            bulk-loaded read-only ε-grid
//	merge     — a single-threaded Union-Find reduction folding tile
//	            partitions and frontier edges into the global forest
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
	frontEdges := make([][]unionfind.Edge, workers)
	frontStats := make([]Stats, workers)
	ftab := frontierGrid(ps, opt.Eps, plan.Frontier)

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
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			lo, hi := chunkRange(len(plan.Frontier), workers, wi)
			frontEdges[wi] = frontierEdges(ps, opt, plan, ftab, lo, hi, &frontStats[wi])
		}(wi)
	}
	wg.Wait()

	// Merge: fold tile partitions and frontier edges into the shared
	// forest. Union-Find merging is order-independent, so the final
	// components are identical to a sequential run.
	for ti := range plan.Tiles {
		uf.Absorb(tileRes[ti].uf, plan.Tiles[ti].Global)
		opt.Stats.merge(&tileRes[ti].stats)
	}
	for wi := range frontEdges {
		opt.Stats.addMerge(int64(uf.UnionEdges(frontEdges[wi])))
		opt.Stats.merge(&frontStats[wi])
	}
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

// frontierGrid bulk-loads the plan's frontier points into an ε-grid
// (ids are positions into the frontier list; the hashed-key table
// supports any dimensionality, and the Morton-major slab layout keeps
// the workers' probe chains prefetch-friendly). The table is read-only
// afterwards: workers probe it concurrently with private Cursors.
func frontierGrid(ps *geom.PointSet, eps float64, frontier []int32) *grid.Table {
	fps := ps.Gather(frontier)
	return grid.BulkLoad(fps, eps)
}

// frontierEdges emits the within-ε pairs crossing tile boundaries for
// the frontier positions in [lo, hi): every such pair has both
// endpoints in the frontier (the partition invariant), each point
// probes the shared frontier grid for its band neighbors, and a pair
// is kept once — by its higher-id endpoint — when the endpoints land
// in different tiles and pass the exact distance test.
func frontierEdges(ps *geom.PointSet, opt Options, plan *partition.Plan, ftab *grid.Table, lo, hi int, stats *Stats) []unionfind.Edge {
	if lo >= hi {
		return nil
	}
	metric, eps := opt.Metric, opt.Eps
	var edges []unionfind.Edge
	var cur grid.Cursor
	var buf []int32
	for fi := lo; fi < hi; fi++ {
		gi := plan.Frontier[fi]
		p := ps.At(int(gi))
		stats.addProbe(1)
		buf = ftab.CollectBox(&cur, p, eps, buf[:0])
		for _, fj := range buf {
			gj := plan.Frontier[fj]
			if gj >= gi || plan.TileOf[gj] == plan.TileOf[gi] {
				continue
			}
			stats.addDist(1)
			if metric.Within(p, ps.At(int(gj)), eps) {
				edges = append(edges, unionfind.Edge{A: gi, B: gj})
			}
		}
	}
	return edges
}

// chunkRange splits n items into k near-equal contiguous chunks and
// returns the half-open bounds of chunk i.
func chunkRange(n, k, i int) (int, int) {
	return i * n / k, (i + 1) * n / k
}
