package core

import (
	"sort"
	"sync"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
	"github.com/sgb-db/sgb/internal/partition"
)

// This file is the parallel arm of the SGB-Any pipeline (SGB-All has
// none: it is order-sensitive and runs one sequential loop):
//
//	partition — sort the input along the Z-curve of its ε-cells and cut
//	            the order into runs (internal/partition)
//	evaluate  — per-tile SGB-Any runs on worker goroutines, each into
//	            private Union-Finds (one per ε level) over its run, a
//	            slice of the sorted input
//	frontier  — probes over the frontier band keeping each probe's
//	            candidates in earlier runs within ε as one keyed run,
//	            chunked across workers against one bulk-loaded read-only
//	            ε-grid (anyFrontier)
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
// count into f, over eval, the input gathered in plan's order.
func sgbAnyParallel(eval *geom.PointSet, plan *partition.Plan, opt Options, f *anyForests, workers int) {
	tiles := make([]*anyForests, len(plan.Ends))
	stats := make([]Stats, len(plan.Ends))
	var front []frontierRuns

	// Evaluate and frontier stages share the worker pool: both are
	// read-only over the input and write only worker-private state. A
	// worker's panic is recovered into its slot (the frontier probe's is
	// the last) and the first one is raised again here once every worker
	// is done, where the caller can recover it.
	var wg sync.WaitGroup
	panics := make([]any, len(plan.Ends)+1)
	for t := range plan.Ends {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer func() { panics[t] = recover() }()
			tile := eval.Slice(runStart(plan, t), int(plan.Ends[t]))
			local := opt
			local.Stats = &stats[t]
			tiles[t] = newAnyForests(f.keys, tile.Len())
			sgbAnyLocal(tile, local, tiles[t])
		}(t)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { panics[len(plan.Ends)] = recover() }()
		front = anyFrontier(eval, plan, opt, f.keys[len(f.keys)-1], workers)
	}()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for t := range stats {
		opt.Stats.Merge(&stats[t])
	}
	anyMerge(f, plan, tiles, front, opt)
}

// runStart returns the first position of plan's run t.
func runStart(plan *partition.Plan, t int) int {
	if t == 0 {
		return 0
	}
	return int(plan.Ends[t-1])
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

// anyFrontier finds every within-top pair of eval whose endpoints lie in
// different runs of plan; eval must be the input gathered in plan's
// order, plan its cut at opt.Eps, and top the top level's threshold in
// DistKey space. Both endpoints of such a pair are in plan.Frontier, so
// only the frontier points are bulk-loaded into an ε-grid, which is
// read-only afterwards: workers goroutines probe it over near-equal
// contiguous chunks of the frontier, each with a private Cursor, and a
// pair is kept once — by the endpoint in the later run, which keeps the
// candidates before its run's start. A probe's candidates past that
// filter are keyed in one kernel call. A worker's panic is recovered,
// and the first one is raised again on the calling goroutine once every
// worker is done.
func anyFrontier(eval *geom.PointSet, plan *partition.Plan, opt Options, top float64, workers int) []frontierRuns {
	ftab := grid.BulkLoad(eval.Gather(plan.Frontier), opt.Eps)
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
			t := 0 // the run of gi
			for _, gi := range plan.Frontier[lo:hi] {
				for plan.Ends[t] <= gi {
					t++
				}
				start := int32(runStart(plan, t))
				if start == 0 {
					continue // nothing lies before the first run
				}
				p := eval.At(int(gi))
				buf = ftab.CollectBox(&cur, p, opt.Eps, buf[:0])
				n := 0
				for _, fj := range buf {
					if gj := plan.Frontier[fj]; gj < start {
						buf[n] = gj
						n++
					}
				}
				r.dists += int64(n)
				keys = eval.AppendDistKeys(keys[:0], opt.Metric, p, buf[:n])
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
	for t, tf := range tiles {
		for l, uf := range f.ufs {
			uf.Absorb(tf.ufs[l], runStart(plan, t))
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
	// The frontier of the first run keeps nothing and does not probe.
	firstRun := sort.Search(len(plan.Frontier), func(i int) bool { return plan.Frontier[i] >= plan.Ends[0] })
	opt.Stats.addProbe(int64(len(plan.Frontier) - firstRun))
}

// sgbAnyLocal runs one SGB-Any evaluation over a (sub-)PointSet into f
// — the tile-local evaluate stage, shared with the sequential path in
// sgbAnyLevels. The grid links ε-cells level by level (cellGraph);
// All-Pairs and the R-tree absorb each point at every level of f at
// once (anyJoin.step, the step the maintained evaluator runs on its
// grid).
func sgbAnyLocal(ps *geom.PointSet, opt Options, f *anyForests) {
	if opt.Algorithm == GridIndex {
		g := newCellGraph(ps, opt.Metric)
		for l := range f.ufs {
			g.level(f, l)
		}
		opt.Stats.Merge(&g.stats)
		return
	}
	ix := newAnyIndex(ps.Dims(), opt)
	var j anyJoin
	for i := 0; i < ps.Len(); i++ {
		j.step(ix, ps, i, opt, f)
	}
}
