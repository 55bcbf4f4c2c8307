package core

import (
	"sync"

	"github.com/sgb-db/sgb/internal/geom"
)

// This file is the parallel arm of SGB-Any (SGB-All has none: it is
// order-sensitive and runs one sequential loop). A one-shot evaluation
// at k ≥ 2 ε levels splits its ascending levels into w = min(workers, k)
// contiguous ranges, range r being levels [r·k/w, (r+1)·k/w), and
// evaluates each range on a goroutine of its own (anyRange): a private
// forest per level, the range's lowest level starting from singletons,
// the probe radius its top ε. Every level of a range is the ε-graph's
// components whichever level it starts from, so the split is exact; a
// range's first level redoes work the level below it in another range
// did, which is what the split costs. A single ε evaluates sequentially.

// sgbAnyByLevel evaluates the ascending levels eps over ps with w ≥ 2
// workers into out (out[l] is level l's grouping). Each worker counts into
// a Stats of its own, merged into opt.Stats once all are done. A
// worker's panic is recovered into its slot and the first one is raised
// again here once every worker is done, where the caller can recover it.
func sgbAnyByLevel(ps *geom.PointSet, opt Options, eps []float64, out []*Result, w int) {
	k := len(eps)
	stats := make([]Stats, w)
	panics := make([]any, w)
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() { panics[r] = recover() }()
			lo, hi := r*k/w, (r+1)*k/w
			local := opt
			local.Stats = &stats[r]
			anyRange(ps, local, eps[lo:hi], out[lo:hi])
		}(r)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for r := range stats {
		opt.Stats.Merge(&stats[r])
	}
}

// anyRange evaluates the ascending levels eps over ps into out, its
// lowest level from singletons: one forest per level (sgbAnyLocal, with
// the top level's ε as the probe radius), then each level's grouping.
func anyRange(ps *geom.PointSet, opt Options, eps []float64, out []*Result) {
	f := newAnyForests(levelKeys(opt.Metric, eps), ps.Len())
	opt.Eps = eps[len(eps)-1]
	sgbAnyLocal(ps, opt, f)
	for l, uf := range f.ufs {
		out[l] = groupsFromUF(uf, nil)
	}
}

// sgbAnyLocal runs one SGB-Any evaluation over ps into f, at every level
// of f and with opt.Eps, f's top level's ε, as the probe radius. The
// grid links ε-cells level by level (cellGraph); All-Pairs and the
// R-tree absorb each point at every level of f at once (anyJoin.step,
// the step the maintained evaluator runs on its grid).
func sgbAnyLocal(ps *geom.PointSet, opt Options, f *anyForests) {
	if opt.Algorithm == GridIndex {
		runCellGraph(ps, opt.Metric, nil, f, opt.Stats)
		return
	}
	ix := newAnyIndex(ps.Dims(), opt)
	var j anyJoin
	for i := 0; i < ps.Len(); i++ {
		j.step(ix, ps, i, opt, f)
	}
}
