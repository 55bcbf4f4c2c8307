package partition

import (
	"sync"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/grid"
)

// Pair is one cross-tile pair within ε: input ids A < B at
// comparison-key distance Key (geom.Metric.DistKey space, where
// Key ≤ Metric.EpsKey(ε) decides exactly what Metric.Within at ε does).
type Pair struct {
	A, B int32
	Key  float64
}

// FrontierPairs returns every within-eps pair of ps whose endpoints lie
// in different tiles; ps and eps must be the ones Split cut. Both
// endpoints of such a pair are in Frontier, so only the frontier points
// are bulk-loaded into an ε-grid, which is read-only afterwards: workers
// goroutines probe it over near-equal contiguous chunks of Frontier,
// each with a private Cursor, and a pair is kept once — by its higher-id
// endpoint — when its exact key passes. The pairs come back one slice
// per worker, in no global order. Every frontier point is probed once;
// dists counts the key evaluations. A worker's panic is recovered, and
// the first one is raised again on the calling goroutine once every
// worker is done.
func (p *Plan) FrontierPairs(ps *geom.PointSet, metric geom.Metric, eps float64, workers int) (pairs [][]Pair, dists int64) {
	ftab := grid.BulkLoad(ps.Gather(p.Frontier), eps)
	epsKey := metric.EpsKey(eps)
	pairs = make([][]Pair, workers)
	counts := make([]int64, workers)
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			var cur grid.Cursor
			var buf []int32
			var out []Pair
			var n int64
			lo, hi := w*len(p.Frontier)/workers, (w+1)*len(p.Frontier)/workers
			for _, gi := range p.Frontier[lo:hi] {
				buf = ftab.CollectBox(&cur, ps.At(int(gi)), eps, buf[:0])
				for _, fj := range buf {
					gj := p.Frontier[fj]
					if gj >= gi || p.TileOf[gj] == p.TileOf[gi] {
						continue
					}
					n++
					if key := ps.DistKey(metric, int(gi), int(gj)); key <= epsKey {
						out = append(out, Pair{A: gj, B: gi, Key: key})
					}
				}
			}
			pairs[w], counts[w] = out, n
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, n := range counts {
		dists += n
	}
	return pairs, dists
}
