package lattice

import (
	"sync"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/partition"
)

// This file is the tiled arm of Append: an empty sweep's first batch
// builds its forest on several goroutines, the same partition → tile →
// frontier shape SGB-Any's pipeline has (internal/core/parallel.go):
//
//	tiles    — partition.Split cuts the batch into ε_max-tiles; each
//	           tile runs the sequential Append on a private sweep and
//	           compacts to its sorted forest, mapped back to batch ids
//	           through Tile.Global
//	frontier — Plan.FrontierPairs emits the keyed cross-tile pairs
//	           ≤ ε_max, against one bulk-loaded frontier grid
//	merge    — the sorted tile forests merge (not re-sort) into the
//	           retained prefix, the frontier pairs become the unsorted
//	           tail, and the one compact produces the forest
//
// Exactness is the compaction argument once more: every edge ≤ ε_max is
// intra-tile or a frontier pair (the partition invariant), a tile forest
// is the MSF of its tile's edges, and MSF(S ∪ T) ⊆ MSF(MSF(S) ∪ T)
// under the one (Key, A, B) order, so the final Kruskal pass keeps
// exactly the forest a sequential build keeps. Tile.Global is ascending,
// so mapping ids back preserves each tile forest's order.
//
// What the tiled build does not produce is the probe grid (ensureGrid
// bulk-loads it when a later Append or Remove needs it) and the
// early-discard filter, rebuilt from the forest as Remove rebuilds it.

// appendTiled absorbs the first batch of an empty sweep through plan.
func (s *Sweep) appendTiled(batch *geom.PointSet, plan *partition.Plan, workers int, st *Stats) {
	s.ps.AppendSet(batch)
	s.dend, s.tab = nil, nil

	forests := make([][]Edge, len(plan.Tiles))
	tileStats := make([]Stats, len(plan.Tiles))
	var front [][]partition.Pair
	var frontDists int64
	var wg sync.WaitGroup
	for ti := range plan.Tiles {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			forests[ti] = s.tileForest(&plan.Tiles[ti], &tileStats[ti])
		}(ti)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		front, frontDists = plan.FrontierPairs(batch, s.metric, s.epsMax, workers)
	}()
	wg.Wait()

	n, nf := 0, 0
	for _, f := range forests {
		n += len(f)
	}
	for _, pairs := range front {
		nf += len(pairs)
	}
	prefix, spare := make([]Edge, 0, n+nf), make([]Edge, 0, n+nf)
	for _, f := range forests {
		prefix, spare = mergeEdges(spare[:0], prefix, f), prefix
	}
	for _, pairs := range front {
		for _, p := range pairs {
			prefix = append(prefix, Edge(p))
		}
	}
	s.edges, s.sorted, s.merged = prefix, n, spare[:0]

	for i := range tileStats {
		t := &tileStats[i]
		st.add(t.DistanceComputations, t.IndexProbes, t.IndexUpdates)
		if st != nil {
			st.Compactions += t.Compactions
		}
	}
	st.add(frontDists, int64(len(plan.Frontier)), 0)
	s.compact(st)
	s.rebuildFilter()
}

// tileForest builds one tile's minimum spanning forest with the
// sequential Append on a private sweep and returns it sorted, in batch
// ids.
func (s *Sweep) tileForest(t *partition.Tile, st *Stats) []Edge {
	ts := newSweep(s.dims, s.metric, s.epsMax)
	ts.CompactEvery = s.CompactEvery
	ts.appendSeq(t.Points, st)
	ts.compact(st)
	for i := range ts.edges {
		e := &ts.edges[i]
		e.A, e.B = t.Global[e.A], t.Global[e.B]
	}
	return ts.edges
}
