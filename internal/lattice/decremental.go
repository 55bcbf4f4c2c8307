package lattice

import (
	"fmt"

	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file is the decremental arm of the sweep: Remove deletes points
// and repairs the minimum spanning forest instead of rebuilding it.
//
// After a compaction the edge buffer IS the forest F of every point
// seen, under the strict (Key, A, B) order. Three facts make deletion
// local:
//
//   - Cut property. F′ — F without the edges at a removed endpoint — is
//     a subset of the survivors' forest: an edge that was the smallest
//     across some cut still is when points (and their edges) vanish.
//   - Cycle property. A surviving pair that is not in F lost to the
//     F-path between its endpoints. If both endpoints lie in one PIECE
//     (a connected component of F′) that path survived whole, so the
//     pair still loses. Every forest edge F′ is missing therefore joins
//     two different pieces — and two pieces of the SAME old tree, since
//     points of different trees were never within ε_max of each other.
//   - Monotone renumbering. Survivors close ranks in arrival order, which
//     preserves the (Key, A, B) order of every surviving pair, so the
//     forest of the renumbered edges is, edge for edge, the one a fresh
//     sweep over the survivors builds.
//
// So it suffices to re-probe the members of every piece except the
// largest of its old tree, keep the pairs that cross pieces (each once)
// as an unsorted tail, and leave the Kruskal pass to the one compact
// there is. A removal that splits nothing probes nothing.
//
// The pitfall is the early-discard filter. It dropped long edges
// because a short path connected their endpoints; when that path ran
// through a removed point the dropped edge may now be a forest edge,
// and the filter's verdicts are stale from the moment a point dies.
// Remove rebuilds it from F′ before probing — the grid probe finds the
// dropped pairs again, whatever discarded them — and the re-probe then
// filters through the fresh forest exactly as Append does.

// removal is Remove's scratch, retained across calls. All arrays are
// indexed in the id space before the removal.
type removal struct {
	rank  []int32      // id after the removal, -1 for a removed point
	uf    unionfind.UF // pieces of F′, then (cut edges restored) old trees
	cut   []Edge       // forest edges at a removed endpoint
	piece []int32      // survivor → root of its piece
	size  []int32      // piece root → survivors in the piece
	best  []int32      // tree root → its largest piece, -1 until seen
	probe []bool       // piece root → members are re-probed
}

func (r *removal) reset(n int) {
	if cap(r.rank) < n {
		c := n + n/4
		r.rank, r.piece = make([]int32, c), make([]int32, c)
		r.size, r.best = make([]int32, c), make([]int32, c)
		r.probe = make([]bool, c)
	}
	r.rank, r.piece = r.rank[:n], r.piece[:n]
	r.size, r.best, r.probe = r.size[:n], r.best[:n], r.probe[:n]
	clear(r.size)
	clear(r.probe)
	for i := range r.best {
		r.best[i] = -1
	}
	r.uf.Reinit(n)
	r.cut = r.cut[:0]
}

// Remove deletes the points with the given strictly ascending ids and
// repairs the forest; the survivors renumber compactly in arrival
// order, so afterwards the sweep is indistinguishable — merge list
// included — from a fresh one fed the survivors. Invalid ids are
// rejected before anything is touched. Work counters accumulate into st
// when non-nil: IndexProbes counts re-probed points, IndexUpdates the
// grid unregistrations. Cost follows the pieces the removal splits off
// (plus linear passes over the id arrays), not the retained set.
func (s *Sweep) Remove(ids []int, st *Stats) error {
	if len(ids) == 0 {
		return nil
	}
	n := s.ps.Len()
	for k, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("lattice: Remove id %d out of range [0, %d)", id, n)
		}
		if k > 0 && id <= ids[k-1] {
			return fmt.Errorf("lattice: Remove ids must be strictly ascending (%d after %d)", id, ids[k-1])
		}
	}
	if s.sorted < len(s.edges) {
		s.compact(st) // the buffer must be the forest, not forest + tail
	}
	s.ensureGrid()
	s.dend = nil

	r := &s.rm
	r.reset(n)
	rank := r.rank
	for i, k := 0, 0; i < n; i++ {
		if k < len(ids) && ids[k] == i {
			rank[i] = -1
			k++
		} else {
			rank[i] = int32(i - k)
		}
	}

	// Pieces: union F′ and park the cut edges. Then every survivor's
	// piece root and every piece's size are read off before the cut
	// edges go back in to recover the old trees.
	w := 0
	for _, e := range s.edges {
		if rank[e.A] < 0 || rank[e.B] < 0 {
			r.cut = append(r.cut, e)
			continue
		}
		r.uf.Union(int(e.A), int(e.B))
		s.edges[w] = e
		w++
	}
	s.edges, s.sorted = s.edges[:w], w
	for i := 0; i < n; i++ {
		if rank[i] >= 0 {
			p := int32(r.uf.Find(i))
			r.piece[i] = p
			r.size[p]++
		}
	}
	for _, e := range r.cut {
		r.uf.Union(int(e.A), int(e.B))
	}
	// A piece of a tree that lost a vertex hangs off a removed point by
	// a cut edge (the tree was connected), so the cut edges' surviving
	// endpoints name every affected piece. All of them are re-probed
	// except the largest of each tree.
	for _, e := range r.cut {
		for _, x := range [2]int32{e.A, e.B} {
			if rank[x] < 0 {
				continue
			}
			p, t := r.piece[x], r.uf.Find(int(x))
			r.probe[p] = true
			if b := r.best[t]; b < 0 || r.size[p] > r.size[b] {
				r.best[t] = p
			}
		}
	}
	for _, e := range r.cut {
		if b := r.best[r.uf.Find(int(e.A))]; b >= 0 {
			r.probe[b] = false
		}
	}

	// Renumber: the removed points leave the grid and the point log, and
	// ids, registrations, edges and piece labels follow the rank. From
	// here on the sweep is a consistent one over the survivors that has
	// not yet seen the pairs between pieces.
	for _, id := range ids {
		s.tab.RemovePoint(s.ps.At(id), int32(id))
	}
	s.tab.Renumber(rank)
	s.ps.RemoveSorted(ids)
	for i := range s.edges {
		e := &s.edges[i]
		e.A, e.B = rank[e.A], rank[e.B]
	}
	for i, nr := range rank {
		if nr >= 0 {
			r.piece[nr] = r.piece[i]
		}
	}
	live := s.ps.Len()
	s.rebuildFilter()

	// Re-probe, Append's inner loop restricted to pairs that cross
	// pieces. A pair between two re-probed pieces surfaces from both
	// ends; the larger id records it.
	var dist, probes int64
	threshold := s.compactThreshold()
	for u := 0; u < live; u++ {
		pu := r.piece[u]
		if !r.probe[pu] {
			continue
		}
		probes++
		s.buf = s.tab.CollectBox(&s.cur, s.ps.At(u), s.epsMax, s.buf[:0])
		for _, v32 := range s.buf {
			v := int(v32)
			pv := r.piece[v]
			if pv == pu || (r.probe[pv] && v > u) {
				continue
			}
			dist++
			key := s.ps.DistKey(s.metric, u, v)
			if key > s.epsMaxKey {
				continue
			}
			if key > s.filterKey {
				if s.filter.Same(u, v) {
					continue
				}
			} else {
				s.filter.Union(u, v)
			}
			a, b := int32(u), v32
			if b < a {
				a, b = b, a
			}
			s.edges = append(s.edges, Edge{A: a, B: b, Key: key})
		}
		if len(s.edges) >= threshold {
			s.compact(st)
			threshold = s.compactThreshold()
		}
	}
	st.add(dist, probes, int64(len(ids)))
	return nil
}
