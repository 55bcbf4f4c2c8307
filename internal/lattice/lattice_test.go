package lattice

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/unionfind"
)

func randomSet(rng *rand.Rand, n, dims int, span float64) *geom.PointSet {
	ps := geom.NewPointSetCap(dims, n)
	for i := 0; i < n; i++ {
		p := ps.Extend()
		for d := range p {
			p[d] = rng.Float64() * span
		}
	}
	return ps
}

// bruteGroups is the O(n²) reference: ε-connected components via
// Union-Find over exact Within tests, canonical order.
func bruteGroups(ps *geom.PointSet, m geom.Metric, eps float64) [][]int {
	n := ps.Len()
	uf := unionfind.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ps.Within(m, i, j, eps) {
				uf.Union(i, j)
			}
		}
	}
	slot := make(map[int]int)
	groups := make([][]int, 0)
	for i := 0; i < n; i++ {
		r := uf.Find(i)
		s, ok := slot[r]
		if !ok {
			s = len(groups)
			slot[r] = s
			groups = append(groups, nil)
		}
		groups[s] = append(groups[s], i)
	}
	return groups
}

func buildSweep(t testing.TB, ps *geom.PointSet, m geom.Metric, epsMax float64, compactEvery int) *Sweep {
	s, err := NewSweep(ps.Dims(), m, epsMax)
	if err != nil {
		t.Fatalf("NewSweep: %v", err)
	}
	s.CompactEvery = compactEvery
	if err := s.Append(ps, 1, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	return s
}

func TestSweepMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		for _, dims := range []int{1, 2, 3, 5} {
			n := 60 + rng.Intn(60)
			ps := randomSet(rng, n, dims, 10)
			epsMax := 2.0
			d := buildSweep(t, ps, m, epsMax, 0).Dendrogram()
			for _, eps := range []float64{0.05, 0.3, 0.7, 1.1, 1.6, epsMax} {
				got, err := d.GroupsAt(eps)
				if err != nil {
					t.Fatalf("%v d=%d GroupsAt(%v): %v", m, dims, eps, err)
				}
				want := bruteGroups(ps, m, eps)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v d=%d eps=%v: lattice groups diverge from brute force\ngot  %v\nwant %v", m, dims, eps, got, want)
				}
			}
		}
	}
}

func TestMergeHeightsNondecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := randomSet(rng, 200, 3, 8)
	d := buildSweep(t, ps, geom.L2, 3.0, 0).Dendrogram()
	merges := d.Merges()
	if len(merges) == 0 {
		t.Fatal("expected merges on a dense random set")
	}
	for i := 1; i < len(merges); i++ {
		if merges[i].Key < merges[i-1].Key {
			t.Fatalf("merge %d height %v < previous %v", i, merges[i].Key, merges[i-1].Key)
		}
	}
	for _, mg := range merges {
		if mg.Key > geom.L2.EpsKey(3.0) {
			t.Fatalf("merge height %v exceeds ε_max key", mg.Key)
		}
	}
}

// TestRefinement: groups at ε₁ < ε₂ refine — every ε₁-group sits
// inside exactly one ε₂-group.
func TestRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ps := randomSet(rng, 150, 2, 6)
	d := buildSweep(t, ps, geom.L2, 2.5, 0).Dendrogram()
	levels := []float64{0.1, 0.4, 0.9, 1.5, 2.5}
	prevOwner := map[int]int(nil)
	for _, eps := range levels {
		groups, err := d.GroupsAt(eps)
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[int]int, ps.Len())
		for gi, g := range groups {
			for _, p := range g {
				owner[p] = gi
			}
		}
		if prevOwner != nil {
			// Two points together at the smaller ε stay together here.
			byPrev := make(map[int]int)
			for p, pg := range prevOwner {
				if cg, ok := byPrev[pg]; ok {
					if owner[p] != cg {
						t.Fatalf("eps=%v: group %d from previous level split across coarser groups %d and %d", eps, pg, cg, owner[p])
					}
				} else {
					byPrev[pg] = owner[p]
				}
			}
		}
		prevOwner = owner
	}
}

// TestDescendingThenAscendingQueries exercises the replay-scratch
// reset path (query order must not affect answers).
func TestDescendingThenAscendingQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ps := randomSet(rng, 120, 2, 6)
	d := buildSweep(t, ps, geom.L2, 2.0, 0).Dendrogram()
	levels := []float64{1.8, 0.3, 1.2, 0.3, 2.0, 0.05}
	for _, eps := range levels {
		got, err := d.GroupsAt(eps)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteGroups(ps, geom.L2, eps); !reflect.DeepEqual(got, want) {
			t.Fatalf("eps=%v after mixed-order queries: groups diverge", eps)
		}
	}
}

// TestCompactionExactness: aggressive compaction (tiny buffer) must
// not change any answer — the MSF filter is exact, not lossy.
func TestCompactionExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ps := randomSet(rng, 180, 3, 5)
	loose := buildSweep(t, ps, geom.L2, 2.0, 0).Dendrogram()
	tight := buildSweep(t, ps, geom.L2, 2.0, 8).Dendrogram()
	if !reflect.DeepEqual(loose.Merges(), tight.Merges()) {
		t.Fatal("merge lists diverge under aggressive compaction")
	}
}

// TestBatchedAppendEquivalence: appending in many batches equals one
// batch (ids follow arrival order either way).
func TestBatchedAppendEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ps := randomSet(rng, 160, 2, 6)
	whole := buildSweep(t, ps, geom.LInf, 1.5, 0).Dendrogram()

	s, err := NewSweep(2, geom.LInf, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < ps.Len(); lo += 37 {
		hi := lo + 37
		if hi > ps.Len() {
			hi = ps.Len()
		}
		if err := s.Append(ps.Slice(lo, hi), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(whole.Merges(), s.Dendrogram().Merges()) {
		t.Fatal("batched appends diverge from single append")
	}
}

func TestSummaryAt(t *testing.T) {
	ps := geom.NewPointSet(1)
	for _, x := range []float64{0, 0.5, 1.0, 5, 5.2, 9} {
		ps.AppendPoint(geom.Point{x})
	}
	d := buildSweep(t, ps, geom.L2, 1.0, 0).Dendrogram()
	sum, err := d.SummaryAt(0.6)
	if err != nil {
		t.Fatal(err)
	}
	// Groups: {0, 0.5, 1.0}, {5, 5.2}, {9}.
	if sum.Groups != 3 || sum.Largest != 3 {
		t.Fatalf("got %+v, want 3 groups largest 3", sum)
	}
	if want := 5.0 / 6.0; math.Abs(sum.GroupedFraction-want) > 1e-15 {
		t.Fatalf("grouped fraction %v, want %v", sum.GroupedFraction, want)
	}
}

func TestQueryValidation(t *testing.T) {
	ps := randomSet(rand.New(rand.NewSource(47)), 10, 2, 1)
	d := buildSweep(t, ps, geom.L2, 1.0, 0).Dendrogram()
	if _, err := d.GroupsAt(1.5); err != ErrEpsAboveMax {
		t.Fatalf("eps above max: got %v", err)
	}
	if _, err := d.GroupsAt(0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := d.GroupsAt(math.NaN()); err == nil {
		t.Fatal("NaN eps accepted")
	}
	if _, err := NewSweep(0, geom.L2, 1); err == nil {
		t.Fatal("dims=0 accepted")
	}
	if _, err := NewSweep(2, geom.L2, 0); err == nil {
		t.Fatal("ε_max=0 accepted")
	}
	if _, err := NewSweep(2, geom.L2, math.Inf(1)); err == nil {
		t.Fatal("ε_max=+Inf accepted")
	}
}

func TestAppendAfterDendrogram(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a, b := randomSet(rng, 80, 2, 5), randomSet(rng, 80, 2, 5)
	s := buildSweep(t, a, geom.L2, 1.5, 0)
	before := s.Dendrogram()
	beforeMerges := len(before.Merges())
	if err := s.Append(b, 1, nil); err != nil {
		t.Fatal(err)
	}
	// The old dendrogram stays intact and answerable.
	if len(before.Merges()) != beforeMerges {
		t.Fatal("earlier dendrogram mutated by Append")
	}
	if _, err := before.GroupsAt(1.0); err != nil {
		t.Fatal(err)
	}
	// The new one covers both batches and matches brute force.
	all := geom.NewPointSet(2)
	all.AppendSet(a)
	all.AppendSet(b)
	got, err := s.Dendrogram().GroupsAt(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteGroups(all, geom.L2, 1.0); !reflect.DeepEqual(got, want) {
		t.Fatal("post-append dendrogram diverges from brute force")
	}
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	ps := randomSet(rng, 100, 2, 3)
	s, err := NewSweep(2, geom.L2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := s.Append(ps, 1, &st); err != nil {
		t.Fatal(err)
	}
	if st.IndexProbes != 100 || st.IndexUpdates != 100 {
		t.Fatalf("probes/updates %d/%d, want 100/100", st.IndexProbes, st.IndexUpdates)
	}
	if st.DistanceComputations == 0 {
		t.Fatal("no distance computations recorded on a dense set")
	}
}

// FuzzDendrogram decodes arbitrary bytes into a small point set and
// checks the structural invariants: heights nondecreasing and capped
// at the ε_max key, every level matching the brute-force components,
// and refinement across an ascending level pair. A nonzero drop mask
// adds the removal leg: the first half of the points is appended, the
// ones whose bit is set are removed, the rest is appended, and the same
// invariants must hold over the survivors. Every input is built twice,
// on one worker and on two, and the merge lists must be equal.
func FuzzDendrogram(f *testing.F) {
	seed := func(vals ...uint16) []byte {
		b := make([]byte, 2*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint16(b[2*i:], v)
		}
		return b
	}
	f.Add(seed(0, 1, 2, 3, 4, 5, 6, 7), uint8(2), false, uint64(0))
	f.Add(seed(100, 100, 100, 101, 9000, 9001), uint8(1), false, uint64(0))
	f.Add(seed(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), uint8(5), true, uint64(0))
	f.Add(seed(65535, 0, 32768, 16384, 8192, 4096, 2048, 1024), uint8(3), true, uint64(0))
	// Removal leg: a chain whose middle goes (the ends must re-meet or
	// split), duplicates losing one copy, every early point dropped, and
	// a 2-d scatter dropping alternate points.
	f.Add(seed(0, 3000, 6000, 9000, 12000, 15000, 18000, 21000), uint8(0), false, uint64(0b0110))
	f.Add(seed(500, 500, 500, 500, 500, 500, 4000, 4000, 4000, 4000), uint8(0), true, uint64(0b10101))
	f.Add(seed(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), uint8(1), false, ^uint64(0))
	f.Add(seed(100, 200, 4100, 300, 8100, 250, 12100, 350, 16100, 150, 20100, 50, 2000, 260, 6000, 240), uint8(1), true, uint64(0b0101))
	// Two-worker arm: a 1-d chain across every ε_max-cell (each link a
	// cross-tile candidate), and a 2-d scatter whose first half is
	// dropped whole, so the rest is a second tiled first batch.
	f.Add(seed(0, 4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000, 36000, 40000, 44000, 48000, 52000, 56000, 60000), uint8(0), true, uint64(0))
	f.Add(seed(0, 0, 30000, 500, 60000, 9000, 12000, 45000, 100, 64000, 33000, 33000, 20000, 1000, 50000, 8000), uint8(1), false, uint64(0b1111))
	f.Fuzz(func(t *testing.T, raw []byte, dimByte uint8, linf bool, drop uint64) {
		dims := 1 + int(dimByte)%5
		coords := len(raw) / 2
		n := coords / dims
		if n == 0 {
			return
		}
		if n > 64 {
			n = 64
		}
		m := geom.L2
		if linf {
			m = geom.LInf
		}
		ps := geom.NewPointSetCap(dims, n)
		for i := 0; i < n; i++ {
			p := ps.Extend()
			for d := range p {
				v := binary.LittleEndian.Uint16(raw[2*(i*dims+d):])
				p[d] = float64(v) / 4096 // span [0, 16)
			}
		}
		const epsMax = 3.0
		first := n / 2
		dropLeg := drop != 0 && first > 0
		var ids []int
		for i := 0; dropLeg && i < first; i++ {
			if drop>>i&1 == 1 {
				ids = append(ids, i)
			}
		}
		build := func(workers int) *Sweep {
			s, err := NewSweep(dims, m, epsMax)
			if err != nil {
				t.Fatal(err)
			}
			s.CompactEvery = 16 // force frequent MSF filtering
			if !dropLeg {
				if err := s.Append(ps, workers, nil); err != nil {
					t.Fatal(err)
				}
				return s
			}
			if err := s.Append(ps.Slice(0, first), workers, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Remove(ids, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(ps.Slice(first, n), workers, nil); err != nil {
				t.Fatal(err)
			}
			return s
		}
		// The two-worker arm: a tiled first batch (and, when the removal
		// empties the sweep, a tiled second one) must leave the
		// one-worker merge list.
		s := build(1)
		if tiled := build(2); !reflect.DeepEqual(tiled.Dendrogram().Merges(), s.Dendrogram().Merges()) {
			t.Fatalf("two-worker build diverges\ngot  %v\nwant %v", tiled.Dendrogram().Merges(), s.Dendrogram().Merges())
		}
		if dropLeg {
			survivors := geom.NewPointSetCap(dims, n)
			survivors.AppendSet(ps.Slice(0, first))
			survivors.RemoveSorted(ids)
			survivors.AppendSet(ps.Slice(first, n))
			ps, n = survivors, survivors.Len()
		}
		if s.Len() != n {
			t.Fatalf("sweep holds %d points, want %d", s.Len(), n)
		}
		d := s.Dendrogram()
		merges := d.Merges()
		maxKey := m.EpsKey(epsMax)
		for i, mg := range merges {
			if i > 0 && mg.Key < merges[i-1].Key {
				t.Fatalf("heights decrease at %d", i)
			}
			if mg.Key > maxKey {
				t.Fatalf("height %v above ε_max key %v", mg.Key, maxKey)
			}
		}
		eps1, eps2 := 0.7, 2.1
		g1, err := d.GroupsAt(eps1)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := d.GroupsAt(eps2)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{eps1, eps2, epsMax} {
			got, err := d.GroupsAt(eps)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteGroups(ps, m, eps); !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: diverges from brute force", eps)
			}
		}
		owner2 := make([]int, n)
		for gi, g := range g2 {
			for _, p := range g {
				owner2[p] = gi
			}
		}
		for _, g := range g1 {
			for _, p := range g[1:] {
				if owner2[p] != owner2[g[0]] {
					t.Fatalf("refinement violated: fine group %v split at coarser ε", g)
				}
			}
		}
	})
}
