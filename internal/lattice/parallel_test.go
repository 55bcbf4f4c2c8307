package lattice

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/partition"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// snapSet draws n points whose every coordinate sits on a lattice of
// the given step: equal keys everywhere, and cells borders hit exactly.
func snapSet(rng *rand.Rand, n, dims int, span, step float64) *geom.PointSet {
	ps := geom.NewPointSetCap(dims, n)
	for i := 0; i < n; i++ {
		p := ps.Extend()
		for d := range p {
			p[d] = math.Floor(rng.Float64()*span/step) * step
		}
	}
	return ps
}

// components labels every element of uf by the smallest member of its
// set, so two forests over the same elements compare as partitions.
func components(uf *unionfind.UF) []int {
	first := make(map[int]int)
	label := make([]int, uf.Len())
	for i := range label {
		r := uf.Find(i)
		if _, ok := first[r]; !ok {
			first[r] = i
		}
		label[i] = first[r]
	}
	return label
}

// TestTiledAppendEquivalence is the parallel ≡ sequential matrix: a
// first batch built on 2, 3 or 8 goroutines must leave the merge list
// of the one-goroutine build element for element, and every level's
// groups, across metric × d ∈ {1, 2, 3} × uniform, tie-heavy (snapped,
// duplicated) and lattice inputs × compaction cadence — and a
// single-cell input, which Split cannot cut, must fall back to the
// sequential build.
func TestTiledAppendEquivalence(t *testing.T) {
	const epsMax = 1.25
	spans := map[int]float64{1: 40, 2: 8, 3: 5}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		for _, dims := range []int{1, 2, 3} {
			rng := rand.New(rand.NewSource(int64(10*dims) + int64(m)))
			span := spans[dims]
			inputs := []struct {
				name string
				ps   *geom.PointSet
				cuts bool
			}{
				{"uniform", randomSet(rng, 300, dims, span), true},
				{"ties", tracePoints(rng, 300, dims, span), true},
				{"lattice", snapSet(rng, 300, dims, span, epsMax/2), true},
				{"onecell", randomSet(rng, 60, dims, 0.9*epsMax), false},
			}
			for _, in := range inputs {
				for _, every := range []int{0, 16} {
					name := fmt.Sprintf("%v/d=%d/%s/every=%d", m, dims, in.name, every)
					t.Run(name, func(t *testing.T) {
						seq := buildTiled(t, in.ps, m, epsMax, every, 1)
						want := seq.Dendrogram()
						for _, w := range []int{2, 3, 8} {
							if got := partition.Split(in.ps, epsMax, w) != nil; got != in.cuts {
								t.Fatalf("w=%d: Split cuts the input: %t, want %t", w, got, in.cuts)
							}
							var st Stats
							s, err := NewSweep(dims, m, epsMax)
							if err != nil {
								t.Fatal(err)
							}
							s.CompactEvery = every
							if err := s.Append(in.ps, w, &st); err != nil {
								t.Fatal(err)
							}
							if built := s.tab != nil; built == in.cuts {
								t.Fatalf("w=%d: grid built %t after the first batch, want %t", w, built, !in.cuts)
							}
							if st.IndexUpdates != int64(in.ps.Len()) || st.IndexProbes < int64(in.ps.Len()) {
								t.Fatalf("w=%d: %+v, want %d updates and at least as many probes", w, st, in.ps.Len())
							}
							d := s.Dendrogram()
							if !reflect.DeepEqual(d.Merges(), want.Merges()) {
								t.Fatalf("w=%d: merge list diverges from the sequential build\ngot  %v\nwant %v", w, d.Merges(), want.Merges())
							}
							if !reflect.DeepEqual(components(s.filter), components(seq.filter)) {
								t.Fatalf("w=%d: early-discard filter differs from the sequential build's", w)
							}
							for _, f := range []float64{0.1, 0.3, 0.5, 0.8, 1} {
								eps := f * epsMax
								got, err := d.GroupsAt(eps)
								if err != nil {
									t.Fatal(err)
								}
								ref, err := want.GroupsAt(eps)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, ref) {
									t.Fatalf("w=%d eps=%v: groups diverge from the sequential build", w, eps)
								}
							}
						}
						checkAgainstFresh(t, seq, in.ps, "sequential build")
					})
				}
			}
		}
	}
}

// buildTiled returns a sweep fed ps in one batch on the given number of
// workers.
func buildTiled(t *testing.T, ps *geom.PointSet, m geom.Metric, epsMax float64, compactEvery, workers int) *Sweep {
	t.Helper()
	s, err := NewSweep(ps.Dims(), m, epsMax)
	if err != nil {
		t.Fatal(err)
	}
	s.CompactEvery = compactEvery
	if err := s.Append(ps, workers, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTiledThenMaintained: after a tiled first batch the sweep carries
// on sequentially — the next Append or Remove bulk-loads the grid the
// tiled build skipped, and both work from the filter it rebuilt. Every
// step must leave the merge list and the filter of a twin that ran
// every step on one goroutine, and a fresh sweep's merge list.
func TestTiledThenMaintained(t *testing.T) {
	const epsMax = 1.25
	spans := map[int]float64{1: 40, 2: 8, 3: 5}
	for _, m := range []geom.Metric{geom.L2, geom.LInf} {
		for _, dims := range []int{1, 2, 3} {
			for _, removeFirst := range []bool{false, true} {
				name := fmt.Sprintf("%v/d=%d/removeFirst=%t", m, dims, removeFirst)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*dims) + int64(m)))
					live := tracePoints(rng, 400, dims, spans[dims])
					tiled := buildTiled(t, live, m, epsMax, 0, 2)
					twin := buildTiled(t, live, m, epsMax, 0, 1)
					if tiled.tab != nil {
						t.Fatal("the tiled first batch built the probe grid")
					}
					step := func(label string, op func(s *Sweep) error) {
						t.Helper()
						for _, s := range []*Sweep{tiled, twin} {
							if err := op(s); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
						}
						if tiled.tab == nil {
							t.Fatalf("%s: probe grid still unbuilt", label)
						}
						if !reflect.DeepEqual(components(tiled.filter), components(twin.filter)) {
							t.Fatalf("%s: early-discard filter differs from the sequential twin's", label)
						}
						if !reflect.DeepEqual(tiled.Dendrogram().Merges(), twin.Dendrogram().Merges()) {
							t.Fatalf("%s: merge list differs from the sequential twin's", label)
						}
						checkAgainstFresh(t, tiled, live, label)
					}
					appendBatch := func(label string) {
						b := tracePoints(rng, 60, dims, spans[dims])
						live.AppendSet(b) // before step, as in remove
						step(label, func(s *Sweep) error { return s.Append(b, 2, nil) })
					}
					remove := func(label string) {
						ids := pickVictims(rng, live.Len())
						for len(ids) == 0 || len(ids) == live.Len() {
							ids = pickVictims(rng, live.Len())
						}
						live.RemoveSorted(ids) // step's checkAgainstFresh reads the survivors
						step(label, func(s *Sweep) error { return s.Remove(ids, nil) })
					}
					if removeFirst {
						remove("remove after the tiled batch")
						appendBatch("append after remove")
					} else {
						appendBatch("append after the tiled batch")
						remove("remove after append")
					}
					appendBatch("second append")
				})
			}
		}
	}
}
