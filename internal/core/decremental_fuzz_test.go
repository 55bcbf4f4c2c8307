package core

import "testing"

// FuzzDecrementalAll decodes its input as an append/remove trace over
// d ∈ {1, 2, 3}, the three ON-OVERLAP clauses, both metrics, the four
// strategies and three ε (decremental_test.go: decTraceSeed) and holds
// the maintained AllEvaluator to SGBAll over the survivors after every
// operation — Result and retained state. The seed corpus is
// TestDecrementalAllEquivalence's traces: sliding windows across
// compactions, duplicate and lattice-aligned coordinates, the
// re-created-beside-untouched candidate pair.
func FuzzDecrementalAll(f *testing.F) {
	for _, seed := range decTraceSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return // every operation regroups from scratch twice: keep traces short
		}
		checkAllTrace(t, data)
	})
}
