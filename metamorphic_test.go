package sgb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// An SGB-Any metamorphic input (anyMetaSeeds, FuzzAnyLevelsMetamorphic)
// is a header byte, a level list and a list of operations. The header:
// bit 0 lattice mode, bit 1 lattice step 0.3 rather than 0.25, bits 2–3
// the dimensionality − 1 (mod 3). Then the level count − 1 (mod 6) and
// one byte per level: the step times 1 + b mod 8 in lattice mode, (1 +
// b) / 64 otherwise; repeated levels are dropped. Each operation is an
// opcode byte, taken mod 3, and its operands:
//
//	0 n c…   append 1 + n mod 64 points, d coordinate bytes each
//	1 m      remove the 1 + m mod 48 oldest points
//	2 r      remove the one id r mod Len
//
// A coordinate byte b is the step times b mod 16 in lattice mode, so
// that distances land on the levels, and b / 32 otherwise. The input
// ends where its bytes cannot complete an operation.

// anyMetaInput decodes the header and level list, returning the rest.
func anyMetaInput(data []byte) (d int, levels []float64, coord func(byte) float64, ops []byte, ok bool) {
	if len(data) < 2 {
		return 0, nil, nil, nil, false
	}
	h := data[0]
	lattice, step := h&1 != 0, 0.25
	if h&2 != 0 {
		step = 0.3
	}
	d = 1 + int(h>>2&3)%3
	k := 1 + int(data[1])%6
	if len(data) < 2+k {
		return 0, nil, nil, nil, false
	}
	for _, b := range data[2 : 2+k] {
		eps := float64(1+int(b)) / 64
		if lattice {
			eps = step * float64(1+int(b)%8)
		}
		if !slices.Contains(levels, eps) {
			levels = append(levels, eps)
		}
	}
	slices.Sort(levels)
	coord = func(b byte) float64 { return float64(b) / 32 }
	if lattice {
		coord = func(b byte) float64 { return step * float64(b%16) }
	}
	return d, levels, coord, data[2+k:], true
}

// refines reports whether every group of fine lies inside one group of
// coarse, both partitions of the same n points.
func refines(fine, coarse []Group, n int) bool {
	of := make([]int, n)
	for g, grp := range coarse {
		for _, m := range grp.Members {
			of[m] = g
		}
	}
	for _, grp := range fine {
		for _, m := range grp.Members {
			if of[m] != of[grp.Members[0]] {
				return false
			}
		}
	}
	return true
}

// checkAnyMeta runs a metamorphic input: the points live in one
// NewIncrementalAnyLevels handle per metric, fed every append and
// removal, and after each operation both the handles and SweepAnySet
// over the surviving points must answer partitions that obey SGB-Any's
// two metamorphic relations: each level refines the next one up (an
// ε-edge is an edge at every larger ε), and each L2 level refines the L∞
// level at the same ε (δ∞ ≤ δ2, so every L2 ε-edge is an L∞ one). It
// returns how many removals ran.
func checkAnyMeta(t testing.TB, data []byte) (removes int) {
	t.Helper()
	d, levels, coord, ops, ok := anyMetaInput(data)
	if !ok {
		return 0
	}
	metrics := []Metric{L2, LInf}
	handles := make([]*Incremental, len(metrics))
	for i, m := range metrics {
		x, err := NewIncrementalAnyLevels(Options{Metric: m, Algorithm: GridIndex}, levels)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = x
	}
	live := NewPointSet(d)
	check := func(step int) {
		t.Helper()
		n := live.Len()
		for _, source := range []string{"maintained", "one-shot"} {
			parts := make([][]*Result, len(metrics)) // metric → level → result
			for i, m := range metrics {
				if source == "one-shot" {
					res, err := SweepAnySet(live, levels, Options{Metric: m, Parallelism: 1})
					if err != nil {
						t.Fatal(err)
					}
					parts[i] = res
					continue
				}
				for _, eps := range levels {
					res, err := handles[i].GroupsAt(eps)
					if err != nil {
						t.Fatal(err)
					}
					parts[i] = append(parts[i], res)
				}
			}
			for i, m := range metrics {
				for l := 1; l < len(levels); l++ {
					if !refines(parts[i][l-1].Groups, parts[i][l].Groups, n) {
						t.Fatalf("op %d, %s %v d=%d, %d points: ε = %v does not refine ε = %v",
							step, source, m, d, n, levels[l-1], levels[l])
					}
				}
			}
			for l, eps := range levels {
				if !refines(parts[0][l].Groups, parts[1][l].Groups, n) {
					t.Fatalf("op %d, %s d=%d, %d points, ε = %v: an L2 group spans two L∞ groups", step, source, d, n, eps)
				}
			}
		}
	}
	remove := func(ids []int) {
		t.Helper()
		for _, x := range handles {
			if err := x.Remove(ids); err != nil {
				t.Fatal(err)
			}
		}
		keep := NewPointSet(d)
		for i, gone := 0, 0; i < live.Len(); i++ {
			if gone < len(ids) && ids[gone] == i {
				gone++
				continue
			}
			copy(keep.Extend(), live.At(i))
		}
		live = keep
		removes++
	}
	for step := 0; len(ops) > 1; step++ {
		op, arg := ops[0]%3, int(ops[1])
		ops = ops[2:]
		switch op {
		case 0:
			n := 1 + arg%64
			if len(ops) < n*d {
				return removes
			}
			batch := NewPointSet(d)
			for i := 0; i < n; i++ {
				p := batch.Extend()
				for c := range p {
					p[c] = coord(ops[i*d+c])
				}
			}
			ops = ops[n*d:]
			for _, x := range handles {
				if err := x.AppendSet(batch); err != nil {
					t.Fatal(err)
				}
			}
			live.AppendSet(batch)
		case 1:
			ids := make([]int, min(1+arg%48, live.Len()))
			for i := range ids {
				ids[i] = i
			}
			if len(ids) == 0 {
				continue
			}
			remove(ids)
		case 2:
			if live.Len() == 0 {
				continue
			}
			remove([]int{arg % live.Len()})
		}
		check(step)
	}
	return removes
}

// anyMetaSeed is one named input of TestAnyLevelsMetamorphic and the
// seed corpus of FuzzAnyLevelsMetamorphic.
type anyMetaSeed struct {
	name string
	data []byte
}

// anyMetaSeeds builds the 6 × 6 lattice of
// internal/core's TestAnyStrategiesAgreeOnLatticeLInf (step 0.3; its L∞
// distances land on ε or round just past it) taken apart point by point,
// lattice-aligned and uniform inputs in d ∈ {1, 2, 3} under windows and
// single deletes, and duplicated points.
func anyMetaSeeds() []anyMetaSeed {
	var grid6 []byte
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if (7*i+3*j)%4 != 0 {
				grid6 = append(grid6, byte(i), byte(2*j))
			}
		}
	}
	lattice6 := append([]byte{0b111, 2, 0, 1, 3, 0, byte(len(grid6)/2 - 1)}, grid6...)
	for s := 0; s < len(grid6)/2; s++ {
		lattice6 = append(lattice6, 2, byte(7*s+3))
	}
	seeds := []anyMetaSeed{{"grid6", lattice6}}
	r := rand.New(rand.NewSource(3232))
	for d := 1; d <= 3; d++ {
		for _, lattice := range []bool{true, false} {
			h := byte(d-1) << 2
			levels := []byte{5, 0, 200, 30, 90, 12}
			if lattice {
				h |= 1
				levels = []byte{0, 1, 3, 5, 7, 2}
			}
			data := append([]byte{h, 5}, levels...)
			for s := 0; s < 8; s++ {
				data = append(data, 0, 39)
				for c := 0; c < 40*d; c++ {
					data = append(data, byte(r.Intn(256)))
				}
				data = append(data, 1, byte(r.Intn(48)), 2, byte(r.Intn(256)))
			}
			seeds = append(seeds, anyMetaSeed{fmt.Sprintf("d=%d/lattice=%t", d, lattice), data})
		}
	}
	dup := []byte{0b0100, 2, 8, 40, 120, 0, 29}
	for i := 0; i < 30*2; i++ {
		dup = append(dup, byte(r.Intn(64)))
	}
	dup = append(append(dup, 0, 29), dup[7:]...)
	dup = append(dup, 1, 10, 2, 3, 1, 40)
	return append(seeds, anyMetaSeed{"duplicates", dup})
}

// TestAnyLevelsMetamorphic holds SweepAnySet and NewIncrementalAnyLevels
// to SGB-Any's metamorphic relations through appends and removals
// (checkAnyMeta) on every seed of anyMetaSeeds, each of which must have
// removed points.
func TestAnyLevelsMetamorphic(t *testing.T) {
	for _, s := range anyMetaSeeds() {
		t.Run(s.name, func(t *testing.T) {
			if checkAnyMeta(t, s.data) == 0 {
				t.Fatal("the input removed no point")
			}
		})
	}
}

// FuzzAnyLevelsMetamorphic decodes its input as a metamorphic input
// (checkAnyMeta). The seed corpus is anyMetaSeeds.
func FuzzAnyLevelsMetamorphic(f *testing.F) {
	for _, s := range anyMetaSeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return // every operation sweeps from scratch: keep inputs short
		}
		checkAnyMeta(t, data)
	})
}
