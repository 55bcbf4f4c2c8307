package partition

import (
	"math/rand"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

func randSet(r *rand.Rand, n, d int, span float64) *geom.PointSet {
	ps := geom.NewPointSetCap(d, n)
	for i := 0; i < n; i++ {
		p := ps.Extend()
		for j := range p {
			p[j] = r.Float64() * span
		}
	}
	return ps
}

// TestSplitPartitionsInput checks the structural invariants: every
// input index lands in exactly one tile (exact cover), tile Global
// maps are ascending, gathered sub-PointSets match their sources,
// tiles are non-empty, and TileOf agrees with the tile buckets.
func TestSplitPartitionsInput(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 5} {
		for _, k := range []int{2, 4, 8} {
			ps := randSet(r, 500, d, 10)
			plan := Split(ps, 0.5, k)
			if plan == nil {
				t.Fatalf("d=%d k=%d: expected a plan for a 20-cell-wide input", d, k)
			}
			if len(plan.Tiles) < 2 {
				t.Fatalf("d=%d k=%d: got %d tiles", d, k, len(plan.Tiles))
			}
			if got := product(plan.Splits); got < len(plan.Tiles) {
				t.Fatalf("d=%d k=%d: %d tiles exceed the %d-cell lattice", d, k, len(plan.Tiles), got)
			}
			seen := make([]bool, ps.Len())
			for ti, tile := range plan.Tiles {
				if tile.Points.Len() == 0 {
					t.Fatalf("tile %d is empty", ti)
				}
				if tile.Points.Len() != len(tile.Global) {
					t.Fatalf("tile %d: %d points vs %d global ids", ti, tile.Points.Len(), len(tile.Global))
				}
				prev := int32(-1)
				for li, gi := range tile.Global {
					if gi <= prev {
						t.Fatalf("tile %d: Global not ascending", ti)
					}
					prev = gi
					if seen[gi] {
						t.Fatalf("point %d assigned twice", gi)
					}
					seen[gi] = true
					if plan.TileOf[gi] != int32(ti) {
						t.Fatalf("TileOf[%d] = %d, want %d", gi, plan.TileOf[gi], ti)
					}
					if !tile.Points.At(li).Equal(ps.At(int(gi))) {
						t.Fatalf("tile %d local %d: gathered point differs from source %d", ti, li, gi)
					}
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("point %d assigned to no tile", i)
				}
			}
		}
	}
}

// TestSplitFrontierIsExact is the correctness core: every cross-tile
// within-ε pair must have BOTH endpoints in the frontier, under both
// metrics, at d ∈ {2, 3, 5}. (That the SGB-Any pipeline's frontier
// probe finds each such pair once is internal/core's
// TestAnyFrontierPairsExact.)
func TestSplitFrontierIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, d := range []int{2, 3, 5} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for trial := 0; trial < 3; trial++ {
				eps := 0.2 + r.Float64()*0.5
				ps := randSet(r, 400, d, 8)
				plan := Split(ps, eps, 4+4*trial)
				if plan == nil {
					t.Fatal("expected a plan")
				}
				if len(plan.Frontier) == 0 {
					t.Fatal("a split plan must have a frontier")
				}
				inFrontier := make([]bool, ps.Len())
				for fi, gi := range plan.Frontier {
					if fi > 0 && gi <= plan.Frontier[fi-1] {
						t.Fatal("frontier ids not ascending")
					}
					inFrontier[gi] = true
				}
				for i := 0; i < ps.Len(); i++ {
					for j := i + 1; j < ps.Len(); j++ {
						if !ps.Within(m, i, j, eps) || plan.TileOf[i] == plan.TileOf[j] {
							continue
						}
						if !inFrontier[i] || !inFrontier[j] {
							t.Fatalf("d=%d: cross-tile within-ε pair (%d,%d) not fully in frontier", d, i, j)
						}
					}
				}
			}
		}
	}
}

// TestSplitMultiAxis pins the starving-axis fix: when every axis spans
// only two occupied ε-cells, single-axis striping caps at 2 shards,
// but the multi-axis plan reaches 2^d tiles.
func TestSplitMultiAxis(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range []int{2, 3} {
		ps := randSet(r, 600, d, 2) // ε=1: exactly cells {0,1} per axis
		plan := Split(ps, 1, 1<<d)
		if plan == nil {
			t.Fatalf("d=%d: expected a plan", d)
		}
		want := 1 << d
		if len(plan.Tiles) != want {
			t.Fatalf("d=%d: got %d tiles, want %d (every axis cut)", d, len(plan.Tiles), want)
		}
		for axis, s := range plan.Splits {
			if s != 2 {
				t.Fatalf("d=%d: axis %d split into %d intervals, want 2", d, axis, s)
			}
		}
	}
}

func TestSplitDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	if Split(geom.NewPointSet(2), 1, 4) != nil {
		t.Fatal("empty input must not split")
	}
	ps := randSet(r, 100, 2, 10)
	if Split(ps, 1, 1) != nil {
		t.Fatal("k=1 must not split")
	}
	// ε larger than the whole extent: one occupied cell per axis.
	tight := geom.NewPointSetCap(2, 10)
	for i := 0; i < 10; i++ {
		p := tight.Extend()
		p[0] = 0.1 + 0.05*float64(i)
		p[1] = 0.2
	}
	if Split(tight, 100, 4) != nil {
		t.Fatal("single-cell input must not split")
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("Workers(0) must resolve GOMAXPROCS")
	}
	if Workers(5) != 5 {
		t.Fatal("explicit worker counts pass through")
	}
}
