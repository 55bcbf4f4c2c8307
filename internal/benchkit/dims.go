package benchkit

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// dims is an extension, not a paper artifact: the paper defers more
// than three grouping attributes to future work, and every figure groups
// on two. It sweeps the dimensionality d at a density that keeps about
// four L∞ neighbours per point, ε = 0.5·(4/n)^(1/d) over n uniform
// points in [0, 1]^d, and runs SGB-Any and SGB-All (JOIN-ANY and
// ELIMINATE) on the ε-grid and on the R-tree, so the grid's cost can be
// read against its 3^d neighbourhood. Each row records the time, the
// distance keys computed and the index probes of one sequential run,
// and the group count, which the two strategies must share.

func init() {
	register(Experiment{
		ID:    "dims",
		Title: "d sweep, SGB-Any and SGB-All on the ε-grid and the R-tree (extension)",
		Expect: "no paper claim (the paper stops at d = 3); the grid's probes stay one " +
			"per point or cell while its neighbourhood grows as 3^d",
		Extension: true,
		Run:       runDims,
	})
}

func runDims(cfg Config) error {
	e, _ := Find("dims")
	header(cfg, e)
	n := cfg.scaled(20000)
	fmt.Fprintf(cfg.Out, "n = %d uniform points in [0, 1]^d, L2, ε = 0.5·(4/n)^(1/d)\n\n", n)
	ops := []struct {
		name string
		run  func(*geom.PointSet, core.Options) (*core.Result, error)
		ov   core.Overlap
	}{
		{"SGB-Any", core.SGBAnySet, core.JoinAny},
		{"SGB-All JOIN-ANY", core.SGBAllSet, core.JoinAny},
		{"SGB-All ELIMINATE", core.SGBAllSet, core.Eliminate},
	}
	t := newTable(cfg.Out, "d", "eps", "operator", "strategy", "ms", "keys", "probes", "groups")
	for _, d := range []int{2, 3, 4, 6, 8} {
		eps := 0.5 * math.Pow(4/float64(n), 1/float64(d))
		ps := uniformPointSet(n, d, cfg.Seed+int64(d))
		for _, op := range ops {
			groups := -1
			for _, alg := range []core.Algorithm{core.GridIndex, core.OnTheFlyIndex} {
				st := &core.Stats{}
				opt := core.Options{Metric: geom.L2, Eps: eps, Overlap: op.ov, Algorithm: alg,
					Seed: 1, Parallelism: 1, Stats: st}
				start := time.Now()
				res, err := op.run(ps, opt)
				if err != nil {
					return err
				}
				took := time.Since(start)
				if groups >= 0 && res.NumGroups() != groups {
					return fmt.Errorf("d=%d %s: %v finds %d groups, the grid %d", d, op.name, alg, res.NumGroups(), groups)
				}
				groups = res.NumGroups()
				t.row(d, fmt.Sprintf("%.4f", eps), op.name, alg, ms(took), st.DistanceComputations, st.IndexProbes, groups)
			}
		}
	}
	t.flush()
	return nil
}

// uniformPointSet draws n points uniformly from [0, 1]^d.
func uniformPointSet(n, d int, seed int64) *geom.PointSet {
	r := rand.New(rand.NewSource(seed))
	ps := geom.NewPointSetCap(d, n)
	for i := 0; i < n; i++ {
		for k, p := 0, ps.Extend(); k < d; k++ {
			p[k] = r.Float64()
		}
	}
	return ps
}
