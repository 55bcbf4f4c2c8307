package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkProbe times the finders' probe — CollectBox with the cell
// side as radius, from every registered point in turn — on uniform
// points at three densities, named by the share of a probe's 3^d cells
// that are occupied (sql_cold's sparse 3-d shape sits near 3 %, its
// dense 2-d ones near 45 %). ns/op is per probe; lookups/probe is the
// hashed directory lookups one probe makes (3^d before cells were
// blocked), ids/probe what it returns.
func BenchmarkProbe(b *testing.B) {
	const n = 12000
	for _, d := range []int{2, 3} {
		for _, hit := range []float64{0.03, 0.20, 0.45} {
			b.Run(fmt.Sprintf("d=%d/hit=%.0f%%", d, hit*100), func(b *testing.B) {
				// Cell side 1: a cell is occupied with probability
				// 1 - exp(-n / side^d).
				side := math.Pow(n/-math.Log(1-hit), 1/float64(d))
				r := rand.New(rand.NewSource(int64(d)))
				pts := make([][]float64, n)
				g := NewCap(d, 1, n)
				for i := range pts {
					p := make([]float64, d)
					for k := range p {
						p[k] = (r.Float64() - 0.5) * side
					}
					pts[i] = p
					g.AddPoint(p, int32(i))
				}
				var cur Cursor
				var buf []int32
				var lo, hi []int64
				lookups, ids := 0, 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = g.CollectBox(&cur, pts[i%n], 1, buf[:0])
					ids += len(buf)
				}
				b.StopTimer()
				for _, p := range pts {
					lo, hi = g.RangeOfBox(p, 1, lo, hi)
					blocks := 1
					for k := range lo {
						blocks *= int(blocksPerAxis(g, lo[k], hi[k]))
					}
					lookups += blocks
				}
				b.ReportMetric(float64(lookups)/n, "lookups/probe")
				b.ReportMetric(float64(ids)/float64(b.N), "ids/probe")
			})
		}
	}
}
