package benchkit

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"text/tabwriter"
	"time"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the experiment's report.
	Out io.Writer
	// Scale multiplies the default workload sizes (1.0 = the default
	// single-machine sizes; the paper's full sizes correspond to
	// roughly Scale 25–50 and hours of runtime).
	Scale float64
	// Seed drives every generator in the experiment.
	Seed int64
}

func (c Config) scaled(n int) int {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	v := int(float64(n) * c.Scale)
	if v < 50 {
		v = 50
	}
	return v
}

// Experiment is one reproducible paper artifact, or an extension that
// measures what the paper leaves open.
type Experiment struct {
	// ID is the handle used by -exp flags and bench names (e.g. "fig9a").
	ID string
	// Title is the figure/table caption.
	Title string
	// Expect summarizes the shape the paper reports, for side-by-side
	// reading with the measured output.
	Expect string
	// Run executes the experiment and writes its report.
	Run func(cfg Config) error
	// Extension marks an experiment that is not a paper artifact: its
	// verdict is an extension row in docs/reproduction.md, never a
	// paper claim.
	Extension bool
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find locates an experiment by ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// uniformPoints draws n points uniformly from [0,span]² — the
// "unskewed dataset" of the paper's Section 8.4 threshold sweeps.
func uniformPoints(n int, span float64, seed int64) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{r.Float64() * span, r.Float64() * span}
	}
	return pts
}

// blobPoints draws n points around n/blobSize well-separated Gaussian
// blobs (σ = 0.15, ~4 units² of territory per blob). This keeps both
// quantities that drive the Figure 9 comparisons large across the whole
// ε sweep — the number of groups |G| (≥ one per blob) and the group
// cardinality k — reproducing the density regime of the paper's 0.5 M
// record experiments at laptop-scale n.
func blobPoints(n, blobSize int, seed int64) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	nBlobs := n / blobSize
	if nBlobs < 1 {
		nBlobs = 1
	}
	span := 2 * math.Sqrt(float64(nBlobs))
	centers := make([]geom.Point, nBlobs)
	for i := range centers {
		centers[i] = geom.Point{r.Float64() * span, r.Float64() * span}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[r.Intn(nBlobs)]
		pts[i] = geom.Point{c[0] + r.NormFloat64()*0.15, c[1] + r.NormFloat64()*0.15}
	}
	return pts
}

// ClusterPoints draws n points in 16-point clusters of ~1.2 extent
// around random centers on a span × span domain — the spatially
// localized workload (MANET traces, geosocial check-ins) the root
// BenchmarkWindow slides its window over. Keep the span subcritical
// relative to ε (cluster-graph degree well under 1) for components to
// stay bounded.
func ClusterPoints(n int, span float64, seed int64) *geom.PointSet {
	r := rand.New(rand.NewSource(seed))
	ps := geom.NewPointSet(2)
	for j := 0; j < n; {
		cx, cy := r.Float64()*span, r.Float64()*span
		for k := 0; k < 16 && j < n; k++ {
			p := ps.Extend()
			p[0], p[1] = cx+r.Float64()*1.2, cy+r.Float64()*1.2
			j++
		}
	}
	return ps
}

// timeSGBAll measures one SGB-All evaluation. Strategy-comparison
// experiments pin Parallelism to 1 so each column measures the named
// sequential strategy (the paper's operator is single-threaded).
func timeSGBAll(pts []geom.Point, alg core.Algorithm, ov core.Overlap, eps float64) (time.Duration, int, error) {
	opt := core.Options{Metric: geom.L2, Eps: eps, Overlap: ov, Algorithm: alg, Seed: 1, Parallelism: 1}
	start := time.Now()
	res, err := core.SGBAll(pts, opt)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), res.NumGroups(), nil
}

// timeSGBAny measures one SGB-Any evaluation (sequential; see
// timeSGBAll).
func timeSGBAny(pts []geom.Point, alg core.Algorithm, eps float64) (time.Duration, int, error) {
	opt := core.Options{Metric: geom.L2, Eps: eps, Algorithm: alg, Seed: 1, Parallelism: 1}
	start := time.Now()
	res, err := core.SGBAny(pts, opt)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), res.NumGroups(), nil
}

// table is a small aligned-text report writer.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer, headers ...string) *table {
	t := &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
	for i, h := range headers {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, h)
	}
	fmt.Fprintln(t.w)
	return t
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprintf(t.w, "%v", c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

// ms formats a duration in milliseconds with three significant places.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// speedup formats a ratio ("12.3x").
func speedup(slow, fast time.Duration) string {
	if fast <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(slow)/float64(fast))
}

// header prints the experiment banner.
func header(cfg Config, e Experiment) {
	fmt.Fprintf(cfg.Out, "=== %s — %s ===\n", e.ID, e.Title)
	fmt.Fprintf(cfg.Out, "paper expectation: %s\n\n", e.Expect)
}
