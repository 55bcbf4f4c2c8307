package cluster

import (
	"errors"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/rtree"
)

// Noise is the DBSCAN label for points in no cluster.
const Noise = -1

// DBSCANResult reports cluster labels per input index: 0..K-1 for
// cluster members, Noise (-1) for noise points.
type DBSCANResult struct {
	Labels      []int
	NumClusters int
	// RegionQueries counts ε-neighborhood lookups (≥ one per point;
	// the multi-visit behavior the paper contrasts with one-pass SGB).
	RegionQueries int64
}

// DBSCANConfig configures DBSCAN.
type DBSCANConfig struct {
	Eps    float64     // neighborhood radius
	MinPts int         // core-point density threshold (default 4)
	Metric geom.Metric // geom.L2 (paper default) or geom.LInf
}

// DBSCAN is the density-based clustering of Ester et al. [12], with
// ε-neighborhood queries answered by an R-tree — matching the paper's
// "state-of-the-art implementation of DBSCAN with an R-tree" comparator.
func DBSCAN(points []geom.Point, cfg DBSCANConfig) (*DBSCANResult, error) {
	if cfg.Eps <= 0 {
		return nil, errors.New("cluster: DBSCAN eps must be positive")
	}
	if cfg.MinPts <= 0 {
		cfg.MinPts = 4
	}
	n := len(points)
	res := &DBSCANResult{Labels: make([]int, n)}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	if n == 0 {
		return res, nil
	}

	ix := rtree.New(len(points[0]))
	for i, p := range points {
		ix.Insert(geom.PointRect(p), i)
	}

	key := cfg.Metric.EpsKey(cfg.Eps)
	regionQuery := func(i int, out []int) []int {
		res.RegionQueries++
		box := geom.EpsBox(points[i], cfg.Eps)
		ix.Visit(box, func(_ geom.Rect, data any) bool {
			j := data.(int)
			if cfg.Metric.DistKey(points[i], points[j]) <= key {
				out = append(out, j)
			}
			return true
		})
		return out
	}

	const unvisited = -2
	state := make([]int, n) // unvisited / Noise / cluster id
	for i := range state {
		state[i] = unvisited
	}

	cluster := 0
	var seeds []int
	for i := 0; i < n; i++ {
		if state[i] != unvisited {
			continue
		}
		seeds = regionQuery(i, seeds[:0])
		if len(seeds) < cfg.MinPts {
			state[i] = Noise
			continue
		}
		// Start a new cluster and expand it breadth-first.
		state[i] = cluster
		queue := append([]int(nil), seeds...)
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if state[j] == Noise {
				state[j] = cluster // border point
			}
			if state[j] != unvisited {
				continue
			}
			state[j] = cluster
			nbrs := regionQuery(j, nil)
			if len(nbrs) >= cfg.MinPts {
				queue = append(queue, nbrs...)
			}
		}
		cluster++
	}
	for i, s := range state {
		if s >= 0 {
			res.Labels[i] = s
		}
	}
	res.NumClusters = cluster
	return res, nil
}
