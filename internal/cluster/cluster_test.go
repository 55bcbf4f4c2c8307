package cluster

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// threeBlobs produces three well-separated Gaussian clusters.
func threeBlobs(r *rand.Rand, perCluster int) ([]geom.Point, []int) {
	centers := []geom.Point{{0, 0}, {10, 10}, {-10, 12}}
	var pts []geom.Point
	var truth []int
	for c, ctr := range centers {
		for i := 0; i < perCluster; i++ {
			pts = append(pts, geom.Point{
				ctr[0] + r.NormFloat64()*0.5,
				ctr[1] + r.NormFloat64()*0.5,
			})
			truth = append(truth, c)
		}
	}
	return pts, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts, truth := threeBlobs(r, 100)
	res, err := KMeans(pts, KMeansConfig{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 || len(res.Assign) != len(pts) {
		t.Fatalf("shape: %d centroids, %d assigns", len(res.Centroids), len(res.Assign))
	}
	// Every ground-truth cluster must map to exactly one k-means label.
	label := map[int]int{}
	for i, g := range truth {
		if prev, ok := label[g]; ok {
			if prev != res.Assign[i] {
				t.Fatalf("cluster %d split across labels %d and %d", g, prev, res.Assign[i])
			}
		} else {
			label[g] = res.Assign[i]
		}
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans([]geom.Point{{1, 1}}, KMeansConfig{K: 0}); err == nil {
		t.Fatal("accepted K=0")
	}
	// K > n clamps.
	res, err := KMeans([]geom.Point{{1, 1}, {2, 2}}, KMeansConfig{K: 10, Seed: 1})
	if err != nil || len(res.Centroids) != 2 {
		t.Fatalf("clamp failed: %v %v", res, err)
	}
	// Empty input.
	res, err = KMeans(nil, KMeansConfig{K: 3})
	if err != nil || len(res.Assign) != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts, _ := threeBlobs(r, 50)
	a, _ := KMeans(pts, KMeansConfig{K: 3, Seed: 11})
	b, _ := KMeans(pts, KMeansConfig{K: 3, Seed: 11})
	if math.Abs(a.Inertia-b.Inertia) > 1e-12 {
		t.Fatal("same seed gave different inertia")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed gave different assignment")
		}
	}
}

func TestDBSCANRecoversBlobsAndNoise(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts, truth := threeBlobs(r, 80)
	// Add isolated noise points far from the blobs.
	pts = append(pts, geom.Point{50, 50}, geom.Point{-60, -60})
	truth = append(truth, Noise, Noise)
	res, err := DBSCAN(pts, DBSCANConfig{Eps: 1.0, MinPts: 4, Metric: geom.L2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 3 {
		t.Fatalf("found %d clusters, want 3", res.NumClusters)
	}
	for i := len(pts) - 2; i < len(pts); i++ {
		if res.Labels[i] != Noise {
			t.Fatalf("noise point %d labeled %d", i, res.Labels[i])
		}
	}
	// Cluster purity: each true blob maps to one DBSCAN label.
	label := map[int]int{}
	for i, g := range truth {
		if g == Noise {
			continue
		}
		if prev, ok := label[g]; ok && prev != res.Labels[i] {
			t.Fatalf("blob %d split", g)
		} else if !ok {
			label[g] = res.Labels[i]
		}
	}
	if res.RegionQueries < int64(len(pts)) {
		t.Fatalf("RegionQueries = %d, want >= n", res.RegionQueries)
	}
}

// naiveDBSCAN is an O(n²) oracle implementation.
func naiveDBSCAN(points []geom.Point, eps float64, minPts int) []int {
	n := len(points)
	labels := make([]int, n)
	const unvisited = -2
	for i := range labels {
		labels[i] = unvisited
	}
	region := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if geom.L2.DistKey(points[i], points[j]) <= geom.L2.EpsKey(eps) {
				out = append(out, j)
			}
		}
		return out
	}
	c := 0
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nbrs := region(i)
		if len(nbrs) < minPts {
			labels[i] = Noise
			continue
		}
		labels[i] = c
		queue := append([]int(nil), nbrs...)
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if labels[j] == Noise {
				labels[j] = c
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = c
			nb := region(j)
			if len(nb) >= minPts {
				queue = append(queue, nb...)
			}
		}
		c++
	}
	return labels
}

// TestDBSCANMatchesNaive: same clusters as the quadratic reference on
// random data (labels may permute; compare the partition).
func TestDBSCANMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		n := 30 + r.Intn(150)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{r.Float64() * 8, r.Float64() * 8}
		}
		eps := 0.3 + r.Float64()*0.7
		minPts := 2 + r.Intn(4)
		res, err := DBSCAN(pts, DBSCANConfig{Eps: eps, MinPts: minPts, Metric: geom.L2})
		if err != nil {
			t.Fatal(err)
		}
		want := naiveDBSCAN(pts, eps, minPts)
		// Noise sets must match exactly.
		for i := range want {
			if (want[i] == Noise) != (res.Labels[i] == Noise) {
				t.Fatalf("trial %d: noise disagreement at %d (naive=%d got=%d)",
					trial, i, want[i], res.Labels[i])
			}
		}
		// Same-cluster relation must match for core/border points.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if want[i] == Noise || want[j] == Noise {
					continue
				}
				if (want[i] == want[j]) != (res.Labels[i] == res.Labels[j]) {
					t.Fatalf("trial %d: pair (%d,%d) cluster relation differs", trial, i, j)
				}
			}
		}
	}
}

func TestDBSCANValidation(t *testing.T) {
	if _, err := DBSCAN([]geom.Point{{1, 1}}, DBSCANConfig{Eps: 0}); err == nil {
		t.Fatal("accepted eps=0")
	}
	res, err := DBSCAN(nil, DBSCANConfig{Eps: 1})
	if err != nil || res.NumClusters != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
}

func TestBIRCHAbsorbsTightClusters(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts, _ := threeBlobs(r, 120)
	res, err := BIRCH(pts, BIRCHConfig{Threshold: 1.2, Branching: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) == 0 {
		t.Fatal("no centroids")
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Fatalf("CF sizes sum to %d, want %d", total, len(pts))
	}
	// Coarse quality: far fewer leaf CFs than points, and at least 3.
	if len(res.Centroids) < 3 || len(res.Centroids) > len(pts)/4 {
		t.Fatalf("suspicious centroid count %d for %d points", len(res.Centroids), len(pts))
	}
}

func TestBIRCHRefineAssigns(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts, _ := threeBlobs(r, 60)
	res, err := BIRCH(pts, BIRCHConfig{Threshold: 1.0, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scans != 2 {
		t.Fatalf("Scans = %d, want 2", res.Scans)
	}
	if len(res.Assign) != len(pts) {
		t.Fatalf("Assign len %d", len(res.Assign))
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Fatalf("refined sizes sum to %d, want %d", total, len(pts))
	}
}

func TestBIRCHValidation(t *testing.T) {
	if _, err := BIRCH([]geom.Point{{1, 1}}, BIRCHConfig{Threshold: 0}); err == nil {
		t.Fatal("accepted threshold=0")
	}
	res, err := BIRCH(nil, BIRCHConfig{Threshold: 1})
	if err != nil || len(res.Centroids) != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
}

func TestBIRCHManyIdenticalPoints(t *testing.T) {
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{1, 1}
	}
	res, err := BIRCH(pts, BIRCHConfig{Threshold: 0.5, Branching: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 1 || res.Sizes[0] != 500 {
		t.Fatalf("identical points: %d centroids, sizes %v", len(res.Centroids), res.Sizes)
	}
}
