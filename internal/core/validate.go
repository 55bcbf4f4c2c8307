package core

import (
	"fmt"
	"sort"

	"github.com/sgb-db/sgb/internal/geom"
)

// The helpers in this file are reference implementations and invariant
// checkers. The test suite and the experiment harness use them to
// verify that the optimized strategies compute semantically valid
// groupings (and, for SGB-Any, the exact connected components).

// CheckCliques verifies the SGB-All output invariants over points:
// every group is a clique under (metric, eps), no input index appears
// twice across groups∪eliminated, and every input index is accounted
// for. It returns a descriptive error on the first violation.
func CheckCliques(points []geom.Point, metric geom.Metric, eps float64, res *Result) error {
	seen := make(map[int]string, len(points))
	for gi, g := range res.Groups {
		if len(g.Members) == 0 {
			return fmt.Errorf("group %d is empty", gi)
		}
		for _, m := range g.Members {
			if m < 0 || m >= len(points) {
				return fmt.Errorf("group %d references invalid index %d", gi, m)
			}
			if prev, dup := seen[m]; dup {
				return fmt.Errorf("index %d appears in group %d and %s", m, gi, prev)
			}
			seen[m] = fmt.Sprintf("group %d", gi)
		}
		for i := 0; i < len(g.Members); i++ {
			for j := i + 1; j < len(g.Members); j++ {
				a, b := g.Members[i], g.Members[j]
				if !metric.Within(points[a], points[b], eps) {
					// Within compares distance keys: squares under L2.
					sq := ""
					if metric == geom.L2 {
						sq = "²"
					}
					return fmt.Errorf("group %d is not a clique: δ%s(p%d,p%d)=%v > ε%s=%v",
						gi, sq, a, b, metric.DistKey(points[a], points[b]), sq, metric.EpsKey(eps))
				}
			}
		}
	}
	for _, m := range res.Eliminated {
		if prev, dup := seen[m]; dup {
			return fmt.Errorf("index %d appears eliminated and in %s", m, prev)
		}
		seen[m] = "eliminated"
	}
	if len(seen) != len(points) {
		return fmt.Errorf("accounted for %d of %d input points", len(seen), len(points))
	}
	return nil
}

// ConnectedComponents computes the exact connected components of the
// ε-similarity graph by brute force (O(n²)); SGB-Any must produce this
// partition regardless of input order or algorithm. Components are
// ordered by smallest member, members ascending.
func ConnectedComponents(points []geom.Point, metric geom.Metric, eps float64) []Group {
	n := len(points)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if metric.Within(points[i], points[j], eps) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}
	slot := make(map[int]int)
	var groups []Group
	for i := 0; i < n; i++ {
		r := find(i)
		s, ok := slot[r]
		if !ok {
			s = len(groups)
			slot[r] = s
			groups = append(groups, Group{})
		}
		groups[s].Members = append(groups[s].Members, i)
	}
	return groups
}

// SameGrouping reports whether two group lists describe the same
// partition of the input (ignoring group order and member order).
func SameGrouping(a, b []Group) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(g Group) string {
		ms := append([]int(nil), g.Members...)
		sort.Ints(ms)
		return fmt.Sprint(ms)
	}
	counts := make(map[string]int, len(a))
	for _, g := range a {
		counts[key(g)]++
	}
	for _, g := range b {
		counts[key(g)]--
		if counts[key(g)] < 0 {
			return false
		}
	}
	return true
}
