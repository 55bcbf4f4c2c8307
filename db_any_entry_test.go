package sgb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sessionQuery runs sql on s with a Stats block of its own and checks
// the rows against ref, a session evaluating from scratch, row for row:
// group order, counts, ids and member order. It returns the work the
// statement did.
func sessionQuery(t *testing.T, s, ref *Session, sql string) Stats {
	t.Helper()
	var st Stats
	opt := s.Options()
	opt.Stats = &st
	s.SetOptions(opt)
	got, err := s.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	want, err := ref.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("%s: the cached answer differs from the one-shot answer:\ngot  %v\nwant %v", sql, got.Data, want.Data)
	}
	return st
}

// TestSQLAnyOneEntryTwinSessions: a single-ε DISTANCE-TO-ANY statement
// is a level of the entry an EPS IN sweep of the same grouping keeps.
// Two sessions ask WITHIN 0.2 and EPS IN (0.1, 0.2, 0.4) under L2 over
// one table and leave one cache entry, and every answer equals a
// one-shot session's, ids and member order included. A build probes
// once per (level, occupied cell) (cellProbes), an INSERT once per row.
// The single-ε statement issued after the sweep extracts no row and
// probes nothing;
// an INSERT is absorbed once, by whichever statement reads first; a
// DELETE repairs the entry in place; a later WITHIN 0.8 rebuilds it once
// at the new top and keeps 0.1, 0.2 and 0.4.
func TestSQLAnyOneEntryTwinSessions(t *testing.T) {
	const n, k = 1500, 40
	db := Open()
	loadUniform(t, db, n, 17)
	const (
		single = "SELECT count(*), array_agg(id) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN "
		sweep  = "SELECT eps, count(*), array_agg(id) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.1, 0.2, 0.4)"
	)
	ref, a, b := db.NewSession(), db.NewSession(), db.NewSession()
	for _, s := range []*Session{a, b} {
		s.SetOptions(QueryOptions{Algorithm: GridIndex, Incremental: true})
	}
	oneEntry := func(when string) {
		t.Helper()
		if got := db.cache.len(); got != 1 {
			t.Fatalf("%s: %d cache entries, want one", when, got)
		}
	}
	noWork := func(when string, st Stats) {
		t.Helper()
		if st.PointsExtracted != 0 || st.IndexProbes != 0 || st.DistanceComputations != 0 {
			t.Fatalf("%s: extracted %d rows, %d probes, %d distances; want none", when, st.PointsExtracted, st.IndexProbes, st.DistanceComputations)
		}
	}

	cells := cellProbes(t, db, "pts", 0.1, 0.2, 0.4)
	if st := sessionQuery(t, a, ref, sweep); st.PointsExtracted != n || st.IndexProbes != cells || st.IndexUpdates != cells+n {
		t.Fatalf("the sweep's build extracted %d rows, probed %d and updated %d, want %d, %d and %d",
			st.PointsExtracted, st.IndexProbes, st.IndexUpdates, n, cells, cells+n)
	}
	noWork("WITHIN 0.2 after the sweep", sessionQuery(t, b, ref, single+"0.2"))
	oneEntry("after both sessions")

	var ins strings.Builder
	ins.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < k; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d.25, 4.5)", n+i, i%10)
	}
	if _, err := a.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}
	if st := sessionQuery(t, b, ref, single+"0.2"); st.PointsExtracted != k || st.IndexProbes != k {
		t.Fatalf("WITHIN 0.2 after a %d-row INSERT extracted %d rows and probed %d", k, st.PointsExtracted, st.IndexProbes)
	}
	noWork("the sweep after the INSERT", sessionQuery(t, a, ref, sweep))

	ev, _ := sweepEntry(t, db)
	deleted, err := b.Exec("DELETE FROM pts WHERE id % 9 = 4")
	if err != nil || deleted == 0 {
		t.Fatalf("DELETE removed %d rows: %v", deleted, err)
	}
	if kept, _ := sweepEntry(t, db); kept != ev {
		t.Fatal("the DELETE rebuilt the entry instead of repairing it")
	}
	noWork("WITHIN 0.2 after the DELETE", sessionQuery(t, a, ref, single+"0.2"))
	noWork("the sweep after the DELETE", sessionQuery(t, b, ref, sweep))

	live := int64(n + k - deleted)
	cells = cellProbes(t, db, "pts", 0.1, 0.2, 0.4, 0.8)
	if st := sessionQuery(t, b, ref, single+"0.8"); st.PointsExtracted != live || st.IndexProbes != cells {
		t.Fatalf("WITHIN 0.8 above the top extracted %d rows and probed %d, want one rebuild over %d (%d cells)", st.PointsExtracted, st.IndexProbes, live, cells)
	}
	rebuilt, _ := sweepEntry(t, db)
	if rebuilt == ev {
		t.Fatal("WITHIN 0.8 above the top did not rebuild the entry")
	}
	if got := rebuilt.Levels(); !reflect.DeepEqual(got, []float64{0.1, 0.2, 0.4, 0.8}) {
		t.Fatalf("the rebuilt entry keeps levels %v, want 0.1, 0.2, 0.4 and 0.8", got)
	}
	noWork("WITHIN 0.8 again", sessionQuery(t, b, ref, single+"0.8"))
	noWork("the sweep after the rebuild", sessionQuery(t, a, ref, sweep))
	if again, _ := sweepEntry(t, db); again != rebuilt {
		t.Fatal("the entry was rebuilt twice")
	}
	oneEntry("at the end")
}

// TestSQLAnyUnholdableEpsKeepsEntry: a single-ε statement above the
// shared entry's top whose ε no ε-grid can hold (ε · 2^53 overflows)
// fails on its own. The rebuild it asks for is refused before the entry
// changes, so the levels the sweep keeps stay cached and the next read
// costs nothing.
func TestSQLAnyUnholdableEpsKeepsEntry(t *testing.T) {
	const n = 300
	db := Open()
	loadUniform(t, db, n, 23)
	const sweep = "SELECT eps, count(*), array_agg(id) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.1, 0.2, 0.4)"
	ref, s := db.NewSession(), db.NewSession()
	s.SetOptions(QueryOptions{Algorithm: GridIndex, Incremental: true})
	sessionQuery(t, s, ref, sweep)
	ev, _ := sweepEntry(t, db)

	const huge = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1e300"
	if _, err := ref.Query(huge); err == nil {
		t.Fatal("the one-shot WITHIN 1e300 succeeded; the test needs an ε the grid refuses")
	}
	if _, err := s.Query(huge); err == nil {
		t.Fatal("the cached WITHIN 1e300 succeeded")
	}
	if got := db.cache.len(); got != 1 {
		t.Fatalf("after the failed statement the cache holds %d entries, want the sweep's", got)
	}
	kept, _ := sweepEntry(t, db)
	if kept != ev {
		t.Fatal("the failed statement replaced the shared entry's evaluator")
	}
	if got := kept.Levels(); !reflect.DeepEqual(got, []float64{0.1, 0.2, 0.4}) {
		t.Fatalf("the shared entry keeps levels %v after the failed statement, want 0.1, 0.2 and 0.4", got)
	}
	if st := sessionQuery(t, s, ref, sweep); st.PointsExtracted != 0 || st.IndexProbes != 0 {
		t.Fatalf("the sweep after the failed statement extracted %d rows and probed %d, want none", st.PointsExtracted, st.IndexProbes)
	}
}

// TestSQLAnyNestingAcrossStatements holds separate single-ε
// DISTANCE-TO-ANY statements to SGB-Any's two metamorphic relations,
// with incremental maintenance on and off: for ε₁ < ε₂ every group at
// ε₁ lies inside one group at ε₂ (an ε₁-edge is an ε₂-edge), and every
// L2 group lies inside one L∞ group at the same ε (δ∞ ≤ δ2). Groups are
// read off array_agg(id). The inputs are uniform rows and the 6 × 6
// lattice of FuzzAnyLevelsMetamorphic's first seed (step 0.3: its
// distances land on the levels or round just past them); both are
// checked after the load and after a DELETE. The levels are asked out of
// order, so the maintained entry gains a level below its top, is rebuilt
// above it and gains one between. With maintenance on, every answer
// equals the off session's and each metric keeps one entry.
func TestSQLAnyNestingAcrossStatements(t *testing.T) {
	type point struct{ x, y float64 }
	var lattice []point
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if (7*i+3*j)%4 != 0 {
				lattice = append(lattice, point{0.3 * float64(i), 0.3 * float64(2*j)})
			}
		}
	}
	rng := rand.New(rand.NewSource(59))
	uniform := make([]point, 600)
	for i := range uniform {
		uniform[i] = point{rng.Float64() * 10, rng.Float64() * 10}
	}
	for _, in := range []struct {
		name   string
		points []point
		asked  []float64 // the order the statements ask the levels in
	}{
		{"uniform", uniform, []float64{0.35, 0.2, 0.8, 0.5}},
		{"lattice", lattice, []float64{0.6, 0.3, 1.2, 0.9}},
	} {
		levels := slices.Clone(in.asked)
		slices.Sort(levels)
		for _, incremental := range []bool{false, true} {
			db := Open()
			mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
			var ins strings.Builder
			ins.WriteString("INSERT INTO pts VALUES ")
			for i, p := range in.points {
				if i > 0 {
					ins.WriteString(", ")
				}
				fmt.Fprintf(&ins, "(%d, %v, %v)", i, p.x, p.y)
			}
			mustExec(t, db, ins.String())
			ref, s := db.NewSession(), db.NewSession()
			s.SetOptions(QueryOptions{Algorithm: GridIndex, Incremental: incremental})
			check := func(when string) {
				t.Helper()
				where := fmt.Sprintf("%s, incremental = %t, %s", in.name, incremental, when)
				pos := make(map[string]int)
				for i, r := range mustQuery(t, db, "SELECT id FROM pts").Data {
					pos[r[0].String()] = i
				}
				live := len(pos)
				parts := make(map[string]map[float64][]Group) // metric → ε → groups
				split := false
				for _, metric := range []string{"L2", "LINF"} {
					parts[metric] = make(map[float64][]Group)
					for _, eps := range in.asked {
						sql := fmt.Sprintf("SELECT count(*), array_agg(id) FROM pts GROUP BY x, y DISTANCE-TO-ANY %s WITHIN %v", metric, eps)
						rows, err := s.Query(sql)
						if err != nil {
							t.Fatalf("%s: %s: %v", where, sql, err)
						}
						if incremental {
							if want, err := ref.Query(sql); err != nil || !reflect.DeepEqual(rows.Data, want.Data) {
								t.Fatalf("%s: %s: the cached answer differs from the off session's (%v)", where, sql, err)
							}
						}
						covered := 0
						for _, r := range rows.Data {
							var g Group
							for _, id := range strings.Split(strings.Trim(r[1].S, "[]"), ", ") {
								i, ok := pos[id]
								if !ok {
									t.Fatalf("%s: %s lists id %q, which is not in the table", where, sql, id)
								}
								g.Members = append(g.Members, int32(i))
							}
							if int(r[0].I) != len(g.Members) {
								t.Fatalf("%s: %s: count(*) = %d beside %d listed ids", where, sql, r[0].I, len(g.Members))
							}
							covered += len(g.Members)
							parts[metric][eps] = append(parts[metric][eps], g)
						}
						if covered != live {
							t.Fatalf("%s: %s groups %d rows of %d", where, sql, covered, live)
						}
						split = split || (len(rows.Data) > 1 && len(rows.Data) < live)
					}
					for l := 1; l < len(levels); l++ {
						if !refines(parts[metric][levels[l-1]], parts[metric][levels[l]], live) {
							t.Fatalf("%s: a %s group at ε = %v is not inside one group at ε = %v", where, metric, levels[l-1], levels[l])
						}
					}
				}
				for _, eps := range levels {
					if !refines(parts["L2"][eps], parts["LINF"][eps], live) {
						t.Fatalf("%s: an L2 group at ε = %v is not inside one L∞ group", where, eps)
					}
				}
				if !split {
					t.Fatalf("%s: no statement splits the %d rows into groups", where, live)
				}
				if n := db.cache.len(); incremental && n != 2 {
					t.Fatalf("%s: %d cache entries, want one per metric", where, n)
				}
			}
			check("after the load")
			mustExec(t, db, "DELETE FROM pts WHERE id % 5 = 2")
			check("after a DELETE")
		}
	}
}
