package sgb

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// topKShapes are ORDER BY statements without their LIMIT, one per plan
// shape an ORDER BY … LIMIT can take: the similarity node answering it
// from its memoized columns (the Top hint), and every shape in which it
// must not — HAVING, a key that is not a bare aggregate, an ε sweep,
// the cube, DISTINCT — plus standard GROUP BY and a plain scan. Group
// sizes over pts tie constantly, so tie order is exercised throughout.
var topKShapes = []string{
	"SELECT count(*), max(y) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.3 ORDER BY 1 DESC, 2 DESC",
	"SELECT count(*) AS c, min(x), avg(y) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.3 ORDER BY c",
	"SELECT min(id), count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 0.3 ON-OVERLAP JOIN-ANY ORDER BY count(*) DESC",
	"SELECT count(*), min(x) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.3 ON-OVERLAP ELIMINATE ORDER BY count(*) DESC, min(x)",
	"SELECT count(*), max(y) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.3 HAVING count(*) >= 2 ORDER BY 1 DESC",
	"SELECT count(*), max(y) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.3 ORDER BY count(*) + 1 DESC",
	"SELECT eps, count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.1, 0.3) ORDER BY count(*) DESC, eps",
	"SELECT * FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.1, 0.2, 0.3) SIMILARITY CUBE BY EPS ORDER BY group_count",
	"SELECT DISTINCT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.3 ORDER BY 1 DESC",
	"SELECT id % 7, count(*) FROM pts GROUP BY id % 7 ORDER BY count(*) DESC",
	"SELECT id, x FROM pts ORDER BY floor(x) DESC",
}

// checkTopK runs every shape on s, with and without LIMIT k for the
// interesting k, and requires the limited answer to be the unlimited
// one truncated. It reports through t.Errorf, so it may run off the
// test's goroutine.
func checkTopK(t *testing.T, s *Session, when string) [][]string {
	var full [][]string
	for _, shape := range topKShapes {
		all, err := s.Query(shape)
		if err != nil {
			t.Errorf("%s: %s: %v", when, shape, err)
			return nil
		}
		n := int64(len(all.Data))
		for _, k := range []int64{0, 1, 10, n - 1, n, n + 5, math.MaxInt64} {
			if k < 0 {
				continue
			}
			sql := fmt.Sprintf("%s LIMIT %d", shape, k)
			got, err := s.Query(sql)
			if err != nil {
				t.Errorf("%s: %s: %v", when, sql, err)
				continue
			}
			want := all.Data
			if k < n {
				want = want[:k]
			}
			if len(got.Data) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got.Data, want)) {
				t.Errorf("%s: %s: %d rows that are not the first %d of the %d the statement has without LIMIT",
					when, sql, len(got.Data), len(want), n)
			}
		}
		rows := make([]string, len(all.Data))
		for i, r := range all.Data {
			rows[i] = fmt.Sprint(r)
		}
		full = append(full, rows)
	}
	return full
}

func topKSession(t *testing.T, db *DB, incremental string) *Session {
	t.Helper()
	s := db.NewSession()
	if _, err := s.Exec("SET incremental = " + incremental); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTopKEqualsTruncatedOrderBy is the SQL half of the top-k
// differential suite: every shape, with incremental maintenance on
// (shared groupings: the hint is honoured) and off (private: it is
// ignored), initially, after an INSERT and after a DELETE — each a new
// table generation with newly published answers. The two settings must
// also agree with each other.
func TestTopKEqualsTruncatedOrderBy(t *testing.T) {
	db := Open()
	loadUniform(t, db, 900, 19)
	on, off := topKSession(t, db, "on"), topKSession(t, db, "off")
	check := func(when string) {
		t.Helper()
		a, b := checkTopK(t, on, when+", incremental on"), checkTopK(t, off, when+", incremental off")
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: incremental on and off disagree", when)
		}
	}
	check("initially")
	if _, err := db.Exec("INSERT INTO pts VALUES (9000, 5.01, 5.01), (9001, 5.02, 5.0), (9002, 0.5, 9.5), (9003, 5.0, 5.03)"); err != nil {
		t.Fatal(err)
	}
	check("after INSERT")
	if _, err := db.Exec("DELETE FROM pts WHERE id % 5 = 0"); err != nil {
		t.Fatal(err)
	}
	check("after DELETE")
}

// TestTopKTwoSessions runs the suite from two sessions at once over
// shared groupings (for the race detector: one session ranks groups on
// memoized columns while the other folds columns into the same
// Grouping), across a generation change.
func TestTopKTwoSessions(t *testing.T) {
	db := Open()
	loadUniform(t, db, 600, 23)
	round := func(when string) {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			s := topKSession(t, db, "on")
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				checkTopK(t, s, fmt.Sprintf("%s, session %d", when, c))
			}(c)
		}
		wg.Wait()
	}
	round("initially")
	if _, err := db.Exec("DELETE FROM pts WHERE id % 3 = 0"); err != nil {
		t.Fatal(err)
	}
	round("after DELETE")
}

// TestWarmTopKRepeats repeats top-k statements — several LIMITs, both
// directions, keys given by ordinal, alias and spelled-out aggregate —
// from two sessions at once on a database whose shared groupings
// memoize each ranking, within one table generation and across INSERT
// and DELETE rounds. Every answer must equal a twin database's with
// incremental = off, which ranks a private evaluation every time.
func TestWarmTopKRepeats(t *testing.T) {
	const anyFrom = " FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.3 "
	const allFrom = " FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 0.3 ON-OVERLAP JOIN-ANY "
	var stmts []string
	for _, k := range []int{1, 3, 10, 50} {
		for _, s := range []string{
			"SELECT count(*), max(y)" + anyFrom + "ORDER BY 1 DESC, 2 DESC LIMIT %d",
			"SELECT count(*), max(y)" + anyFrom + "ORDER BY 1, 2 LIMIT %d",
			"SELECT count(*) AS c, max(y) AS m" + anyFrom + "ORDER BY c DESC, m LIMIT %d",
			"SELECT count(*), max(y), min(x)" + anyFrom + "ORDER BY max(y) DESC, count(*) LIMIT %d",
			"SELECT min(id), count(*)" + allFrom + "ORDER BY count(*) DESC, 1 LIMIT %d",
			"SELECT min(id) AS first, count(*)" + allFrom + "ORDER BY 2, first DESC LIMIT %d",
		} {
			stmts = append(stmts, fmt.Sprintf(s, k))
		}
	}
	on, off := Open(), Open()
	loadUniform(t, on, 700, 28)
	loadUniform(t, off, 700, 28)
	ref := topKSession(t, off, "off")
	sessions := []*Session{topKSession(t, on, "on"), topKSession(t, on, "on")}
	round := func(when string) {
		want := make([][]string, len(stmts))
		for i, sql := range stmts {
			rows, err := ref.Query(sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, sql, err)
			}
			for _, r := range rows.Data {
				want[i] = append(want[i], fmt.Sprint(r))
			}
		}
		var wg sync.WaitGroup
		for c, s := range sessions {
			wg.Add(1)
			go func(c int, s *Session) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for i := range stmts {
						j := (i + c*len(stmts)/2) % len(stmts) // the sessions start apart
						sql := stmts[j]
						rows, err := s.Query(sql)
						if err != nil {
							t.Errorf("%s, session %d: %s: %v", when, c, sql, err)
							return
						}
						var got []string
						for _, r := range rows.Data {
							got = append(got, fmt.Sprint(r))
						}
						if !slices.Equal(got, want[j]) {
							t.Errorf("%s, session %d, repeat %d: %s\n got %v\nwant %v", when, c, rep, sql, got, want[j])
						}
					}
				}
			}(c, s)
		}
		wg.Wait()
	}
	both := func(sql string) {
		t.Helper()
		for _, db := range []*DB{on, off} {
			if _, err := db.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	round("initially")
	both("INSERT INTO pts VALUES (9000, 5.01, 5.01), (9001, 5.02, 5.0), (9002, 0.5, 9.5), (9003, 5.0, 5.03)")
	round("after INSERT")
	both("DELETE FROM pts WHERE id % 4 = 1")
	round("after DELETE")
	both("INSERT INTO pts VALUES (9004, 5.04, 5.0)")
	round("after a second INSERT")
}
