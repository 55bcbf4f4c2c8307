package sgb_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	sgb "github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/sgbclient"
	"github.com/sgb-db/sgb/sgbserver"
)

// TestResultRowsExactEveryWriter: every writer of result rows — the
// shared zip of memoized columns and its top-k twin, the private typed
// and accumulator folds, the sweep's ε column, the cube's rollup rows
// and the wire client's decoder — produces the same cells, Kind
// included, over aggregates that yield INT, FLOAT, NULL (an all-NULL
// group's max) and TEXT (min of a text column). Each statement runs on
// a shared session (incremental = on), a private one (off) and over
// sgbserver / sgbclient, and every returned row is its own: appending
// to one leaves its neighbour unchanged.
func TestResultRowsExactEveryWriter(t *testing.T) {
	db := sgb.Open()
	var ins strings.Builder
	ins.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < 60; i++ {
		// Three clusters along x; the middle one's w is all NULL.
		x, y := float64(i/20)*5+float64(i%20)*0.1, float64(i%3)*0.1
		w := fmt.Sprint(float64(i) / 7)
		if i/20 == 1 {
			w = "NULL"
		}
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %g, %g, %s, 'tag%02d')", i, x, y, w, 59-i)
	}
	for _, sql := range []string{"CREATE TABLE pts (id INT, x FLOAT, y FLOAT, w FLOAT, tag TEXT)", ins.String()} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := sgbserver.New(db)
	go srv.Serve(ln)
	defer srv.Shutdown()
	conn, err := sgbclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	shared, private := db.NewSession(), db.NewSession()
	ways := []struct {
		name string
		run  func(string) (*sgb.Rows, int, error)
	}{
		{"shared", shared.Run},
		{"private", private.Run},
		{"wire", conn.Run},
	}
	for i, set := range []string{"SET incremental = on", "SET incremental = off", "SET incremental = on"} {
		if _, _, err := ways[i].run(set); err != nil {
			t.Fatalf("%s: %s: %v", ways[i].name, set, err)
		}
	}

	const from = " FROM pts GROUP BY x, y "
	statements := []string{
		// Typed kernels when private; a NULL max for the middle group.
		"SELECT count(*), avg(x), max(w), sum(id)" + from + "DISTANCE-TO-ANY L2 WITHIN 0.5",
		// TEXT: the accumulators when private, boxed columns when shared.
		"SELECT count(*), avg(x), max(w), min(tag), sum(id)" + from + "DISTANCE-TO-ANY L2 WITHIN 0.5",
		"SELECT count(*), max(w), min(tag)" + from + "DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP JOIN-ANY",
		"SELECT eps, count(*), max(w), min(tag), sum(id)" + from + "DISTANCE-TO-ANY L2 EPS IN (0.05, 0.5, 6)",
		"SELECT eps, count(*), max(w), avg(x)" + from + "DISTANCE-TO-ANY L2 EPS IN (0.05, 0.5, 6)",
		"SELECT *" + from + "DISTANCE-TO-ANY L2 EPS IN (0.05, 0.5, 6) SIMILARITY CUBE BY EPS",
		"SELECT count(*), max(w), min(tag), sum(id)" + from + "DISTANCE-TO-ANY L2 WITHIN 0.5 ORDER BY 4 DESC LIMIT 2",
		"SELECT count(*), max(w), min(tag)" + from + "DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP JOIN-ANY ORDER BY 3 LIMIT 4",
	}
	kinds := map[types.Kind]bool{}
	for _, sql := range statements {
		var want []types.Row
		for round := 0; round < 2; round++ { // the second round reads memoized columns
			for _, w := range ways {
				rows, _, err := w.run(sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", w.name, sql, err)
				}
				got := rows.Data
				if len(got) < 2 {
					t.Fatalf("%s: %s: %d rows, want at least two", w.name, sql, len(got))
				}
				if want == nil {
					want = got
				}
				if !equalCells(got, want) {
					t.Fatalf("%s, round %d: %s:\n%v\nwant (shared)\n%v", w.name, round, sql, got, want)
				}
				next := got[1][0]
				if _ = append(got[0], types.Text("appended")); got[1][0] != next {
					t.Fatalf("%s: %s: appending to row 0 overwrote row 1: %v", w.name, sql, got[1])
				}
			}
		}
		for _, row := range want {
			for _, v := range row {
				kinds[v.Kind] = true
			}
		}
	}
	for _, k := range []types.Kind{types.KindInt, types.KindFloat, types.KindNull, types.KindText} {
		if !kinds[k] {
			t.Errorf("no statement returned a %s cell", k)
		}
	}
}

// equalCells compares two answers cell by cell with ==, so Kind and
// every payload field must agree.
func equalCells(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
