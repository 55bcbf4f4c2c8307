package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/types"
)

// sortLimit is the reference TopK must equal row for row.
func sortLimit(rows []types.Row, keys []SortKey, n int64) ([]types.Row, error) {
	return Run(&Limit{N: n, Input: &Sort{Keys: keys, Input: &ValuesOp{Rows: rows}}})
}

// randomKeyRows draws rows of three key columns with few distinct
// values (so ties are the rule), NULLs, and INT/FLOAT mixes that compare
// equal across kinds, plus a unique id column that tells tied rows
// apart.
func randomKeyRows(r *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		row := make(types.Row, 4)
		for j := 0; j < 3; j++ {
			switch v := r.Intn(4); r.Intn(6) {
			case 0:
				row[j] = types.Null()
			case 1, 2:
				row[j] = types.Float(float64(v))
			case 3:
				row[j] = types.Float(float64(v) + 0.5)
			default:
				row[j] = types.Int(int64(v))
			}
		}
		row[3] = types.Int(int64(i))
		rows[i] = row
	}
	return rows
}

// TestTopKMatchesSortLimit: over seeded random inputs with heavy ties,
// NULLs and mixed numeric kinds, 1–3 keys in either direction and every
// interesting k, TopK returns exactly what Limit{Sort} returns.
func TestTopKMatchesSortLimit(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(60)
		rows := randomKeyRows(r, n)
		keys := make([]SortKey, 1+r.Intn(3))
		for j := range keys {
			keys[j] = SortKey{Expr: col(r.Intn(3)), Desc: r.Intn(2) == 0}
		}
		for _, k := range []int64{0, 1, int64(n) - 1, int64(n), int64(n) + 5, math.MaxInt64} {
			if k < 0 {
				continue
			}
			want, err := sortLimit(rows, keys, k)
			if err != nil {
				t.Fatal(err)
			}
			op := &TopK{Keys: keys, N: k, Input: &ValuesOp{Rows: rows}}
			for pass := 0; pass < 2; pass++ { // the second pass re-Opens
				got, err := Run(op)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, n=%d, k=%d, %d keys, pass %d:\n got %v\nwant %v", trial, n, k, len(keys), pass, got, want)
				}
			}
		}
	}
}

// TestOrderKeyKindsAreAColumnProperty: two non-NULL values of
// incomparable kinds in one key column are an error in Sort and in TopK
// alike, wherever they sit and whether or not an algorithm would have
// compared them — behind a leading key that never ties, beyond the k
// rows kept, under LIMIT 0 — and NULLs between them change nothing.
func TestOrderKeyKindsAreAColumnProperty(t *testing.T) {
	mixed := []types.Row{
		{types.Int(1), types.Int(7)},
		{types.Int(2), types.Null()},
		{types.Int(3), types.Float(2)},
		{types.Int(4), types.Text("x")},
		{types.Int(5), types.Int(9)},
	}
	intervals := []types.Row{
		{types.Int(1), types.Interval(1, 0)},
		{types.Int(2), types.Interval(2, 0)},
	}
	for _, c := range []struct {
		name string
		rows []types.Row
		keys []SortKey
		fail bool
	}{
		{"first key", mixed, []SortKey{{Expr: col(1)}}, true},
		{"second key behind distinct first", mixed, []SortKey{{Expr: col(0)}, {Expr: col(1), Desc: true}}, true},
		{"numeric kinds mix", mixed[:3], []SortKey{{Expr: col(1)}}, false},
		{"two intervals", intervals, []SortKey{{Expr: col(1)}}, true},
		{"one interval", intervals[:1], []SortKey{{Expr: col(1)}}, false},
	} {
		for _, k := range []int64{0, 1, 3, math.MaxInt64} {
			_, sortErr := sortLimit(c.rows, c.keys, k)
			_, topErr := Run(&TopK{Keys: c.keys, N: k, Input: &ValuesOp{Rows: c.rows}})
			if (sortErr != nil) != c.fail || (topErr != nil) != c.fail {
				t.Errorf("%s, k=%d: Sort error %v, TopK error %v, want failure = %v", c.name, k, sortErr, topErr, c.fail)
			}
			if c.fail && fmt.Sprint(sortErr) != fmt.Sprint(topErr) {
				t.Errorf("%s, k=%d: Sort says %q, TopK says %q", c.name, k, sortErr, topErr)
			}
		}
	}
}

// TestTopKHugeLimitAllocatesByRows: LIMIT 9223372036854775807 reserves
// nothing up front — what TopK allocates grows with the rows that
// arrive (and eight times the rows cost about eight times as much).
func TestTopKHugeLimitAllocatesByRows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	alloc := func(n int) uint64 {
		op := &TopK{Keys: []SortKey{{Expr: col(0)}, {Expr: col(1), Desc: true}}, N: math.MaxInt64,
			Input: &ValuesOp{Rows: randomKeyRows(r, n)}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Run(op)
		runtime.ReadMemStats(&after)
		if err != nil || len(got) != n {
			t.Fatalf("n=%d: %d rows, %v", n, len(got), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1000), alloc(8000)
	if small > 1000*1024 {
		t.Errorf("1000 rows under LIMIT MaxInt64 allocated %d bytes", small)
	}
	if large > 16*small {
		t.Errorf("8000 rows allocated %d bytes, 1000 rows %d: not proportional", large, small)
	}
}

// TestSGBTopHint: over a shared grouping the Top hint makes the node
// emit only the k winning groups, in group order, with the values the
// full emission has — so TopK above it returns what it returns over
// every group; a private (one-shot) evaluation ignores the hint; and a
// malformed hint is an error, not a panic.
func TestSGBTopHint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var rows []types.Row
	var groups []core.Group
	for g := 0; g < 40; g++ {
		var members []int32
		for m, n := 0, 1+r.Intn(3); m < n; m++ { // sizes 1–3: count(*) ties constantly
			members = append(members, int32(len(rows)))
			rows = append(rows, types.Row{types.Float(float64(g)), types.Int(int64(r.Intn(4)))})
		}
		groups = append(groups, core.Group{Members: members})
	}
	aggs := []AggSpec{
		{Kind: AggCountStar, Key: "count(*)"},
		{Kind: AggMax, Args: []Scalar{col(1)}, Key: "max(b)"},
		{Kind: AggMin, Args: []Scalar{col(0)}, Key: "min(a)"}, // the group's id: tells tied groups apart
	}
	shared := groupingOf(groups)
	node := func(top *Top, answer bool) *SGB {
		s := &SGB{Input: &ValuesOp{Rows: rows}, GroupExprs: []Scalar{col(0)}, Any: true,
			Opt: core.Options{Eps: 0.5}, Aggs: aggs, Top: top}
		if answer {
			s.Answer = func(Snapshot) ([]*Grouping, error) { return []*Grouping{shared}, nil }
		}
		return s
	}
	full, err := Run(node(nil, true))
	if err != nil || len(full) != len(groups) {
		t.Fatalf("full emission: %d rows, %v", len(full), err)
	}
	for _, top := range []*Top{
		{Cols: []int{0}, Desc: []bool{true}, N: 5},
		{Cols: []int{0, 1}, Desc: []bool{true, false}, N: 7},
		{Cols: []int{1, 0}, Desc: []bool{false, false}, N: 1},
		{Cols: []int{1}, Desc: []bool{true}, N: 0},
		{Cols: []int{0}, Desc: []bool{false}, N: 1000},
	} {
		keys := make([]SortKey, len(top.Cols))
		for j, c := range top.Cols {
			keys[j] = SortKey{Expr: col(c), Desc: top.Desc[j]}
		}
		want, err := sortLimit(full, keys, top.N)
		if err != nil {
			t.Fatal(err)
		}
		hinted, err := Run(node(top, true))
		if err != nil {
			t.Fatal(err)
		}
		if len(hinted) != len(want) {
			t.Fatalf("hint %+v: node emitted %d rows, want %d", top, len(hinted), len(want))
		}
		for i := 1; i < len(hinted); i++ {
			if hinted[i-1][2].F >= hinted[i][2].F {
				t.Fatalf("hint %+v: rows not in group order: %v", top, hinted)
			}
		}
		got, err := Run(&TopK{Keys: keys, N: top.N, Input: node(top, true)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hint %+v:\n got %v\nwant %v", top, got, want)
		}
		private, err := Run(node(top, false))
		if err != nil || len(private) != len(groups) {
			t.Fatalf("hint %+v: private evaluation emitted %d rows (%v), want all %d", top, len(private), err, len(groups))
		}
	}
	for _, bad := range []*Top{
		{Cols: []int{3}, Desc: []bool{true}, N: 1},
		{Cols: []int{-1}, Desc: []bool{true}, N: 1},
		{Cols: []int{0, 1}, Desc: []bool{true}, N: 1},
	} {
		if _, err := Run(node(bad, true)); err == nil {
			t.Errorf("malformed hint %+v was accepted", bad)
		}
	}
}

// refWinners is the reference ranking: every group's key values through
// Limit{Sort}, the winners' group indices read back and put in group
// order.
func refWinners(t *testing.T, top *Top, cols []column, n int) ([]int, error) {
	t.Helper()
	rows := make([]types.Row, n)
	for i := range rows {
		row := make(types.Row, len(top.Cols)+1)
		for j, c := range top.Cols {
			row[j] = cols[c].at(i)
		}
		row[len(top.Cols)] = types.Int(int64(i))
		rows[i] = row
	}
	keys := make([]SortKey, len(top.Cols))
	for j := range top.Cols {
		keys[j] = SortKey{Expr: col(j), Desc: top.Desc[j]}
	}
	got, err := sortLimit(rows, keys, top.N)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(got))
	for r, row := range got {
		out[r] = int(row[len(top.Cols)].I)
	}
	sort.Ints(out)
	return out, nil
}

// TestTopRankingMemo: a shared Grouping ranks a top-k hint once. A
// repeat reads the kept winners; a different N, direction, key order or
// key ranks anew; a ranking error is kept; a hint over an unkeyed
// aggregate, or past maxMemoRanks, ranks per call. Over random packed
// columns with NULLs, ties, ±0 and INT/FLOAT mixes the memoized winners
// are those of a fresh ranking and of Limit{Sort}; and two goroutines
// ranking through SGB nodes on one Grouping agree (run under -race).
func TestTopRankingMemo(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	draw := func(n int) column {
		vals := make([]types.Value, n)
		for i := range vals {
			switch v := r.Intn(4); r.Intn(7) {
			case 0:
				vals[i] = types.Null()
			case 1:
				vals[i] = types.Float(math.Copysign(0, -1))
			case 2, 3:
				vals[i] = types.Float(float64(v))
			case 4:
				vals[i] = types.Float(float64(v) + 0.5)
			default:
				vals[i] = types.Int(int64(v))
			}
		}
		c := pack(vals)
		if c.vals != nil {
			t.Fatal("a NULL/INT/FLOAT column did not pack")
		}
		return c
	}
	aggs := []AggSpec{{Key: "a"}, {Key: "b"}, {Key: "c"}, {}}
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(50)
		g := groupingOf(make([]core.Group, n))
		cols := []column{draw(n), draw(n), draw(n), draw(n)}
		for _, top := range []*Top{
			{Cols: []int{0}, Desc: []bool{true}, N: 3},
			{Cols: []int{0}, Desc: []bool{true}, N: 4},           // N
			{Cols: []int{0}, Desc: []bool{false}, N: 3},          // direction
			{Cols: []int{1}, Desc: []bool{true}, N: 3},           // key
			{Cols: []int{0, 1}, Desc: []bool{true, false}, N: 5}, //
			{Cols: []int{1, 0}, Desc: []bool{true, false}, N: 5}, // key order
			{Cols: []int{0, 1}, Desc: []bool{true, true}, N: 5},  // second direction
			{Cols: []int{2, 0, 1}, Desc: []bool{false, true, false}, N: int64(n)},
			{Cols: []int{2}, Desc: []bool{false}, N: 0},
			{Cols: []int{2}, Desc: []bool{true}, N: math.MaxInt64},
		} {
			before := len(g.ranks)
			want, err := refWinners(t, top, cols, n)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := rankTop(top, cols, n)
			if err != nil || !slices.Equal(fresh, want) {
				t.Fatalf("trial %d, hint %+v: fresh ranking %v (%v), Limit{Sort} %v", trial, top, fresh, err, want)
			}
			first, err := g.top(top, aggs, cols)
			if err != nil || !slices.Equal(first, want) {
				t.Fatalf("trial %d, hint %+v: first ranking %v (%v), want %v", trial, top, first, err, want)
			}
			if len(g.ranks) != before+1 {
				t.Fatalf("trial %d, hint %+v: memo went from %d to %d rankings, want a new one", trial, top, before, len(g.ranks))
			}
			again, err := g.top(top, aggs, cols)
			if err != nil || !slices.Equal(again, want) || len(g.ranks) != before+1 ||
				(len(first) > 0 && &again[0] != &first[0]) {
				t.Fatalf("trial %d, hint %+v: repeat ranked anew (%v, %v)", trial, top, again, err)
			}
		}
		// An unkeyed key column ranks per call and is not memoized.
		before := len(g.ranks)
		top := &Top{Cols: []int{3}, Desc: []bool{true}, N: 2}
		want, _ := refWinners(t, top, cols, n)
		for pass := 0; pass < 2; pass++ {
			got, err := g.top(top, aggs, cols)
			if err != nil || !slices.Equal(got, want) || len(g.ranks) != before {
				t.Fatalf("trial %d, unkeyed hint, pass %d: %v (%v), memo %d → %d", trial, pass, got, err, before, len(g.ranks))
			}
		}
	}

	// An error is kept, as a column's is: the second request gets the
	// very error the first one made.
	bad := []column{{vals: []types.Value{types.Int(1), types.Text("x"), types.Int(2)}}}
	g := groupingOf(make([]core.Group, 3))
	top := &Top{Cols: []int{0}, Desc: []bool{false}, N: 1}
	_, err1 := g.top(top, aggs[:1], bad)
	_, err2 := g.top(top, aggs[:1], bad)
	if err1 == nil || err1 != err2 || len(g.ranks) != 1 {
		t.Fatalf("incomparable key kinds: %v, then %v, %d rankings kept", err1, err2, len(g.ranks))
	}

	// The memo stops at its bound; further hints still rank correctly.
	g = groupingOf(make([]core.Group, 20))
	cols := []column{draw(20)}
	for k := int64(1); k <= maxMemoRanks+3; k++ {
		top := &Top{Cols: []int{0}, Desc: []bool{true}, N: k}
		want, _ := refWinners(t, top, cols, 20)
		if got, err := g.top(top, aggs[:1], cols); err != nil || !slices.Equal(got, want) {
			t.Fatalf("LIMIT %d: %v (%v), want %v", k, got, err, want)
		}
	}
	if len(g.ranks) != maxMemoRanks {
		t.Fatalf("memo holds %d rankings, want the bound %d", len(g.ranks), maxMemoRanks)
	}

	// Two goroutines rank through SGB nodes over one shared Grouping,
	// each hint first requested by both at once.
	var rows []types.Row
	var groups []core.Group
	for gi := 0; gi < 60; gi++ {
		var members []int32
		for m, n := 0, 1+r.Intn(3); m < n; m++ {
			members = append(members, int32(len(rows)))
			rows = append(rows, types.Row{types.Float(float64(gi)), types.Int(int64(r.Intn(4)))})
		}
		groups = append(groups, core.Group{Members: members})
	}
	nodeAggs := []AggSpec{
		{Kind: AggCountStar, Key: "count(*)"},
		{Kind: AggMax, Args: []Scalar{col(1)}, Key: "max(b)"},
		{Kind: AggMin, Args: []Scalar{col(0)}, Key: "min(a)"},
	}
	shared := groupingOf(groups)
	hints := []*Top{
		{Cols: []int{0, 2}, Desc: []bool{true, false}, N: 5},
		{Cols: []int{1, 0}, Desc: []bool{false, true}, N: 9},
		{Cols: []int{0}, Desc: []bool{true}, N: 1},
	}
	results := make([][][]types.Row, 2)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for h, top := range hints {
					s := &SGB{Input: &ValuesOp{Rows: rows}, GroupExprs: []Scalar{col(0)}, Any: true,
						Opt: core.Options{Eps: 0.5}, Aggs: nodeAggs, Top: top,
						Answer: func(Snapshot) ([]*Grouping, error) { return []*Grouping{shared}, nil }}
					out, err := Run(s)
					if err != nil {
						t.Error(err)
						return
					}
					if round == 0 {
						results[w] = append(results[w], out)
					} else if !reflect.DeepEqual(out, results[w][h]) {
						t.Errorf("goroutine %d, round %d, hint %+v: answer changed", w, round, top)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("two goroutines on one Grouping ranked differently")
	}
	if len(shared.ranks) != len(hints) {
		t.Fatalf("shared Grouping keeps %d rankings, want %d", len(shared.ranks), len(hints))
	}
}
