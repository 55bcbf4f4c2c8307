package exec

import (
	"math"
	"strconv"
	"sync"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/types"
)

// maxMemoAggs bounds the aggregate columns one Grouping memoizes;
// further aggregates fold privately per query. maxMemoRanks bounds its
// top-k rankings the same way.
const (
	maxMemoAggs  = 32
	maxMemoRanks = 32
)

// Grouping is one immutable set of output groups over a fixed row
// sequence, plus the aggregate columns already folded over it. The
// evaluator cache publishes one per (table generation, ε level) and
// every query of that generation shares it: an aggregate is folded by
// the first query that asks for it — once, in member order, so the
// values are those of a fresh fold — and zipped into output rows by
// all later ones. A top-k ranking over those columns is memoized the
// same way: the first statement of a generation ranks every group, and
// later ones read only the winners.
//
// A Grouping outlives the query that built it, so it is stored
// compactly: member row ids as one flat int32 run (row counts beyond
// 2³¹ do not fit in memory as rows to begin with) and numeric
// aggregate columns at nine bytes a group.
type Grouping struct {
	members []int32 // every group's member row ids, group after group
	ends    []int32 // group i is members[ends[i-1]:ends[i]]

	mu    sync.Mutex // guards cols and ranks (the maps, not their entries)
	cols  map[string]*aggColumn
	ranks map[string]*ranking

	rollupOnce       sync.Once
	largest, grouped int
}

// NewGrouping copies the groups of a similarity evaluation, in order.
func NewGrouping(groups []core.Group) *Grouping {
	n := 0
	for _, grp := range groups {
		n += len(grp.Members)
	}
	g := &Grouping{members: make([]int32, 0, n), ends: make([]int32, len(groups))}
	for i, grp := range groups {
		for _, m := range grp.Members {
			g.members = append(g.members, int32(m))
		}
		g.ends[i] = int32(len(g.members))
	}
	return g
}

// Len returns the number of groups.
func (g *Grouping) Len() int { return len(g.ends) }

// aggColumn is one memoized aggregate column, filled exactly once.
type aggColumn struct {
	once sync.Once
	col  column
	err  error
}

// column is one aggregate value per group, in group order. A column
// of only NULL, INT and FLOAT values — what similarity queries mostly
// select — is packed as a kind byte and eight payload bytes per group
// rather than a 48-byte Value; any other column keeps its Values.
// Memoized columns live as long as their table generation: kept as
// Values they raised the sql_warm benchmark's peak RSS by 12–20 %.
type column struct {
	vals  []types.Value
	kinds []uint8
	nums  []uint64
}

// pack returns the compact form of vals when every value survives the
// round trip exactly, and the boxed column otherwise.
func pack(vals []types.Value) column {
	c := column{kinds: make([]uint8, len(vals)), nums: make([]uint64, len(vals))}
	for i, v := range vals {
		switch v {
		case types.Null():
		case types.Int(v.I):
			c.nums[i] = uint64(v.I)
		case types.Float(v.F):
			c.nums[i] = math.Float64bits(v.F)
		default:
			return column{vals: vals}
		}
		c.kinds[i] = uint8(v.Kind)
	}
	return c
}

// at returns group i's value.
func (c column) at(i int) types.Value {
	if c.vals != nil {
		return c.vals[i]
	}
	switch types.Kind(c.kinds[i]) {
	case types.KindInt:
		return types.Int(int64(c.nums[i]))
	case types.KindFloat:
		return types.Float(math.Float64frombits(c.nums[i]))
	}
	return types.Null()
}

// store writes group i's value into v, a zeroed cell of an output row.
// A packed value is stored by kind — Kind and the one payload field,
// nothing for a NULL — and a boxed one field by field, S only for TEXT.
// Row backings are heap memory, and a whole-Value copy into it copies
// S's string pointer, which runs a write barrier while the collector
// marks. at stays for the top-k heap, whose keys are Values.
func (c *column) store(i int, v *types.Value) {
	if c.vals != nil {
		if x := &c.vals[i]; x.Kind == types.KindText {
			v.Kind, v.S = x.Kind, x.S
		} else {
			v.Kind, v.I, v.F, v.B = x.Kind, x.I, x.F, x.B
		}
		return
	}
	switch types.Kind(c.kinds[i]) {
	case types.KindInt:
		v.Kind, v.I = types.KindInt, int64(c.nums[i])
	case types.KindFloat:
		v.Kind, v.F = types.KindFloat, math.Float64frombits(c.nums[i])
	}
}

// column returns the aggregate's value for every group. Keyed
// aggregates are memoized (concurrent first requests coalesce on the
// column's Once); unkeyed ones, and those beyond maxMemoAggs, fold
// into a private column. The map is only ever looked up by key, so
// output never depends on its iteration order.
func (g *Grouping) column(a AggSpec, in *foldInput, st *core.Stats) (column, error) {
	var c *aggColumn
	if a.Key != "" {
		g.mu.Lock()
		c = g.cols[a.Key]
		if c == nil && len(g.cols) < maxMemoAggs {
			if g.cols == nil {
				g.cols = make(map[string]*aggColumn)
			}
			c = &aggColumn{}
			g.cols[a.Key] = c
		}
		g.mu.Unlock()
	}
	if c == nil {
		return g.foldColumn(a, in, st, false)
	}
	c.once.Do(func() { c.col, c.err = g.foldColumn(a, in, st, true) })
	return c.col, c.err
}

// ranking is one memoized top-k ranking, computed exactly once.
type ranking struct {
	once    sync.Once
	winners []int
	err     error
}

// top returns the groups that rank among t's N first on cols — the
// node's aggregate columns, aggs their specs — in group order. When
// every key column is a keyed aggregate the ranking is a function of
// the keys, the directions and N, as a memoized column is of its key,
// and it is memoized under them: concurrent first requests coalesce on
// the ranking's Once, and a ranking error (incomparable key kinds) is
// kept as a column's is. Other rankings, and those beyond maxMemoRanks,
// are computed per query.
func (g *Grouping) top(t *Top, aggs []AggSpec, cols []column) ([]int, error) {
	var buf [128]byte
	key, keyed := rankKey(buf[:0], t, aggs)
	var r *ranking
	if keyed {
		g.mu.Lock()
		r = g.ranks[string(key)]
		if r == nil && len(g.ranks) < maxMemoRanks {
			if g.ranks == nil {
				g.ranks = make(map[string]*ranking)
			}
			r = &ranking{}
			g.ranks[string(key)] = r
		}
		g.mu.Unlock()
	}
	if r == nil {
		return rankTop(t, cols, g.Len())
	}
	r.once.Do(func() { r.winners, r.err = rankTop(t, cols, g.Len()) })
	return r.winners, r.err
}

// rankKey appends t's memo key to b: N, then per key column its
// direction and its aggregate's key, length-prefixed so that no two
// hints print alike. keyed is false when a key column's aggregate has
// no key.
func rankKey(b []byte, t *Top, aggs []AggSpec) (key []byte, keyed bool) {
	b = strconv.AppendInt(b, t.N, 10)
	for j, c := range t.Cols {
		k := aggs[c].Key
		if k == "" {
			return nil, false
		}
		dir := byte('+')
		if t.Desc[j] {
			dir = '-'
		}
		b = strconv.AppendInt(append(b, dir), int64(len(k)), 10)
		b = append(append(b, ':'), k...)
	}
	return b, true
}

// foldColumn folds one aggregate over every group: with the typed
// kernels when the input admits it (fold.go), through its accumulator
// otherwise. keep says the column will outlive the statement and is
// worth packing.
func (g *Grouping) foldColumn(a AggSpec, in *foldInput, st *core.Stats, keep bool) (column, error) {
	if in.typed(a) {
		c := column{kinds: make([]uint8, len(g.ends)), nums: make([]uint64, len(g.ends))}
		g.foldTyped(a, in, sink{kinds: c.kinds, nums: c.nums})
		if st != nil {
			st.RowsFolded += int64(len(g.members))
		}
		return c, nil
	}
	vals := make([]types.Value, len(g.ends))
	if err := g.fold([]AggSpec{a}, in.rows, st, vals, 1); err != nil {
		return column{}, err
	}
	if keep {
		return pack(vals), nil
	}
	return column{vals: vals}, nil
}

// fold computes the aggregates over every group in one pass, reading
// the member rows in place, and stores group i's values at
// dst[i*stride:][:len(aggs)] — a memoized column (one aggregate, stride
// 1), or straight into the output rows of a query whose grouping
// nobody shares.
func (g *Grouping) fold(aggs []AggSpec, rows []types.Row, st *core.Stats, dst []types.Value, stride int) error {
	accs := make([]accumulator, len(aggs))
	for j, a := range aggs {
		accs[j] = a.newAccumulator()
	}
	start := int32(0)
	for i, end := range g.ends {
		for _, acc := range accs {
			acc.reset()
		}
		for _, m := range g.members[start:end] {
			for _, acc := range accs {
				if err := acc.add(rows[m]); err != nil {
					return err
				}
			}
		}
		for j, acc := range accs {
			dst[i*stride+j] = acc.result()
		}
		start = end
	}
	if st != nil {
		st.RowsFolded += int64(len(aggs)) * int64(len(g.members))
	}
	return nil
}

// rollup returns the SIMILARITY CUBE measures of the grouping: the
// largest group's size and the number of rows in groups of two or
// more.
func (g *Grouping) rollup() (largest, grouped int) {
	g.rollupOnce.Do(func() {
		start := int32(0)
		for _, end := range g.ends {
			n := int(end - start)
			if n > g.largest {
				g.largest = n
			}
			if n >= 2 {
				g.grouped += n
			}
			start = end
		}
	})
	return g.largest, g.grouped
}
