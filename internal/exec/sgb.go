package exec

import (
	"errors"
	"fmt"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/types"
)

// SGB is the executor node for the similarity group-by operators. Like
// the paper's PostgreSQL extension it takes the whole input first (the
// ELIMINATE and FORM-NEW-GROUP semantics can only be finalized "after
// processing the complete dataset"), extracts the grouping attributes
// as multi-dimensional points, runs SGB-All or SGB-Any from
// internal/core, and then folds the configured aggregates over each
// output group — or has the Answer hook supply groups, and whatever
// aggregate columns earlier queries folded, from shared state. Output
// rows carry the aggregate results in spec order.
//
// Opt.Parallelism (threaded down from the planner's SGBParallelism /
// the engine's SET parallelism session setting) bounds the workers
// core splits a one-shot SGB-Any sweep's ε levels across (EpsList; a
// single ε and SGB-All run sequentially); the node's own plumbing
// is oblivious to it, and output rows are bit-identical at every
// setting.
type SGB struct {
	Input Operator
	// GroupExprs are the d grouping-attribute expressions (numeric).
	GroupExprs []Scalar
	// Any selects SGB-Any; otherwise SGB-All.
	Any bool
	// Opt carries metric, ε, overlap clause, algorithm, and seed.
	Opt core.Options
	// Aggs are computed per output group.
	Aggs []AggSpec
	// Answer, when non-nil, is consulted before the input is extracted
	// — the engine's evaluator-cache hook (plan.Builder.SGBAnswer). It
	// returns one Grouping per ε level (one for a single-ε query), or
	// nil to have the node evaluate one-shot over its own snapshot.
	Answer AnswerFunc
	// Group and SweepGroup are the earlier per-shape hooks
	// (plan.Builder.SGBIncr / SGBSweep), kept for the benchmark's traced
	// pass: when set and Answer is not, they compute the single-ε
	// grouping / every sweep level from the fully extracted points.
	Group      GroupFunc
	SweepGroup SweepFunc

	// EpsList, when non-empty, runs an ε sweep instead of a single
	// evaluation (EPS IN (...); SGB-Any only): one evaluation answers
	// every level (core.SweepAnySet one-shot, a cached entry's level
	// forests through Answer), and the node emits each level's aggregate
	// rows with the level's ε prepended as output column 0 (the planner
	// binds aggregates at base 1 and exposes the pseudo-column "eps").
	// Levels are expected in ascending order — the planner sorts them —
	// and rows are emitted level by level in that order.
	EpsList []float64
	// Cube replaces per-group aggregate rows with one rollup row per ε
	// level: (eps, group_count, largest_group, grouped_fraction) — the
	// SIMILARITY CUBE BY EPS output. Aggs must be empty.
	Cube bool
	// Top, when non-nil, is the statement's ORDER BY … LIMIT over
	// aggregate columns of this node (single-ε queries only; column c is
	// Aggs[c]). A shared grouping is then ranked on its memoized columns
	// and only the winning groups become rows; a private one-shot
	// evaluation ignores the hint.
	Top *Top

	out []types.Row
	pos int
}

// Snapshot is what the SGB node hands the Answer hook: the input rows
// (for a table scan, the scan's snapshot itself — captured in O(1), not
// copied), the snapshot generation (-1 when the input is not a table
// scan, in which case cached state has nothing to key on), and a lazy
// extractor, so a hook whose cached state already covers a prefix of
// the rows evaluates the grouping expressions only for the rest — or,
// when a published answer covers them all, not at all.
type Snapshot struct {
	Rows []types.Row
	Gen  int64
	// Dims is the number of grouping attributes.
	Dims int
	// Points evaluates the grouping expressions of Rows[from:] into a
	// flat point set.
	Points func(from int) (*geom.PointSet, error)
}

// AnswerFunc serves a similarity grouping of the snapshot from state
// shared across queries. It returns one Grouping per ε level of the
// query, aligned with SGB.EpsList (exactly one for a single-ε query),
// each equal to a one-shot evaluation over all of src.Rows; or nil
// (and no error) when shared state cannot serve this snapshot and the
// node should evaluate privately.
type AnswerFunc func(src Snapshot) ([]*Grouping, error)

// GroupFunc computes the similarity grouping over the node's
// materialized points (indices in the result refer into the set). gen
// is the snapshot generation, as in Snapshot.Gen.
type GroupFunc func(points *geom.PointSet, gen int64) (*core.Result, error)

// SweepFunc computes the grouping at every ε level of an EPS IN sweep
// over the node's materialized points, aligned with SGB.EpsList.
type SweepFunc func(points *geom.PointSet, gen int64) ([]*core.Result, error)

// Open captures the input, obtains the grouping — from the Answer hook
// when it can serve the snapshot, otherwise by extracting the grouping
// points and running the similarity operator — and emits one aggregate
// row per output group.
func (s *SGB) Open() error {
	s.out = nil
	s.pos = 0
	for _, a := range s.Aggs {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	if len(s.GroupExprs) == 0 {
		return fmt.Errorf("exec: similarity grouping requires at least one grouping attribute")
	}
	if len(s.EpsList) > 0 && !s.Any {
		return fmt.Errorf("exec: EPS IN sweeps exist for DISTANCE-TO-ANY only")
	}
	if t := s.Top; t != nil {
		if len(s.EpsList) > 0 || len(t.Desc) != len(t.Cols) {
			return fmt.Errorf("exec: malformed top-k hint")
		}
		for _, c := range t.Cols {
			if c < 0 || c >= len(s.Aggs) {
				return fmt.Errorf("exec: top-k hint column %d out of range", c)
			}
		}
	}
	rows, gen, err := s.materialize()
	if err != nil {
		return err
	}
	// Taken before the grouping is evaluated, not where it is first
	// used: a sync.Pool is emptied by two collections, and evaluation
	// is where a statement's collections happen.
	in := newFoldInput(rows)
	defer in.release()
	src := Snapshot{Rows: rows, Gen: gen, Dims: len(s.GroupExprs),
		Points: func(from int) (*geom.PointSet, error) { return s.extract(rows, from) }}
	var gs []*Grouping
	if s.Answer != nil {
		if gs, err = s.Answer(src); err != nil {
			return err
		}
	}
	shared := gs != nil
	if !shared {
		if gs, err = s.evaluate(src); err != nil {
			return err
		}
	}
	if shared && s.Top != nil {
		return s.emitTop(gs[0], in)
	}
	return s.emit(gs, in, shared)
}

// materialize opens the input and returns its rows: a table scan's
// snapshot as captured (rows are read in place from then on), any
// other input drained into a tuple store — the ELIMINATE and
// FORM-NEW-GROUP semantics can only be finalized "after processing the
// complete dataset".
func (s *SGB) materialize() ([]types.Row, int64, error) {
	if err := s.Input.Open(); err != nil {
		return nil, -1, err
	}
	defer s.Input.Close()
	if sc, ok := s.Input.(*SeqScan); ok {
		return sc.rows, sc.gen, nil
	}
	var rows []types.Row
	for {
		row, err := s.Input.Next()
		if err != nil {
			return nil, -1, err
		}
		if row == nil {
			return rows, -1, nil
		}
		rows = append(rows, row)
	}
}

// extract evaluates the grouping attributes of rows[from:] straight
// into a flat PointSet — one contiguous buffer with stride d — so the
// operator core never chases per-row coordinate slices.
func (s *SGB) extract(rows []types.Row, from int) (*geom.PointSet, error) {
	points := geom.NewPointSetCap(len(s.GroupExprs), len(rows)-from)
	for r, row := range rows[from:] {
		p := points.Extend()
		for i, g := range s.GroupExprs {
			v, err := g(row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				return nil, fmt.Errorf("exec: NULL similarity grouping attribute in row %d", from+r)
			}
			f, err := v.AsFloat()
			if err != nil {
				return nil, fmt.Errorf("exec: similarity grouping attribute %d: %v", i+1, err)
			}
			p[i] = f
		}
	}
	if st := s.Opt.Stats; st != nil {
		st.PointsExtracted += int64(len(rows) - from)
	}
	return points, nil
}

// evaluate extracts every point and runs the similarity operator
// one-shot (or the per-shape hooks): one private Grouping per level.
func (s *SGB) evaluate(src Snapshot) ([]*Grouping, error) {
	points, err := src.Points(0)
	if err != nil {
		return nil, err
	}
	var results []*core.Result
	if len(s.EpsList) > 0 {
		if s.SweepGroup != nil {
			results, err = s.SweepGroup(points, src.Gen)
		} else {
			results, err = core.SweepAnySet(points, s.EpsList, s.Opt)
		}
		if err == nil && len(results) != len(s.EpsList) {
			err = fmt.Errorf("exec: sweep returned %d levels, want %d", len(results), len(s.EpsList))
		}
	} else {
		var res *core.Result
		switch {
		case s.Group != nil:
			res, err = s.Group(points, src.Gen)
		case s.Any:
			res, err = core.SGBAnySet(points, s.Opt)
		default:
			res, err = core.SGBAllSet(points, s.Opt)
		}
		results = []*core.Result{res}
	}
	if err != nil {
		return nil, err
	}
	gs := make([]*Grouping, len(results))
	for i, res := range results {
		if !adoptable(res) {
			return nil, errors.New("exec: a grouping hook returned a result whose groups are not windows of its member run (built outside core)")
		}
		gs[i] = NewGrouping(res)
	}
	return gs, nil
}

// adoptable reports whether res's groups are, in order, the windows of
// its layout: true of every core result, not of one built by hand.
func adoptable(res *core.Result) bool {
	members, ends := res.Layout()
	if len(ends) != len(res.Groups) {
		return false
	}
	start := int32(0)
	for i, g := range res.Groups {
		if len(g.Members) != int(ends[i]-start) || len(g.Members) > 0 && &g.Members[0] != &members[start] {
			return false
		}
		start = ends[i]
	}
	return true
}

// emit produces the output rows level by level: under Cube one
// (eps, group_count, largest_group, grouped_fraction) rollup row per
// level; otherwise one row per group (ε prepended in a sweep), all in
// a single flat backing array. Shared groupings have their memoized
// aggregate columns zipped into the rows; the private groupings of a
// one-shot evaluation, which no later query can reuse, fold straight
// into them — a column at a time through the typed kernels when every
// aggregate admits them (fold.go), in one accumulator pass otherwise.
func (s *SGB) emit(gs []*Grouping, in *foldInput, shared bool) error {
	if s.Cube {
		for li, g := range gs {
			largest, grouped := g.rollup()
			frac := 0.0
			if n := len(in.rows); n > 0 {
				frac = float64(grouped) / float64(n)
			}
			s.out = append(s.out, types.Row{
				types.Float(s.EpsList[li]),
				types.Int(int64(g.Len())),
				types.Int(int64(largest)),
				types.Float(frac),
			})
		}
		return nil
	}
	base := 0 // output column of the first aggregate
	if len(s.EpsList) > 0 {
		base = 1
	}
	width, total := base+len(s.Aggs), 0
	for _, g := range gs {
		total += g.Len()
	}
	backing := make([]types.Value, total*width)
	s.out = make([]types.Row, 0, total)
	cols := make([]column, len(s.Aggs))
	typed := !shared && in.typedAll(s.Aggs)
	for li, g := range gs {
		switch {
		case shared:
			for j, a := range s.Aggs {
				var err error
				if cols[j], err = g.column(a, in, s.Opt.Stats); err != nil {
					return err
				}
			}
		case g.Len() == 0: // backing[base:] needs a row to exist
		case typed:
			for j, a := range s.Aggs {
				g.foldTyped(a, in, sink{vals: backing[base+j:], stride: width})
			}
			if st := s.Opt.Stats; st != nil {
				st.RowsFolded += int64(len(s.Aggs)) * int64(len(g.members))
			}
		default:
			if err := g.fold(s.Aggs, in.rows, s.Opt.Stats, backing[base:], width); err != nil {
				return err
			}
		}
		for i, n := 0, g.Len(); i < n; i++ {
			row := backing[:width:width]
			backing = backing[width:]
			if base == 1 {
				row[0].Kind, row[0].F = types.KindFloat, s.EpsList[li]
			}
			if shared {
				for j := range cols {
					cols[j].store(i, &row[base+j])
				}
			}
			s.out = append(s.out, row)
		}
	}
	return nil
}

// emitTop is emit for a shared grouping under the Top hint: the groups
// are ranked on their memoized key columns (Grouping.top: once per
// generation and hint) and only the winners become rows, in group
// order — a superset of the statement's answer in the order TopK above
// would have met them anyway. It is a function of its own so that emit,
// which every statement without the hint runs, stays as it was.
func (s *SGB) emitTop(g *Grouping, in *foldInput) error {
	cols := make([]column, len(s.Aggs))
	for j, a := range s.Aggs {
		var err error
		if cols[j], err = g.column(a, in, s.Opt.Stats); err != nil {
			return err
		}
	}
	winners, err := g.top(s.Top, s.Aggs, cols)
	if err != nil {
		return err
	}
	width := len(s.Aggs)
	backing := make([]types.Value, len(winners)*width)
	s.out = make([]types.Row, len(winners))
	for r, i := range winners {
		row := backing[r*width:][:width:width]
		for j := range cols {
			cols[j].store(i, &row[j])
		}
		s.out[r] = row
	}
	return nil
}

// rankTop ranks n groups on t's key columns by the heap TopK uses,
// group index breaking ties, and returns the winners in group order.
func rankTop(t *Top, cols []column, n int) ([]int, error) {
	h := newTopHeap(t.Desc, t.N)
	for i := 0; i < n; i++ {
		for j, c := range t.Cols {
			h.cand[j] = cols[c].at(i)
		}
		if _, err := h.offer(i); err != nil {
			return nil, err
		}
	}
	return h.arrivals(), nil
}

// Next emits one aggregate row per output group, in group order.
func (s *SGB) Next() (types.Row, error) {
	if s.pos >= len(s.out) {
		return nil, nil
	}
	row := s.out[s.pos]
	s.pos++
	return row, nil
}

// Close releases the materialized output.
func (s *SGB) Close() error { s.out = nil; return nil }
