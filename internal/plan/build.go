package plan

import (
	"fmt"
	"sort"
	"strings"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

// CompiledQuery is an executable query with its output column names.
type CompiledQuery struct {
	Root    exec.Operator
	Columns []string
}

// Builder compiles SELECT statements against a catalog.
type Builder struct {
	Catalog *storage.Catalog
	// SGBAlgorithm selects the evaluation strategy for similarity
	// group-by nodes. The planner default is GridIndex — the fastest
	// strategy at every dimensionality now that cell keys are hashed —
	// and benchmarks override it to compare All-Pairs, Bounds-Checking,
	// and the R-tree.
	SGBAlgorithm core.Algorithm
	// SGBParallelism bounds the workers a one-shot DISTANCE-TO-ANY
	// EPS IN or cube splits its ε levels across: 0 (the planner default)
	// lets the operator pick GOMAXPROCS workers on large inputs, 1
	// forces sequential evaluation, ≥ 2 allows that many workers. A
	// single ε and DISTANCE-TO-ALL nodes carry it and evaluate
	// sequentially.
	SGBParallelism int
	// SGBSeed seeds JOIN-ANY arbitration.
	SGBSeed int64
	// SGBStats, when non-nil, accumulates operator statistics.
	SGBStats *core.Stats
	// SGBAnswer, when non-nil, is consulted for similarity group-by
	// queries whose input is a bare single-table scan (one base table,
	// no WHERE, no join, no subquery among the grouping expressions): it
	// may return an AnswerFunc serving the grouping from state
	// maintained across queries — the engine's evaluator cache. The
	// shape restriction is what makes caching sound: only then is the
	// extracted point sequence a prefix-stable, append-only image of the
	// table and nothing else. exprKey fingerprints the grouping
	// expressions; epsList is nil for a single-ε query and otherwise
	// arrives validated and ascending; opt is the fully resolved
	// operator configuration (opt.Eps the sweep's maximum).
	SGBAnswer func(table, exprKey string, anySem bool, epsList []float64, opt core.Options) exec.AnswerFunc
	// SGBIncr and SGBSweep are the earlier per-shape hooks SGBAnswer
	// replaced — computing the single-ε grouping / every level of an
	// EPS IN sweep from the fully extracted points. The engine no longer
	// installs them; the benchmark's traced pass still does, and they
	// apply to the same shape when SGBAnswer is nil.
	SGBIncr  func(table, exprKey string, anySem bool, opt core.Options) exec.GroupFunc
	SGBSweep func(table, exprKey string, epsList []float64, opt core.Options) exec.SweepFunc
}

// NewBuilder returns a Builder with the default (ε-grid) SGB strategy.
func NewBuilder(cat *storage.Catalog) *Builder {
	return &Builder{Catalog: cat, SGBAlgorithm: core.GridIndex}
}

// CompileTableExpr compiles an expression against a base table's row
// layout — the DELETE ... WHERE evaluation path, where the predicate
// runs row by row against the stored tuples rather than through an
// operator tree. Subqueries (WHERE id IN (SELECT ...)) plan against
// the builder's catalog as usual.
func (b *Builder) CompileTableExpr(t *storage.Table, e sqlparser.Expr) (exec.Scalar, error) {
	env := make(Env, len(t.Schema))
	for i, c := range t.Schema {
		env[i] = Column{Qual: t.Name, Name: c.Name}
	}
	return compileScalar(e, env, b)
}

// BuildSelect compiles a SELECT into an operator tree.
func (b *Builder) BuildSelect(sel *sqlparser.SelectStmt) (*CompiledQuery, error) {
	op, env, err := b.planSelect(sel)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(env))
	for i, c := range env {
		cols[i] = c.Name
	}
	return &CompiledQuery{Root: op, Columns: cols}, nil
}

// planSubquery implements subqueryPlanner.
func (b *Builder) planSubquery(sel *sqlparser.SelectStmt) (exec.Operator, Env, error) {
	return b.planSelect(sel)
}

// plannedInput is one FROM item: its operator, column layout, and a
// row-count estimate (-1 when unknown) used to pick hash-join build
// sides.
type plannedInput struct {
	op  exec.Operator
	env Env
	est int
}

func (b *Builder) planSelect(sel *sqlparser.SelectStmt) (exec.Operator, Env, error) {
	// FROM clause.
	var conjuncts []sqlparser.Expr
	if sel.Where != nil {
		conjuncts = splitConjuncts(sel.Where)
	}
	var current plannedInput
	switch {
	case len(sel.From) == 0:
		current = plannedInput{op: &exec.ValuesOp{Rows: []types.Row{{}}}, est: 1}
	default:
		inputs := make([]plannedInput, len(sel.From))
		for i, ref := range sel.From {
			in, err := b.planTableRef(ref)
			if err != nil {
				return nil, nil, err
			}
			inputs[i] = in
		}
		// Predicate pushdown: single-input conjuncts filter before joins.
		for i := range inputs {
			inputs[i], conjuncts = b.pushFilters(inputs[i], conjuncts)
		}
		// Left-deep join folding in FROM order.
		current = inputs[0]
		for _, next := range inputs[1:] {
			joined, rest, err := b.join(current, next, conjuncts)
			if err != nil {
				return nil, nil, err
			}
			current, conjuncts = joined, rest
		}
	}
	// Residual WHERE conjuncts (e.g. IN subqueries, cross-input
	// non-equi predicates).
	for _, cj := range conjuncts {
		pred, err := compileScalar(cj, current.env, b)
		if err != nil {
			return nil, nil, err
		}
		current.op = &exec.Filter{Input: current.op, Pred: pred}
	}

	// Grouping and projection.
	hasAggs := sel.Having != nil && containsAggregate(sel.Having)
	for _, item := range sel.Items {
		if !item.Star && containsAggregate(item.Expr) {
			hasAggs = true
		}
	}
	var (
		op     exec.Operator
		outEnv Env
		err    error
	)
	switch {
	case sel.GroupBy != nil && sel.GroupBy.Similarity != nil:
		op, outEnv, err = b.planSimilarityGroupBy(sel, current)
	case sel.GroupBy != nil || hasAggs:
		op, outEnv, err = b.planGroupBy(sel, current)
	default:
		if sel.Having != nil {
			return nil, nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
		}
		op, outEnv, err = b.planProjection(sel, current)
	}
	if err != nil {
		return nil, nil, err
	}

	if sel.Distinct {
		op = &exec.Distinct{Input: op}
	}
	switch {
	case len(sel.OrderBy) > 0:
		ob := newOrderBinder(b, sel, outEnv)
		keys := make([]exec.SortKey, len(sel.OrderBy))
		cols := make([]int, len(sel.OrderBy))
		for i, item := range sel.OrderBy {
			s, col, err := ob.compile(item.Expr)
			if err != nil {
				return nil, nil, err
			}
			keys[i] = exec.SortKey{Expr: s, Desc: item.Desc}
			cols[i] = col
		}
		if sel.Limit == nil {
			op = &exec.Sort{Input: op, Keys: keys}
			break
		}
		ob.pushTop(op, sel, cols)
		op = &exec.TopK{Input: op, Keys: keys, N: *sel.Limit}
	case sel.Limit != nil:
		op = &exec.Limit{Input: op, N: *sel.Limit}
	}
	return op, outEnv, nil
}

// orderBinder resolves ORDER BY keys against a block's output row.
type orderBinder struct {
	b      *Builder
	outEnv Env
	// printed is each output column's select item as the aggBinder would
	// key it — printed and lower-cased — or "" where that form does not
	// determine the item's value (rowPure) or the column came from a *.
	printed []string
}

func newOrderBinder(b *Builder, sel *sqlparser.SelectStmt, outEnv Env) *orderBinder {
	ob := &orderBinder{b: b, outEnv: outEnv, printed: make([]string, len(outEnv))}
	stars := 0
	for _, item := range sel.Items {
		if item.Star {
			stars++
		}
	}
	starWidth := 0
	if stars > 0 {
		starWidth = (len(outEnv) - (len(sel.Items) - stars)) / stars
	}
	col := 0
	for _, item := range sel.Items {
		if item.Star {
			col += starWidth
			continue
		}
		if rowPure(item.Expr) {
			ob.printed[col] = strings.ToLower(item.Expr.String())
		}
		col++
	}
	return ob
}

// column returns the output column e denotes — by output name or alias
// first, as a bare name always has, then as a select item spelled out
// again (ORDER BY count(*)), matched the way the aggBinder matches
// aggregate calls, so max(a + 0) does not name max(a + 0.0) — or -1.
func (ob *orderBinder) column(e sqlparser.Expr) int {
	if ref, ok := e.(*sqlparser.ColumnRef); ok && ref.Table == "" {
		if idx, err := ob.outEnv.resolve(ref); err == nil {
			return idx
		}
	}
	if !rowPure(e) {
		return -1
	}
	printed := strings.ToLower(e.String())
	for col, p := range ob.printed {
		if p == printed {
			return col
		}
	}
	return -1
}

// compile compiles one ORDER BY key over the output row: an ordinal
// (ORDER BY 2), an output column (see column), or an expression over
// output columns (ORDER BY count(*) + 1). It also returns the output
// column when the key is exactly one, else -1.
func (ob *orderBinder) compile(e sqlparser.Expr) (exec.Scalar, int, error) {
	if lit, ok := e.(*sqlparser.Literal); ok && lit.Val.Kind == types.KindInt {
		idx := int(lit.Val.I) - 1
		if idx < 0 || idx >= len(ob.outEnv) {
			return nil, -1, fmt.Errorf("plan: ORDER BY position %d out of range", lit.Val.I)
		}
		return func(row types.Row) (types.Value, error) { return row[idx], nil }, idx, nil
	}
	c := &compiler{env: ob.outEnv, sp: ob.b, hook: func(e sqlparser.Expr) (exec.Scalar, bool, error) {
		if idx := ob.column(e); idx >= 0 {
			return func(row types.Row) (types.Value, error) { return row[idx], nil }, true, nil
		}
		if fc, ok := e.(*sqlparser.FuncCall); ok {
			if _, isAgg := exec.ParseAggKind(fc.Name); isAgg {
				return nil, false, fmt.Errorf("plan: ORDER BY %s: an aggregate in ORDER BY must also be a select item", fc)
			}
		}
		return nil, false, nil
	}}
	s, err := c.compile(e)
	return s, ob.column(e), err
}

// pushTop offers a block's ORDER BY … LIMIT to its similarity node when
// the node can answer it from its own columns: a single-ε similarity
// GROUP BY directly under the projection — HAVING would put a Filter
// between them and DISTINCT wraps the projection, and either may drop
// rows of the node's k — whose every key (cols, as compile returns
// them) is an output column whose select item is a bare aggregate: it
// prints as the key the aggBinder gave one of the node's aggregates.
func (ob *orderBinder) pushTop(op exec.Operator, sel *sqlparser.SelectStmt, cols []int) {
	proj, ok := op.(*exec.Project)
	if !ok {
		return
	}
	node, ok := proj.Input.(*exec.SGB)
	if !ok || len(node.EpsList) > 0 {
		return
	}
	top := &exec.Top{N: *sel.Limit}
	for i, c := range cols {
		agg := -1
		if c >= 0 && ob.printed[c] != "" {
			for j, a := range node.Aggs {
				if a.Key == ob.printed[c] {
					agg = j
					break
				}
			}
		}
		if agg < 0 {
			return
		}
		top.Cols = append(top.Cols, agg)
		top.Desc = append(top.Desc, sel.OrderBy[i].Desc)
	}
	node.Top = top
}

func (b *Builder) planTableRef(ref sqlparser.TableRef) (plannedInput, error) {
	switch r := ref.(type) {
	case *sqlparser.BaseTable:
		t, err := b.Catalog.Lookup(r.Name)
		if err != nil {
			return plannedInput{}, err
		}
		qual := r.Name
		if r.Alias != "" {
			qual = r.Alias
		}
		env := make(Env, len(t.Schema))
		for i, c := range t.Schema {
			env[i] = Column{Qual: qual, Name: c.Name}
		}
		return plannedInput{op: &exec.SeqScan{Table: t}, env: env, est: t.Len()}, nil

	case *sqlparser.SubqueryTable:
		op, env, err := b.planSelect(r.Select)
		if err != nil {
			return plannedInput{}, err
		}
		requal := make(Env, len(env))
		for i, c := range env {
			requal[i] = Column{Qual: r.Alias, Name: c.Name}
		}
		return plannedInput{op: op, env: requal, est: -1}, nil

	case *sqlparser.JoinTable:
		left, err := b.planTableRef(r.Left)
		if err != nil {
			return plannedInput{}, err
		}
		right, err := b.planTableRef(r.Right)
		if err != nil {
			return plannedInput{}, err
		}
		joined, rest, err := b.join(left, right, splitConjuncts(r.Cond))
		if err != nil {
			return plannedInput{}, err
		}
		// ON-clause conjuncts must all apply within this join.
		for _, cj := range rest {
			pred, err := compileScalar(cj, joined.env, b)
			if err != nil {
				return plannedInput{}, err
			}
			joined.op = &exec.Filter{Input: joined.op, Pred: pred}
		}
		return joined, nil

	default:
		return plannedInput{}, fmt.Errorf("plan: unsupported table reference %T", ref)
	}
}

// pushFilters attaches every conjunct that references only this input
// as a pre-join filter, returning the remaining conjuncts.
func (b *Builder) pushFilters(in plannedInput, conjuncts []sqlparser.Expr) (plannedInput, []sqlparser.Expr) {
	var rest []sqlparser.Expr
	for _, cj := range conjuncts {
		if pred, err := compileScalar(cj, in.env, b); err == nil {
			in.op = &exec.Filter{Input: in.op, Pred: pred}
		} else {
			rest = append(rest, cj)
		}
	}
	return in, rest
}

// join combines two inputs: conjuncts of the form left.x = right.y
// become hash-join keys; other conjuncts that reference only the
// combined row become residual predicates; the rest are returned for
// later placement. Without equi keys the join degrades to a nested
// loop. The smaller estimated side becomes the hash build side.
func (b *Builder) join(l, r plannedInput, conjuncts []sqlparser.Expr) (plannedInput, []sqlparser.Expr, error) {
	// Pick the build side (hash table) — smaller estimate, defaulting
	// to the left input. Output layout is build ++ probe.
	build, probe := l, r
	if l.est < 0 || (r.est >= 0 && r.est < l.est) {
		build, probe = r, l
	}
	env := append(append(Env{}, build.env...), probe.env...)

	var buildKeys, probeKeys []exec.Scalar
	var residuals []exec.Scalar
	var rest []sqlparser.Expr
	for _, cj := range conjuncts {
		if bk, pk, ok := b.equiKeys(cj, build.env, probe.env); ok {
			buildKeys = append(buildKeys, bk)
			probeKeys = append(probeKeys, pk)
			continue
		}
		if pred, err := compileScalar(cj, env, b); err == nil {
			residuals = append(residuals, pred)
			continue
		}
		rest = append(rest, cj)
	}

	est := -1
	if build.est >= 0 && probe.est >= 0 {
		est = max(build.est, probe.est)
	}
	if len(buildKeys) > 0 {
		residual := andAll(residuals)
		op := &exec.HashJoin{
			Left: build.op, Right: probe.op,
			LeftKeys: buildKeys, RightKeys: probeKeys,
			Residual: residual,
		}
		return plannedInput{op: op, env: env, est: est}, rest, nil
	}
	op := &exec.NestedLoopJoin{Left: build.op, Right: probe.op, Cond: andAll(residuals)}
	return plannedInput{op: op, env: env, est: est}, rest, nil
}

// equiKeys recognizes `a = b` with one side referencing only the build
// env and the other only the probe env.
func (b *Builder) equiKeys(cj sqlparser.Expr, buildEnv, probeEnv Env) (bk, pk exec.Scalar, ok bool) {
	eq, isEq := cj.(*sqlparser.BinaryExpr)
	if !isEq || eq.Op != "=" {
		return nil, nil, false
	}
	lOnBuild, el1 := compileScalar(eq.L, buildEnv, b)
	rOnProbe, er1 := compileScalar(eq.R, probeEnv, b)
	if el1 == nil && er1 == nil {
		return lOnBuild, rOnProbe, true
	}
	lOnProbe, el2 := compileScalar(eq.L, probeEnv, b)
	rOnBuild, er2 := compileScalar(eq.R, buildEnv, b)
	if el2 == nil && er2 == nil {
		return rOnBuild, lOnProbe, true
	}
	return nil, nil, false
}

// andAll folds predicates into a single conjunction (nil when empty).
func andAll(preds []exec.Scalar) exec.Scalar {
	if len(preds) == 0 {
		return nil
	}
	if len(preds) == 1 {
		return preds[0]
	}
	return func(row types.Row) (types.Value, error) {
		for _, p := range preds {
			v, err := p(row)
			if err != nil {
				return types.Value{}, err
			}
			if !v.Truthy() {
				return types.Bool(false), nil
			}
		}
		return types.Bool(true), nil
	}
}

// planProjection handles SELECT without grouping or aggregation.
func (b *Builder) planProjection(sel *sqlparser.SelectStmt, in plannedInput) (exec.Operator, Env, error) {
	var exprs []exec.Scalar
	var outEnv Env
	for i, item := range sel.Items {
		if item.Star {
			for j, c := range in.env {
				idx := j
				exprs = append(exprs, func(row types.Row) (types.Value, error) { return row[idx], nil })
				outEnv = append(outEnv, Column{Name: c.Name})
			}
			continue
		}
		s, err := compileScalar(item.Expr, in.env, b)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, s)
		outEnv = append(outEnv, Column{Name: outputName(item, i)})
	}
	return &exec.Project{Input: in.op, Exprs: exprs}, outEnv, nil
}

// planGroupBy handles standard GROUP BY and scalar aggregation.
func (b *Builder) planGroupBy(sel *sqlparser.SelectStmt, in plannedInput) (exec.Operator, Env, error) {
	var groupExprs []sqlparser.Expr
	if sel.GroupBy != nil {
		groupExprs = sel.GroupBy.Exprs
	}
	groups := make([]exec.Scalar, len(groupExprs))
	groupKeys := make([]string, len(groupExprs))
	for i, ge := range groupExprs {
		s, err := compileScalar(ge, in.env, b)
		if err != nil {
			return nil, nil, err
		}
		groups[i] = s
		groupKeys[i] = ge.String()
	}

	binder := &aggBinder{baseEnv: in.env, sp: b, groupKeys: groupKeys, aggBase: len(groupExprs)}
	return b.planAggregation(sel, binder, func(aggs []exec.AggSpec) exec.Operator {
		return &exec.HashAgg{Input: in.op, Groups: groups, Aggs: aggs}
	})
}

// planAggregation is the tail every grouping block shares: it compiles
// the select items and HAVING through binder, has node build the
// grouping operator over the aggregates they bound, and stacks HAVING's
// Filter and the projection on it. The projection is marked Identity
// when the select list spells out the node's output row as it stands
// (aggBinder.identity), so the node's rows are built once and passed
// through.
func (b *Builder) planAggregation(sel *sqlparser.SelectStmt, binder *aggBinder, node func([]exec.AggSpec) exec.Operator) (exec.Operator, Env, error) {
	selScalars, outEnv, err := b.compileSelectItems(sel, binder)
	if err != nil {
		return nil, nil, err
	}
	var havingPred exec.Scalar
	if sel.Having != nil {
		havingPred, err = binder.compile(sel.Having)
		if err != nil {
			return nil, nil, err
		}
	}
	op := node(binder.aggs)
	if havingPred != nil {
		op = &exec.Filter{Input: op, Pred: havingPred}
	}
	return &exec.Project{Input: op, Exprs: selScalars, Identity: binder.identity(len(selScalars))}, outEnv, nil
}

// planSimilarityGroupBy builds the SGB-All / SGB-Any node of every
// similarity clause — WITHIN ε, EPS IN (...) and SIMILARITY CUBE BY
// EPS — under GROUP BY's aggregation tail. The node exposes no grouping
// column, so every select item and HAVING is built from aggregates. An
// EPS IN list is answered from one evaluation (level forests, one-shot
// or kept by a cached entry) and emitted level by level in ascending ε,
// the level's ε riding along as output column 0: the pseudo-column
// "eps" of the select list and HAVING. The cube emits its own rollup
// row instead and must be SELECT *.
func (b *Builder) planSimilarityGroupBy(sel *sqlparser.SelectStmt, in plannedInput) (exec.Operator, Env, error) {
	gb := sel.GroupBy
	sim := gb.Similarity

	groupExprs := make([]exec.Scalar, len(gb.Exprs))
	groupCols := make([]int, len(gb.Exprs))
	for i, ge := range gb.Exprs {
		s, err := compileScalar(ge, in.env, b)
		if err != nil {
			return nil, nil, err
		}
		groupExprs[i] = s
		if ref, ok := ge.(*sqlparser.ColumnRef); ok {
			idx, _ := in.env.resolve(ref) // compileScalar has just resolved it
			groupCols[i] = idx + 1
		}
	}

	opt := core.Options{
		Algorithm:   b.SGBAlgorithm,
		Parallelism: b.SGBParallelism,
		Seed:        b.SGBSeed,
		Stats:       b.SGBStats,
	}
	switch sim.Metric {
	case sqlparser.MetricL2:
		opt.Metric = geom.L2
	case sqlparser.MetricLInf:
		opt.Metric = geom.LInf
	}
	switch sim.Overlap {
	case sqlparser.OverlapJoinAny:
		opt.Overlap = core.JoinAny
	case sqlparser.OverlapEliminate:
		opt.Overlap = core.Eliminate
	case sqlparser.OverlapFormNewGroup:
		opt.Overlap = core.FormNewGroup
	}
	if sim.Semantics == sqlparser.SemanticsAny && opt.Algorithm == core.BoundsCheck {
		// SGB-Any has no bounds-checking variant (Section 7.1).
		opt.Algorithm = core.OnTheFlyIndex
	}

	// The ε levels: WITHIN's one positive numeric constant, or EPS IN's
	// list (the parser admits it under DISTANCE-TO-ANY only), whose
	// maximum is the evaluation's ε.
	var epsList []float64
	if len(sim.EpsList) == 0 {
		s, err := compileScalar(sim.Eps, nil, b)
		if err != nil {
			return nil, nil, fmt.Errorf("plan: WITHIN threshold must be a constant: %v", err)
		}
		v, err := s(nil)
		if err != nil {
			return nil, nil, err
		}
		if opt.Eps, err = v.AsFloat(); err != nil || opt.Eps <= 0 {
			return nil, nil, fmt.Errorf("plan: WITHIN threshold must be a positive number, got %v", v)
		}
	} else {
		epsList = make([]float64, len(sim.EpsList))
		for i, e := range sim.EpsList {
			s, err := compileScalar(e, nil, b)
			if err != nil {
				return nil, nil, fmt.Errorf("plan: EPS IN level %d must be a constant: %v", i+1, err)
			}
			v, err := s(nil)
			if err != nil {
				return nil, nil, err
			}
			if epsList[i], err = v.AsFloat(); err != nil {
				return nil, nil, fmt.Errorf("plan: EPS IN level %d must be numeric, got %v", i+1, v)
			}
		}
		// Named validation errors shared with the Go API: non-positive,
		// duplicate (checked before sorting so the message reflects the
		// query's spelling).
		if err := core.ValidateEpsList(epsList); err != nil {
			return nil, nil, err
		}
		sort.Float64s(epsList)
		opt.Eps = epsList[len(epsList)-1]
	}

	node := &exec.SGB{
		Input:      in.op,
		GroupExprs: groupExprs,
		GroupCols:  groupCols,
		Any:        sim.Semantics == sqlparser.SemanticsAny,
		Opt:        opt,
		EpsList:    epsList,
		Cube:       sim.Cube,
	}
	if sim.Cube {
		if len(sel.Items) != 1 || !sel.Items[0].Star {
			return nil, nil, fmt.Errorf("plan: SIMILARITY CUBE BY EPS requires SELECT * (the cube emits its own schema: eps, group_count, largest_group, grouped_fraction)")
		}
		if sel.Having != nil {
			return nil, nil, fmt.Errorf("plan: HAVING is not supported with SIMILARITY CUBE BY EPS")
		}
		b.installCacheHook(node, sel)
		// Reading the rollup row's four columns in order is its identity.
		var cols []exec.Scalar
		var outEnv Env
		for i, name := range []string{"eps", "group_count", "largest_group", "grouped_fraction"} {
			idx := i // go 1.21 loop variables: one i for every closure
			cols = append(cols, func(row types.Row) (types.Value, error) { return row[idx], nil })
			outEnv = append(outEnv, Column{Name: name})
		}
		return &exec.Project{Input: node, Exprs: cols, Identity: true}, outEnv, nil
	}
	binder := &aggBinder{baseEnv: in.env, sp: b}
	if epsList != nil {
		// A sweep's row is [eps, agg₀ … agg_{M-1}]: "SELECT eps,
		// count(*), …" in that order passes it through.
		binder.groupKeys, binder.aggBase = []string{"eps"}, 1
	}
	return b.planAggregation(sel, binder, func(aggs []exec.AggSpec) exec.Operator {
		node.Aggs = aggs
		b.installCacheHook(node, sel)
		return node
	})
}

// installCacheHook wires the engine's evaluator-cache hook into a
// similarity node over the cacheable shape: a bare scan of one base
// table with no filtering, so the operator's input is exactly the
// table's rows in insertion order and a later query's input extends an
// earlier one's purely by appending. Grouping expressions must be pure
// functions of the row — a subquery reads other tables, whose changes
// no key of this table's cached state would notice.
func (b *Builder) installCacheHook(node *exec.SGB, sel *sqlparser.SelectStmt) {
	if sel.Where != nil || len(sel.From) != 1 {
		return
	}
	bt, ok := sel.From[0].(*sqlparser.BaseTable)
	if !ok {
		return
	}
	keys := make([]string, len(sel.GroupBy.Exprs))
	for i, ge := range sel.GroupBy.Exprs {
		if !rowPure(ge) {
			return
		}
		keys[i] = ge.String()
	}
	exprKey := strings.Join(keys, ",")
	switch sweep := len(node.EpsList) > 0; {
	case b.SGBAnswer != nil:
		node.Answer = b.SGBAnswer(bt.Name, exprKey, node.Any, node.EpsList, node.Opt)
	case sweep && b.SGBSweep != nil:
		node.SweepGroup = b.SGBSweep(bt.Name, exprKey, node.EpsList, node.Opt)
	case !sweep && b.SGBIncr != nil:
		node.Group = b.SGBIncr(bt.Name, exprKey, node.Any, node.Opt)
	}
}

// compileSelectItems compiles the projection through the agg binder.
func (b *Builder) compileSelectItems(sel *sqlparser.SelectStmt, binder *aggBinder) ([]exec.Scalar, Env, error) {
	var scalars []exec.Scalar
	var outEnv Env
	for i, item := range sel.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("plan: SELECT * is incompatible with grouping/aggregation")
		}
		s, err := binder.compile(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		if binder.bound != item.Expr || binder.slot != i {
			binder.reorders = true
		}
		scalars = append(scalars, s)
		outEnv = append(outEnv, Column{Name: outputName(item, i)})
	}
	return scalars, outEnv, nil
}

// outputName derives the result column name for a select item.
func outputName(item sqlparser.SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparser.ColumnRef:
		return e.Name
	case *sqlparser.FuncCall:
		return e.Name
	default:
		return fmt.Sprintf("col%d", i+1)
	}
}
