package plan

import (
	"fmt"
	"math"
	"strings"

	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/types"
)

// Column identifies one column of an intermediate row: an optional
// qualifier (table name or alias) and the column name.
type Column struct {
	Qual string
	Name string
}

// Env is the ordered column layout of an operator's output rows.
type Env []Column

// resolve finds the row index for a (possibly qualified) reference.
func (e Env) resolve(ref *sqlparser.ColumnRef) (int, error) {
	found := -1
	for i, c := range e {
		if !strings.EqualFold(c.Name, ref.Name) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Qual, ref.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("plan: ambiguous column reference %q", ref.String())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %q", ref.String())
	}
	return found, nil
}

// subqueryPlanner plans nested SELECTs (for IN subqueries).
type subqueryPlanner interface {
	planSubquery(sel *sqlparser.SelectStmt) (exec.Operator, Env, error)
}

// compiler turns AST expressions into exec.Scalar closures. The
// optional hook intercepts nodes before structural compilation; the
// aggregate binder uses it to rewrite aggregate calls and grouping
// expressions into references to the aggregation output row.
type compiler struct {
	env  Env
	sp   subqueryPlanner
	hook func(e sqlparser.Expr) (exec.Scalar, bool, error)
}

// compileScalar compiles an expression against env. Aggregate function
// calls are rejected; grouped queries compile through the agg binder.
func compileScalar(e sqlparser.Expr, env Env, sp subqueryPlanner) (exec.Scalar, error) {
	return (&compiler{env: env, sp: sp}).compile(e)
}

func (c *compiler) compile(e sqlparser.Expr) (exec.Scalar, error) {
	if c.hook != nil {
		if s, ok, err := c.hook(e); err != nil {
			return nil, err
		} else if ok {
			return s, nil
		}
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		v := x.Val
		return func(types.Row) (types.Value, error) { return v, nil }, nil

	case *sqlparser.ColumnRef:
		idx, err := c.env.resolve(x)
		if err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) { return row[idx], nil }, nil

	case *sqlparser.UnaryExpr:
		inner, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return func(row types.Row) (types.Value, error) {
				v, err := inner(row)
				if err != nil {
					return types.Value{}, err
				}
				return types.Arithmetic('-', types.Int(0), v)
			}, nil
		case "NOT":
			return func(row types.Row) (types.Value, error) {
				v, err := inner(row)
				if err != nil {
					return types.Value{}, err
				}
				if v.IsNull() {
					return types.Null(), nil
				}
				return types.Bool(!v.Truthy()), nil
			}, nil
		default:
			return nil, fmt.Errorf("plan: unknown unary operator %q", x.Op)
		}

	case *sqlparser.BinaryExpr:
		return c.compileBinary(x)

	case *sqlparser.BetweenExpr:
		ev, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		// x BETWEEN lo AND hi is x >= lo AND x <= hi, NULLs included;
		// NOT BETWEEN negates it, and the negation of NULL is NULL.
		return func(row types.Row) (types.Value, error) {
			v, err := ev(row)
			if err != nil {
				return types.Value{}, err
			}
			lv, err := lo(row)
			if err != nil {
				return types.Value{}, err
			}
			hv, err := hi(row)
			if err != nil {
				return types.Value{}, err
			}
			ge, le := types.Null(), types.Null()
			if !v.IsNull() && !lv.IsNull() {
				c, err := types.Compare(v, lv)
				if err != nil {
					return types.Value{}, err
				}
				ge = types.Bool(c >= 0)
			}
			if !v.IsNull() && !hv.IsNull() {
				c, err := types.Compare(v, hv)
				if err != nil {
					return types.Value{}, err
				}
				le = types.Bool(c <= 0)
			}
			in := and3(ge, le)
			if neg && !in.IsNull() {
				in.B = !in.B
			}
			return in, nil
		}, nil

	case *sqlparser.InExpr:
		return c.compileIn(x)

	case *sqlparser.FuncCall:
		if _, isAgg := exec.ParseAggKind(x.Name); isAgg {
			return nil, fmt.Errorf("plan: aggregate %s() is not allowed here", x.Name)
		}
		return c.compileScalarFunc(x)

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// compileScalarFunc compiles the built-in scalar functions: the date
// part extractors TPC-H queries need (year/month/day) and basic math.
func (c *compiler) compileScalarFunc(x *sqlparser.FuncCall) (exec.Scalar, error) {
	name := strings.ToLower(x.Name)
	arity := map[string]int{
		"year": 1, "month": 1, "day": 1,
		"abs": 1, "sqrt": 1, "floor": 1, "ceil": 1,
	}
	want, ok := arity[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown function %q", x.Name)
	}
	if x.Star || len(x.Args) != want {
		return nil, fmt.Errorf("plan: %s() takes exactly %d argument(s)", name, want)
	}
	arg, err := c.compile(x.Args[0])
	if err != nil {
		return nil, err
	}
	return func(row types.Row) (types.Value, error) {
		v, err := arg(row)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		switch name {
		case "year", "month", "day":
			if v.Kind != types.KindDate {
				return types.Value{}, fmt.Errorf("plan: %s() requires a DATE argument, got %s", name, v.Kind)
			}
			y, m, d := types.CivilFromDays(v.I)
			switch name {
			case "year":
				return types.Int(int64(y)), nil
			case "month":
				return types.Int(int64(m)), nil
			default:
				return types.Int(int64(d)), nil
			}
		case "abs":
			if v.Kind == types.KindInt {
				if v.I < 0 {
					return types.Int(-v.I), nil
				}
				return v, nil
			}
			f, err := v.AsFloat()
			if err != nil {
				return types.Value{}, err
			}
			return types.Float(math.Abs(f)), nil
		default: // sqrt, floor, ceil
			f, err := v.AsFloat()
			if err != nil {
				return types.Value{}, err
			}
			switch name {
			case "sqrt":
				if f < 0 {
					return types.Value{}, fmt.Errorf("plan: sqrt of negative value")
				}
				return types.Float(math.Sqrt(f)), nil
			case "floor":
				return types.Float(math.Floor(f)), nil
			default:
				return types.Float(math.Ceil(f)), nil
			}
		}
	}, nil
}

func (c *compiler) compileBinary(x *sqlparser.BinaryExpr) (exec.Scalar, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+", "-", "*", "/":
		op := x.Op[0]
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			return types.Arithmetic(op, lv, rv)
		}, nil
	case "%":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			li, err := lv.AsInt()
			if err != nil {
				return types.Value{}, err
			}
			ri, err := rv.AsInt()
			if err != nil {
				return types.Value{}, err
			}
			if ri == 0 {
				return types.Value{}, fmt.Errorf("plan: modulo by zero")
			}
			return types.Int(li % ri), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := x.Op
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			cmp, err := types.Compare(lv, rv)
			if err != nil {
				return types.Value{}, err
			}
			var out bool
			switch op {
			case "=":
				out = cmp == 0
			case "<>":
				out = cmp != 0
			case "<":
				out = cmp < 0
			case "<=":
				out = cmp <= 0
			case ">":
				out = cmp > 0
			case ">=":
				out = cmp >= 0
			}
			return types.Bool(out), nil
		}, nil
	case "AND":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			if isFalse(lv) {
				return types.Bool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				// A FALSE side decides, whichever side holds the NULL.
				if isFalse(rv) {
					return types.Bool(false), nil
				}
				return types.Null(), nil
			}
			return types.Bool(lv.Truthy() && rv.Truthy()), nil
		}, nil
	case "OR":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.Truthy() {
				return types.Bool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				// A TRUE side decides, whichever side holds the NULL.
				if rv.Truthy() {
					return types.Bool(true), nil
				}
				return types.Null(), nil
			}
			return types.Bool(lv.Truthy() || rv.Truthy()), nil
		}, nil
	default:
		return nil, fmt.Errorf("plan: unknown binary operator %q", x.Op)
	}
}

// Predicates follow SQL's three-valued logic: TRUE, FALSE, or NULL for
// unknown. An operand that is neither boolean nor NULL reads as FALSE,
// "not TRUE", as a WHERE clause reads it.

// isFalse reports whether v is a definite FALSE.
func isFalse(v types.Value) bool { return !v.IsNull() && !v.Truthy() }

// and3 is AND over two evaluated sides: FALSE if either side is, else
// NULL if either side is, else TRUE. The AND operator spells the same
// rule out in its closure, which runs once per row of a DELETE.
func and3(a, b types.Value) types.Value {
	switch {
	case isFalse(a) || isFalse(b):
		return types.Bool(false)
	case a.IsNull() || b.IsNull():
		return types.Null()
	}
	return types.Bool(true)
}

// inResult is [NOT] IN's answer once the probe is known not to be NULL:
// a match decides it; otherwise a NULL among the candidates makes it
// unknown.
func inResult(found, sawNull, neg bool) types.Value {
	if !found && sawNull {
		return types.Null()
	}
	return types.Bool(found != neg)
}

// compileIn compiles value-list and subquery IN predicates. Subqueries
// are planned eagerly but executed lazily, once, on first evaluation
// (the materialized set is then shared by every probe). Correlated
// subqueries are not supported.
func (c *compiler) compileIn(x *sqlparser.InExpr) (exec.Scalar, error) {
	probe, err := c.compile(x.E)
	if err != nil {
		return nil, err
	}
	neg := x.Neg

	if x.Sub != nil {
		if c.sp == nil {
			return nil, fmt.Errorf("plan: subquery not allowed in this context")
		}
		subOp, subEnv, err := c.sp.planSubquery(x.Sub)
		if err != nil {
			return nil, err
		}
		if len(subEnv) != 1 {
			return nil, fmt.Errorf("plan: IN subquery must return exactly one column, got %d", len(subEnv))
		}
		var set map[types.Value]bool
		var setNull bool
		return func(row types.Row) (types.Value, error) {
			if set == nil {
				rows, err := exec.Run(subOp)
				if err != nil {
					return types.Value{}, err
				}
				set = make(map[types.Value]bool, len(rows))
				for _, r := range rows {
					if r[0].IsNull() {
						setNull = true
						continue
					}
					set[r[0].Key()] = true
				}
			}
			v, err := probe(row)
			if err != nil {
				return types.Value{}, err
			}
			if v.IsNull() {
				return types.Null(), nil
			}
			return inResult(set[v.Key()], setNull, neg), nil
		}, nil
	}

	elems := make([]exec.Scalar, len(x.List))
	for i, le := range x.List {
		ce, err := c.compile(le)
		if err != nil {
			return nil, err
		}
		elems[i] = ce
	}
	return func(row types.Row) (types.Value, error) {
		v, err := probe(row)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		sawNull := false
		for _, el := range elems {
			ev, err := el(row)
			if err != nil {
				return types.Value{}, err
			}
			if ev.IsNull() {
				sawNull = true
				continue
			}
			cmp, err := types.Compare(v, ev)
			if err != nil {
				return types.Value{}, err
			}
			if cmp == 0 {
				return types.Bool(!neg), nil
			}
		}
		return inResult(false, sawNull, neg), nil
	}, nil
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// containsAggregate reports whether the expression tree contains an
// aggregate function call.
func containsAggregate(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if _, ok := exec.ParseAggKind(x.Name); ok {
			return true
		}
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case *sqlparser.UnaryExpr:
		return containsAggregate(x.E)
	case *sqlparser.BetweenExpr:
		return containsAggregate(x.E) || containsAggregate(x.Lo) || containsAggregate(x.Hi)
	case *sqlparser.InExpr:
		if containsAggregate(x.E) {
			return true
		}
		for _, l := range x.List {
			if containsAggregate(l) {
				return true
			}
		}
	}
	return false
}

// rowPure reports whether the expression's printed, lower-cased form
// determines its value on a given table's row — what lets the
// evaluator cache key state by that form. A subquery fails on both
// counts (it prints as "<subquery>" and reads other tables); a text
// literal with upper-case letters fails the lower-casing.
func rowPure(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Val.Kind != types.KindText || x.Val.S == strings.ToLower(x.Val.S)
	case *sqlparser.ColumnRef:
		return true
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			if !rowPure(a) {
				return false
			}
		}
		return true
	case *sqlparser.BinaryExpr:
		return rowPure(x.L) && rowPure(x.R)
	case *sqlparser.UnaryExpr:
		return rowPure(x.E)
	case *sqlparser.BetweenExpr:
		return rowPure(x.E) && rowPure(x.Lo) && rowPure(x.Hi)
	case *sqlparser.InExpr:
		if x.Sub != nil || !rowPure(x.E) {
			return false
		}
		for _, l := range x.List {
			if !rowPure(l) {
				return false
			}
		}
		return true
	}
	return false
}

// aggBinder compiles post-aggregation expressions (select items and
// HAVING) against the aggregation output layout:
//
//	[group₀ … group_{K-1}, agg₀ … agg_{M-1}]   (standard GROUP BY)
//	[agg₀ … agg_{M-1}]                          (similarity GROUP BY)
//
// Aggregate calls are deduplicated by their printed form (where it
// determines the call's value; see rowPure); grouping expressions are
// matched structurally the same way. Column references outside both
// are errors.
type aggBinder struct {
	baseEnv   Env // pre-aggregation input layout (for agg arguments)
	sp        subqueryPlanner
	groupKeys []string       // printed grouping expressions ("" entries disallow matching)
	aggBase   int            // index of agg₀ in the output row (K or 0)
	aggs      []exec.AggSpec // Key is the printed form calls are matched by
	// bound and slot are the expression the hook matched last and the
	// output column it reads; reorders is set once a select item is not
	// column i of the output row as it stands (compileSelectItems).
	bound    sqlparser.Expr
	slot     int
	reorders bool
}

// identity reports whether the n select items spell out the aggregation
// output row column for column, so that projecting it changes nothing:
// every item is a grouping expression or an aggregate call on its own,
// each in the column the row already has it in, and the row has no
// further column (an aggregate only HAVING names adds one).
func (b *aggBinder) identity(n int) bool {
	return !b.reorders && b.aggBase+len(b.aggs) == n
}

func (b *aggBinder) compile(e sqlparser.Expr) (exec.Scalar, error) {
	c := &compiler{env: nil, sp: b.sp, hook: b.hook}
	s, err := c.compile(e)
	if err != nil && strings.Contains(err.Error(), "unknown column") {
		return nil, fmt.Errorf("%v (it must appear in GROUP BY or inside an aggregate)", err)
	}
	return s, err
}

func (b *aggBinder) hook(e sqlparser.Expr) (exec.Scalar, bool, error) {
	// Grouping-expression match (standard GROUP BY only).
	printed := e.String()
	for i, gk := range b.groupKeys {
		if gk != "" && strings.EqualFold(gk, printed) {
			return b.column(e, i), true, nil
		}
	}
	// Aggregate call.
	fc, ok := e.(*sqlparser.FuncCall)
	if !ok {
		return nil, false, nil
	}
	kind, isAgg := exec.ParseAggKind(fc.Name)
	if !isAgg {
		return nil, false, nil
	}
	if fc.Star {
		kind = exec.AggCountStar
	}
	spec := exec.AggSpec{Kind: kind}
	if rowPure(fc) {
		spec.Key = strings.ToLower(printed)
		for i, a := range b.aggs {
			if a.Key == spec.Key {
				return b.column(e, b.aggBase+i), true, nil
			}
		}
	}
	for _, arg := range fc.Args {
		cs, err := compileScalar(arg, b.baseEnv, b.sp)
		if err != nil {
			return nil, false, err
		}
		spec.Args = append(spec.Args, cs)
		if ref, ok := arg.(*sqlparser.ColumnRef); ok && len(fc.Args) == 1 {
			idx, _ := b.baseEnv.resolve(ref) // compileScalar has just resolved it
			spec.ArgCol = idx + 1
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	b.aggs = append(b.aggs, spec)
	return b.column(e, b.aggBase+len(b.aggs)-1), true, nil
}

// column compiles e as a read of output column idx and notes the match.
func (b *aggBinder) column(e sqlparser.Expr, idx int) exec.Scalar {
	b.bound, b.slot = e, idx
	return func(row types.Row) (types.Value, error) { return row[idx], nil }
}
