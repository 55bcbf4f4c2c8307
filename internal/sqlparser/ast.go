package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/sgb-db/sgb/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  *GroupByClause
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
}

func (*SelectStmt) stmt() {}

// SelectItem is one projection: an expression with an optional alias,
// or the bare star.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a FROM-clause item.
type TableRef interface{ tableRef() }

// BaseTable references a named table.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryTable) tableRef() {}

// JoinTable is an explicit INNER JOIN with an ON condition.
type JoinTable struct {
	Left, Right TableRef
	Cond        Expr
}

func (*JoinTable) tableRef() {}

// Semantics selects the similarity grouping operator.
type Semantics int

const (
	// SemanticsAll is DISTANCE-TO-ALL (clique groups).
	SemanticsAll Semantics = iota
	// SemanticsAny is DISTANCE-TO-ANY (connected components).
	SemanticsAny
)

// OverlapAction is the ON-OVERLAP arbitration for SGB-All.
type OverlapAction int

const (
	OverlapJoinAny      OverlapAction = iota // insert into one arbitrary candidate group
	OverlapEliminate                         // drop overlapping points
	OverlapFormNewGroup                      // regroup overlapping points among themselves
)

// MetricName is the distance function keyword.
type MetricName int

const (
	MetricL2   MetricName = iota // L2 / LTWO: Euclidean
	MetricLInf                   // LINF / LONE: maximum (Chebyshev)
)

// GroupByClause covers both standard grouping (Similarity == nil) and
// similarity grouping.
type GroupByClause struct {
	Exprs      []Expr
	Similarity *SimilarityClause
}

// SimilarityClause carries the SGB grouping parameters. Exactly one of
// Eps (WITHIN e: a single threshold) and EpsList (EPS IN (e1, e2, ...):
// an ε sweep, DISTANCE-TO-ANY only) is set. Cube marks a trailing
// SIMILARITY CUBE BY EPS rollup over the sweep levels.
type SimilarityClause struct {
	Semantics Semantics
	Metric    MetricName
	Eps       Expr
	EpsList   []Expr
	Cube      bool
	Overlap   OverlapAction
}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTableStmt) stmt() {}

// ColumnDef is one column definition.
type ColumnDef struct {
	Name string
	Type types.Kind
}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*InsertStmt) stmt() {}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct{ Name string }

func (*DropTableStmt) stmt() {}

// DeleteStmt is DELETE FROM name [WHERE expr]. A nil Where deletes
// every row.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// SetStmt is SET name = value (also SET name TO value): a session
// setting such as ALGORITHM or PARALLELISM. Value keeps the raw token
// text ("grid", "4", "-1"); the engine interprets it per setting.
type SetStmt struct {
	Name  string
	Value string
}

func (*SetStmt) stmt() {}

// CheckpointStmt is CHECKPOINT: snapshot a persistent database's state
// now and prune the log it covers.
type CheckpointStmt struct{}

func (*CheckpointStmt) stmt() {}

// Expr is a SQL expression node.
type Expr interface {
	expr()
	String() string
}

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

func (*ColumnRef) expr() {}

// String renders the reference as [table.]name.
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value.
type Literal struct{ Val types.Value }

func (*Literal) expr() {}

// String renders the literal in SQL syntax (quoted for text/date).
// Literals of different kinds or values print differently: the planner
// matches expressions, and the evaluator cache keys state, by printed
// form, and 2 and 2.0 do not compute the same thing (max(a + 2) is an
// INT, max(a + 2.0) a FLOAT).
func (l *Literal) String() string {
	switch l.Val.Kind {
	case types.KindText:
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	case types.KindDate:
		return "date '" + l.Val.String() + "'"
	case types.KindFloat:
		s := l.Val.String()
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // the marker the parser tells a float from an integer by
		}
		return s
	case types.KindInterval:
		// The two forms the parser builds: whole months, or whole days.
		switch {
		case l.Val.F == 0:
			return "interval '" + strconv.FormatInt(l.Val.I, 10) + "' month"
		case l.Val.I == 0:
			return "interval '" + strconv.FormatInt(int64(l.Val.F), 10) + "' day"
		}
	}
	return l.Val.String()
}

// BinaryExpr is a binary operation: arithmetic (+ - * / %),
// comparison (= <> < <= > >=), or logical (AND OR).
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) expr() {}

// String renders the operation parenthesized.
func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string
	E  Expr
}

func (*UnaryExpr) expr() {}

// String renders the operation parenthesized.
func (u *UnaryExpr) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.E) }

// FuncCall is a function or aggregate invocation; Star marks count(*).
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
}

func (*FuncCall) expr() {}

// String renders the call, with * for count(*).
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

// InExpr is `expr [NOT] IN (values...)` or `expr [NOT] IN (subquery)`.
type InExpr struct {
	E    Expr
	List []Expr      // non-nil for a value list
	Sub  *SelectStmt // non-nil for a subquery
	Neg  bool
}

func (*InExpr) expr() {}

// String renders the membership test (subqueries elided).
func (i *InExpr) String() string {
	not := ""
	if i.Neg {
		not = " NOT"
	}
	if i.Sub != nil {
		return fmt.Sprintf("(%s%s IN (<subquery>))", i.E, not)
	}
	parts := make([]string, len(i.List))
	for k, e := range i.List {
		parts[k] = e.String()
	}
	return fmt.Sprintf("(%s%s IN (%s))", i.E, not, strings.Join(parts, ", "))
}

// BetweenExpr is `expr BETWEEN lo AND hi`.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Neg       bool
}

func (*BetweenExpr) expr() {}

// String renders the range test parenthesized.
func (b *BetweenExpr) String() string {
	not := ""
	if b.Neg {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s BETWEEN %s AND %s)", b.E, not, b.Lo, b.Hi)
}
