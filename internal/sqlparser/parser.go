package sqlparser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/sgb-db/sgb/internal/types"
)

// Parse parses a single SQL statement (a trailing semicolon is
// tolerated).
func Parse(src string) (Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errorf("unexpected input after statement: %q", p.peek().Text)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return sel, nil
}

type parser struct {
	toks []Token
	i    int
}

func newParser(src string) (*parser, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

func (p *parser) peek() Token { return p.toks[p.i] }
func (p *parser) next() Token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

// at reports whether the current token matches kind (and text, when
// non-empty; keyword/symbol text comparison).
func (p *parser) at(kind TokenKind, text string) bool {
	t := p.peek()
	return t.Kind == kind && (text == "" || t.Text == text)
}

// accept consumes the token if it matches.
func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

// expect consumes a required token.
func (p *parser) expect(kind TokenKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return p.errorf("expected %q, found %q", text, p.peek().Text)
}

func (p *parser) atKeyword(kw string) bool     { return p.at(TokKeyword, kw) }
func (p *parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKeyword("SELECT"):
		return p.parseSelect()
	case p.atKeyword("CREATE"):
		return p.parseCreateTable()
	case p.atKeyword("INSERT"):
		return p.parseInsert()
	case p.atKeyword("DROP"):
		return p.parseDropTable()
	case p.atIdentWord("DELETE"):
		// DELETE, like SET below, is deliberately NOT a reserved word —
		// existing schemas may use "delete" as a column or table name.
		// Statement-lead dispatch off the bare identifier is unambiguous.
		return p.parseDelete()
	case p.atIdentWord("SET"):
		// SET is deliberately NOT a reserved word — existing schemas may
		// use "set" (or "to") as column or table names. No other
		// statement form begins with a bare identifier, so dispatching
		// on the leading word is unambiguous.
		return p.parseSet()
	case p.atIdentWord("CHECKPOINT"):
		// CHECKPOINT follows the SET/DELETE pattern: a bare-identifier
		// statement lead, not a reserved word.
		p.next()
		return &CheckpointStmt{}, nil
	default:
		return nil, p.errorf("expected SELECT, CREATE, INSERT, DELETE, DROP, SET, or CHECKPOINT, found %q", p.peek().Text)
	}
}

// atIdentWord reports whether the current token is an identifier
// spelling word (case-insensitive).
func (p *parser) atIdentWord(word string) bool {
	t := p.peek()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, word)
}

// parseSet parses SET name = value (or SET name TO value). The value
// is a single identifier, keyword, number (optionally negated), or
// string token, captured as raw text for the engine to interpret.
func (p *parser) parseSet() (*SetStmt, error) {
	p.next() // the SET word, verified by the caller
	name := p.peek()
	if name.Kind != TokIdent && name.Kind != TokKeyword {
		return nil, p.errorf("expected a setting name after SET, found %q", name.Text)
	}
	p.next()
	if !p.accept(TokSymbol, "=") {
		if !p.atIdentWord("TO") {
			return nil, p.errorf("expected '=' or TO after SET %s", name.Text)
		}
		p.next()
	}
	neg := p.accept(TokSymbol, "-")
	val := p.peek()
	switch val.Kind {
	case TokIdent, TokKeyword, TokNumber, TokString:
		p.next()
	default:
		return nil, p.errorf("expected a value for SET %s, found %q", name.Text, val.Text)
	}
	text := val.Text
	if neg {
		if val.Kind != TokNumber {
			return nil, p.errorf("unexpected '-' before SET value %q", val.Text)
		}
		text = "-" + text
	}
	return &SetStmt{Name: name.Text, Value: text}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		gb, err := p.parseGroupBy()
		if err != nil {
			return nil, err
		}
		sel.GroupBy = gb
	}

	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errorf("LIMIT expects a number, found %q", t.Text)
		}
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.Text)
		}
		sel.Limit = &n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.Kind != TokIdent {
			return SelectItem{}, p.errorf("expected alias after AS, found %q", t.Text)
		}
		p.next()
		item.Alias = t.Text
	} else if p.at(TokIdent, "") {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	ref, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		inner := p.atKeyword("INNER")
		if inner {
			p.next()
		}
		if !p.acceptKeyword("JOIN") {
			if inner {
				return nil, p.errorf("expected JOIN after INNER")
			}
			return ref, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ref = &JoinTable{Left: ref, Right: right, Cond: cond}
	}
}

func (p *parser) parsePrimaryTableRef() (TableRef, error) {
	if p.accept(TokSymbol, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		alias, err := p.parseTableAlias()
		if err != nil {
			return nil, err
		}
		if alias == "" {
			return nil, p.errorf("derived table requires an alias")
		}
		return &SubqueryTable{Select: sub, Alias: alias}, nil
	}
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errorf("expected table name, found %q", t.Text)
	}
	p.next()
	alias, err := p.parseTableAlias()
	if err != nil {
		return nil, err
	}
	return &BaseTable{Name: t.Text, Alias: alias}, nil
}

func (p *parser) parseTableAlias() (string, error) {
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.Kind != TokIdent {
			return "", p.errorf("expected alias after AS, found %q", t.Text)
		}
		p.next()
		return t.Text, nil
	}
	if p.at(TokIdent, "") {
		return p.next().Text, nil
	}
	return "", nil
}

// parseGroupBy parses the grouping expressions plus the optional
// similarity clause of Section 4.
func (p *parser) parseGroupBy() (*GroupByClause, error) {
	gb := &GroupByClause{}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		gb.Exprs = append(gb.Exprs, e)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}

	var sem Semantics
	switch {
	case p.acceptKeyword("DISTANCE-TO-ALL"), p.acceptKeyword("DISTANCE-ALL"):
		sem = SemanticsAll
	case p.acceptKeyword("DISTANCE-TO-ANY"), p.acceptKeyword("DISTANCE-ANY"):
		sem = SemanticsAny
	default:
		return gb, nil // standard GROUP BY
	}
	sim := &SimilarityClause{Semantics: sem, Metric: MetricL2}

	// Optional metric directly after the operator keyword.
	if m, ok := p.parseMetricName(); ok {
		sim.Metric = m
	}
	// Threshold: WITHIN e (single ε) or EPS IN (e1, e2, ...) (ε sweep).
	// EPS is deliberately NOT a reserved word — schemas may use "eps" as
	// a column name — so it is recognized contextually, like SET/DELETE:
	// in this position only WITHIN or EPS IN can follow, making the
	// bare-identifier dispatch unambiguous.
	if p.atIdentWord("EPS") {
		p.next()
		if err := p.expect(TokKeyword, "IN"); err != nil {
			return nil, err
		}
		if sem == SemanticsAll {
			return nil, p.errorf("DISTANCE-TO-ALL does not support EPS IN: ε sweeps exist for DISTANCE-TO-ANY only, whose groups nest as ε grows")
		}
		if err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		if p.at(TokSymbol, ")") {
			return nil, p.errorf("EPS IN list must name at least one ε level")
		}
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			sim.EpsList = append(sim.EpsList, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	} else {
		if err := p.expect(TokKeyword, "WITHIN"); err != nil {
			return nil, err
		}
		eps, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		sim.Eps = eps
	}

	// Table 2 spelling: trailing USING lone/ltwo.
	if p.acceptKeyword("USING") {
		m, ok := p.parseMetricName()
		if !ok {
			return nil, p.errorf("expected metric after USING, found %q", p.peek().Text)
		}
		sim.Metric = m
	}

	// ON-OVERLAP clause ("ON OVERLAP" also accepted); SGB-Any takes none.
	hasOverlap := p.acceptKeyword("ON-OVERLAP")
	if !hasOverlap && p.atKeyword("ON") {
		save := p.i
		p.next()
		if p.acceptKeyword("OVERLAP") {
			hasOverlap = true
		} else {
			p.i = save
		}
	}
	if hasOverlap {
		if sem == SemanticsAny {
			return nil, p.errorf("DISTANCE-TO-ANY does not take an ON-OVERLAP clause")
		}
		switch {
		case p.acceptKeyword("JOIN-ANY"):
			sim.Overlap = OverlapJoinAny
		case p.acceptKeyword("ELIMINATE"):
			sim.Overlap = OverlapEliminate
		case p.acceptKeyword("FORM-NEW-GROUP"), p.acceptKeyword("FORM-NEW"):
			sim.Overlap = OverlapFormNewGroup
		default:
			return nil, p.errorf("expected JOIN-ANY, ELIMINATE, or FORM-NEW-GROUP, found %q", p.peek().Text)
		}
	}

	// Trailing rollup: SIMILARITY CUBE BY EPS emits one aggregate row
	// per sweep level. SIMILARITY and CUBE are contextual identifier
	// words (not reserved; a bare identifier here is a syntax error
	// anyway), so the save/restore mirrors the "ON OVERLAP" handling.
	if p.atIdentWord("SIMILARITY") {
		save := p.i
		p.next()
		if p.atIdentWord("CUBE") {
			p.next()
			if err := p.expect(TokKeyword, "BY"); err != nil {
				return nil, err
			}
			if !p.atIdentWord("EPS") {
				return nil, p.errorf("expected EPS after SIMILARITY CUBE BY, found %q", p.peek().Text)
			}
			p.next()
			if len(sim.EpsList) == 0 {
				return nil, p.errorf("SIMILARITY CUBE BY EPS requires an EPS IN (...) sweep list")
			}
			sim.Cube = true
		} else {
			p.i = save
		}
	}
	gb.Similarity = sim
	return gb, nil
}

// parseMetricName accepts L2/LTWO (Euclidean) and LINF/LONE (maximum).
func (p *parser) parseMetricName() (MetricName, bool) {
	switch {
	case p.acceptKeyword("L2"), p.acceptKeyword("LTWO"):
		return MetricL2, true
	case p.acceptKeyword("LINF"), p.acceptKeyword("LONE"):
		return MetricLInf, true
	default:
		return MetricL2, false
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	p.next() // CREATE
	if err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errorf("expected table name, found %q", t.Text)
	}
	p.next()
	stmt := &CreateTableStmt{Name: t.Text}
	if err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		ct := p.peek()
		if ct.Kind != TokIdent {
			return nil, p.errorf("expected column name, found %q", ct.Text)
		}
		p.next()
		tt := p.peek()
		if tt.Kind != TokIdent && tt.Kind != TokKeyword {
			return nil, p.errorf("expected column type, found %q", tt.Text)
		}
		p.next()
		kind, err := types.ParseKind(tt.Text)
		if err != nil {
			return nil, p.errorf("unknown column type %q", tt.Text)
		}
		stmt.Columns = append(stmt.Columns, ColumnDef{Name: ct.Text, Type: kind})
		if p.accept(TokSymbol, ",") {
			continue
		}
		break
	}
	if err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errorf("expected table name, found %q", t.Text)
	}
	p.next()
	stmt := &InsertStmt{Table: t.Text}
	if p.accept(TokSymbol, "(") {
		for {
			ct := p.peek()
			if ct.Kind != TokIdent {
				return nil, p.errorf("expected column name, found %q", ct.Text)
			}
			p.next()
			stmt.Columns = append(stmt.Columns, ct.Text)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return stmt, nil
}

// parseDelete parses DELETE FROM name [WHERE expr].
func (p *parser) parseDelete() (Statement, error) {
	p.next() // the DELETE word, verified by the caller
	if err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errorf("expected table name, found %q", t.Text)
	}
	p.next()
	stmt := &DeleteStmt{Table: t.Text}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseDropTable() (Statement, error) {
	p.next() // DROP
	if err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, p.errorf("expected table name, found %q", t.Text)
	}
	p.next()
	return &DropTableStmt{Name: t.Text}, nil
}

// Expression grammar, lowest precedence first.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// [NOT] IN / BETWEEN
	neg := false
	if p.atKeyword("NOT") && p.i+1 < len(p.toks) &&
		(p.toks[p.i+1].Text == "IN" || p.toks[p.i+1].Text == "BETWEEN") {
		p.next()
		neg = true
	}
	if p.acceptKeyword("IN") {
		return p.parseInTail(l, neg)
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Neg: neg}, nil
	}
	if neg {
		return nil, p.errorf("expected IN or BETWEEN after NOT")
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(TokSymbol, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			norm := op
			if norm == "!=" {
				norm = "<>"
			}
			return &BinaryExpr{Op: norm, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseInTail(l Expr, neg bool) (Expr, error) {
	if err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	if p.atKeyword("SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, Sub: sub, Neg: neg}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return &InExpr{E: l, List: list, Neg: neg}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "+"):
			op = "+"
		case p.accept(TokSymbol, "-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "*"):
			op = "*"
		case p.accept(TokSymbol, "/"):
			op = "/"
		case p.accept(TokSymbol, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokSymbol, "-") {
		// The smallest INT is the one literal whose magnitude is no INT:
		// its sign belongs to the literal, not to a negation of it.
		if t := p.peek(); t.Kind == TokNumber {
			if n, err := strconv.ParseInt("-"+t.Text, 10, 64); err == nil && n == math.MinInt64 {
				p.next()
				return &Literal{Val: types.Int(n)}, nil
			}
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	if p.accept(TokSymbol, "+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", t.Text)
			}
			return &Literal{Val: types.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.Text)
		}
		return &Literal{Val: types.Int(n)}, nil

	case TokString:
		p.next()
		return &Literal{Val: types.Text(t.Text)}, nil

	case TokKeyword:
		// Date-part keywords double as scalar function names (year(d)).
		if (t.Text == "YEAR" || t.Text == "MONTH" || t.Text == "DAY" || t.Text == "WEEK") &&
			p.i+1 < len(p.toks) && p.toks[p.i+1].Kind == TokSymbol && p.toks[p.i+1].Text == "(" {
			p.next()
			p.next() // consume "("
			f := &FuncCall{Name: strings.ToLower(t.Text)}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, e)
			if err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		switch t.Text {
		case "TRUE":
			p.next()
			return &Literal{Val: types.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: types.Bool(false)}, nil
		case "NULL":
			p.next()
			return &Literal{Val: types.Null()}, nil
		case "DATE":
			p.next()
			st := p.peek()
			if st.Kind != TokString {
				return nil, p.errorf("DATE expects a quoted literal, found %q", st.Text)
			}
			p.next()
			v, err := types.ParseDate(st.Text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			return &Literal{Val: v}, nil
		case "INTERVAL":
			p.next()
			st := p.peek()
			if st.Kind != TokString && st.Kind != TokNumber {
				return nil, p.errorf("INTERVAL expects a quoted count, found %q", st.Text)
			}
			p.next()
			ut := p.peek()
			if ut.Kind != TokKeyword && ut.Kind != TokIdent {
				return nil, p.errorf("INTERVAL expects a unit, found %q", ut.Text)
			}
			p.next()
			v, err := types.ParseInterval(st.Text, ut.Text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			return &Literal{Val: v}, nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.Text)

	case TokIdent:
		p.next()
		// Function call?
		if p.accept(TokSymbol, "(") {
			f := &FuncCall{Name: strings.ToLower(t.Text)}
			if p.accept(TokSymbol, "*") {
				f.Star = true
				if err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
				return f, nil
			}
			if p.accept(TokSymbol, ")") {
				// count() — the paper's Table 2 spelling of count(*).
				if f.Name == "count" {
					f.Star = true
					return f, nil
				}
				return nil, p.errorf("function %s requires arguments", f.Name)
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Args = append(f.Args, e)
				if !p.accept(TokSymbol, ",") {
					break
				}
			}
			if err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		// Qualified column?
		if p.accept(TokSymbol, ".") {
			ct := p.peek()
			if ct.Kind != TokIdent {
				return nil, p.errorf("expected column after %q., found %q", t.Text, ct.Text)
			}
			p.next()
			return &ColumnRef{Table: t.Text, Name: ct.Text}, nil
		}
		return &ColumnRef{Name: t.Text}, nil

	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}
