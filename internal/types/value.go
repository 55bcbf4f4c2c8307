// Package types defines the SQL value model shared by the storage
// engine, planner, and executor: 64-bit integers, floats, text,
// booleans, calendar dates, and month/day intervals — the types the
// paper's TPC-H and check-in workloads require.
package types

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the SQL value types.
type Kind int

const (
	KindNull     Kind = iota // SQL NULL
	KindInt                  // 64-bit integer
	KindFloat                // 64-bit float
	KindText                 // string
	KindBool                 // boolean
	KindDate                 // calendar date, stored as days since 1970-01-01
	KindInterval             // calendar interval (months and/or days)
)

// String names the kind as in DDL.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	case KindInterval:
		return "INTERVAL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a DDL type name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return KindText, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "DATE":
		return KindDate, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type %q", s)
	}
}

// Value is a SQL value. The struct is comparable (usable as a map key);
// the active representation depends on Kind:
//
//	KindInt      → I
//	KindFloat    → F
//	KindText     → S
//	KindBool     → B
//	KindDate     → I (days since epoch)
//	KindInterval → I (months) and F (days)
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// Row is one tuple.
type Row = []Value

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Text returns a text value.
func Text(s string) Value { return Value{Kind: KindText, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Date returns a date value from days since 1970-01-01.
func Date(days int64) Value { return Value{Kind: KindDate, I: days} }

// Interval returns a calendar interval.
func Interval(months int64, days float64) Value {
	return Value{Kind: KindInterval, I: months, F: days}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsNumeric reports whether v is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat returns the numeric value of v as float64 (dates convert to
// their day number, which makes them usable as SGB grouping attributes).
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case KindInt, KindDate:
		return float64(v.I), nil
	case KindFloat:
		return v.F, nil
	case KindBool:
		if v.B {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("types: %s is not numeric", v.Kind)
	}
}

// AsInt returns the value as int64.
func (v Value) AsInt() (int64, error) {
	switch v.Kind {
	case KindInt, KindDate:
		return v.I, nil
	case KindFloat:
		return int64(v.F), nil
	default:
		return 0, fmt.Errorf("types: %s is not an integer", v.Kind)
	}
}

// Truthy interprets v as a predicate result: only TRUE is truthy; NULL
// and FALSE are not.
func (v Value) Truthy() bool { return v.Kind == KindBool && v.B }

// String formats the value for result printing.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindText:
		return v.S
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	case KindDate:
		y, m, d := CivilFromDays(v.I)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	case KindInterval:
		return fmt.Sprintf("%d months %g days", v.I, v.F)
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.Kind))
	}
}

// Key canonicalizes v for hashing (map keys): a date, and a float that
// is integral and inside the int64 range, become the INT of that value,
// so 2 = 2.0 hashes identically and −0.0 as 0. Integers keep all 64
// bits: float64 holds 53, so folding the other way would merge
// neighbours above 2⁵³. Everything else (NaN, fractions, floats beyond
// ±2⁶³) is its own key.
func (v Value) Key() Value {
	switch v.Kind {
	case KindDate:
		return Int(v.I)
	case KindFloat:
		if v.F >= -0x1p63 && v.F < 0x1p63 {
			if i := int64(v.F); float64(i) == v.F {
				return Int(i)
			}
		}
	}
	return v
}

// Compare orders a against b: -1, 0, +1. Numeric kinds (including
// dates) compare numerically and exactly: two of INT and DATE by their
// 64-bit payload, an INT or DATE against a FLOAT by CompareIntFloat,
// two FLOATs as floats (NaN equal to every float); text
// lexicographically; bools false<true. NULL sorts before everything.
// Cross-kind comparisons between non-numeric kinds are an error.
func Compare(a, b Value) (int, error) {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0, nil
		case a.Kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	integer := func(v Value) bool { return v.Kind == KindInt || v.Kind == KindDate }
	switch {
	case integer(a) && integer(b):
		// float64 holds 53 bits: beyond 2⁵³ neighbouring integers
		// would compare equal.
		return cmp.Compare(a.I, b.I), nil
	case integer(a) && b.Kind == KindFloat:
		return CompareIntFloat(a.I, b.F), nil
	case a.Kind == KindFloat && integer(b):
		return -CompareIntFloat(b.I, a.F), nil
	case a.Kind == KindFloat && b.Kind == KindFloat:
		switch {
		case a.F < b.F:
			return -1, nil
		case a.F > b.F:
			return 1, nil
		default:
			return 0, nil
		}
	case a.Kind == KindText && b.Kind == KindText:
		return strings.Compare(a.S, b.S), nil
	case a.Kind == KindBool && b.Kind == KindBool:
		switch {
		case a.B == b.B:
			return 0, nil
		case !a.B:
			return -1, nil
		default:
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.Kind, b.Kind)
	}
}

// CompareIntFloat orders the integer i against the float f exactly —
// not as float64(i), which rounds above 2⁵³ — including f beyond ±2⁶³
// and infinite. A NaN compares equal, as it does against a float.
func CompareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := int64(f) // exact: f is inside [-2⁶³, 2⁶³) and truncates toward 0
	if c := cmp.Compare(i, t); c != 0 {
		return c
	}
	switch frac := f - float64(t); { // exact, and zero from 2⁵² on
	case frac > 0:
		return -1
	case frac < 0:
		return 1
	}
	return 0
}

// Arithmetic evaluates a op b for op in +,-,*,/ with int/float
// promotion and date±interval / date-date support.
func Arithmetic(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	// Calendar arithmetic first.
	if a.Kind == KindDate || b.Kind == KindDate {
		return dateArith(op, a, b)
	}
	if a.Kind == KindInterval || b.Kind == KindInterval {
		return Value{}, fmt.Errorf("types: interval arithmetic requires a date operand")
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Value{}, fmt.Errorf("types: %c requires numeric operands, got %s and %s", op, a.Kind, b.Kind)
	}
	if a.Kind == KindInt && b.Kind == KindInt && op != '/' {
		switch op {
		case '+':
			return Int(a.I + b.I), nil
		case '-':
			return Int(a.I - b.I), nil
		case '*':
			return Int(a.I * b.I), nil
		}
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch op {
	case '+':
		return Float(af + bf), nil
	case '-':
		return Float(af - bf), nil
	case '*':
		return Float(af * bf), nil
	case '/':
		if bf == 0 {
			return Value{}, fmt.Errorf("types: division by zero")
		}
		return Float(af / bf), nil
	default:
		return Value{}, fmt.Errorf("types: unknown operator %c", op)
	}
}

func dateArith(op byte, a, b Value) (Value, error) {
	switch {
	case a.Kind == KindDate && b.Kind == KindDate && op == '-':
		return Int(a.I - b.I), nil // difference in days
	case a.Kind == KindDate && b.Kind == KindInterval && (op == '+' || op == '-'):
		sign := int64(1)
		if op == '-' {
			sign = -1
		}
		days := AddMonths(a.I, sign*b.I)
		days += sign * int64(b.F)
		return Date(days), nil
	case a.Kind == KindDate && b.IsNumeric() && (op == '+' || op == '-'):
		bi, _ := b.AsInt()
		if op == '-' {
			bi = -bi
		}
		return Date(a.I + bi), nil
	default:
		return Value{}, fmt.Errorf("types: unsupported date arithmetic %s %c %s", a.Kind, op, b.Kind)
	}
}
