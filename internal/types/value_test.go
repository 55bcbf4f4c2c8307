package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindText: "TEXT", KindBool: "BOOL", KindDate: "DATE", KindInterval: "INTERVAL",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "bigint": KindInt,
		"float": KindFloat, "DOUBLE": KindFloat, "decimal": KindFloat,
		"text": KindText, "VARCHAR": KindText,
		"bool": KindBool, "date": KindDate,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind accepted blob")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-42), "-42"},
		{Float(2.5), "2.5"},
		{Text("hi"), "hi"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Date(DaysFromCivil(1995, 3, 15)), "1995-03-15"},
		{Interval(10, 0), "10 months 0 days"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, err := Int(7).AsFloat(); err != nil || f != 7 {
		t.Errorf("Int.AsFloat = %v, %v", f, err)
	}
	if f, err := Bool(true).AsFloat(); err != nil || f != 1 {
		t.Errorf("Bool.AsFloat = %v, %v", f, err)
	}
	if _, err := Text("x").AsFloat(); err == nil {
		t.Error("Text.AsFloat accepted")
	}
	if i, err := Float(3.9).AsInt(); err != nil || i != 3 {
		t.Errorf("Float.AsInt = %v, %v", i, err)
	}
	if _, err := Text("x").AsInt(); err == nil {
		t.Error("Text.AsInt accepted")
	}
}

func TestCompare(t *testing.T) {
	mustCmp := func(a, b Value, want int) {
		t.Helper()
		got, err := Compare(a, b)
		if err != nil || got != want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", a, b, got, err, want)
		}
	}
	mustCmp(Int(1), Int(2), -1)
	mustCmp(Int(2), Float(2.0), 0) // cross numeric kinds
	mustCmp(Float(3), Int(2), 1)
	mustCmp(Text("a"), Text("b"), -1)
	mustCmp(Bool(false), Bool(true), -1)
	mustCmp(Date(5), Date(5), 0)
	mustCmp(Date(5), Int(6), -1) // dates compare numerically
	mustCmp(Null(), Int(1), -1)
	mustCmp(Null(), Null(), 0)
	// Two INTs, two DATEs: exact beyond float64's 53 bits.
	const big = int64(1) << 53
	mustCmp(Int(big), Int(big+1), -1)
	mustCmp(Int(big+1), Int(big), 1)
	mustCmp(Int(-big-1), Int(-big), -1)
	mustCmp(Int(math.MaxInt64), Int(math.MaxInt64-1), 1)
	mustCmp(Int(math.MinInt64), Int(math.MaxInt64), -1)
	mustCmp(Date(big), Date(big+1), -1)
	mustCmp(Date(big+1), Date(big+1), 0)
	// A mixed pair compares exactly too: the integer against the float's
	// value, not against float64 of itself.
	mustCmp(Int(big+1), Float(float64(big)), 1)
	mustCmp(Float(float64(big)), Int(big+1), -1)
	mustCmp(Int(big), Float(float64(big)), 0)
	mustCmp(Date(big+1), Int(big), 1)
	mustCmp(Date(big+1), Float(float64(big)), 1)
	mustCmp(Int(-big-1), Float(-float64(big)), -1)
	mustCmp(Int(math.MaxInt64), Float(0x1p63), -1) // float64(MaxInt64) is 2⁶³
	mustCmp(Float(0x1p63), Int(math.MaxInt64), 1)
	mustCmp(Int(math.MinInt64), Float(-0x1p63), 0)
	mustCmp(Int(math.MinInt64+1), Float(-0x1p63), 1)
	mustCmp(Int(math.MinInt64), Float(math.Nextafter(-0x1p63, math.Inf(-1))), 1)
	mustCmp(Int(math.MaxInt64), Float(math.Inf(1)), -1)
	mustCmp(Int(math.MinInt64), Float(math.Inf(-1)), 1)
	mustCmp(Int(0), Float(math.Copysign(0, -1)), 0)
	mustCmp(Int(2), Float(2.5), -1)
	mustCmp(Int(-2), Float(-2.5), 1)
	mustCmp(Int(-3), Float(-2.5), -1)
	mustCmp(Float(-2.5), Int(-2), -1)
	mustCmp(Int(7), Float(math.NaN()), 0) // as a float pair with a NaN
	if _, err := Compare(Text("a"), Int(1)); err == nil {
		t.Error("cross-kind compare accepted")
	}
}

func TestArithmetic(t *testing.T) {
	check := func(op byte, a, b, want Value) {
		t.Helper()
		got, err := Arithmetic(op, a, b)
		if err != nil {
			t.Fatalf("%v %c %v: %v", a, op, b, err)
		}
		if got != want {
			t.Errorf("%v %c %v = %v, want %v", a, op, b, got, want)
		}
	}
	check('+', Int(2), Int(3), Int(5))
	check('-', Int(2), Int(3), Int(-1))
	check('*', Int(4), Int(3), Int(12))
	check('/', Int(7), Int(2), Float(3.5)) // SQL-style / promotes
	check('+', Float(1.5), Int(1), Float(2.5))
	check('*', Float(2), Float(3), Float(6))

	if _, err := Arithmetic('/', Int(1), Int(0)); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := Arithmetic('+', Text("a"), Int(1)); err == nil {
		t.Error("text arithmetic accepted")
	}
	if v, err := Arithmetic('+', Null(), Int(1)); err != nil || !v.IsNull() {
		t.Errorf("NULL propagation: %v, %v", v, err)
	}
}

func TestDateArithmetic(t *testing.T) {
	d1 := Date(DaysFromCivil(1995, 1, 31))
	d2 := Date(DaysFromCivil(1995, 3, 2))
	diff, err := Arithmetic('-', d2, d1)
	if err != nil || diff.Kind != KindInt || diff.I != 30 {
		t.Fatalf("date diff = %v, %v", diff, err)
	}
	// Date + interval months (with day clamping: Jan 31 + 1 mo = Feb 28).
	plus, err := Arithmetic('+', d1, Interval(1, 0))
	if err != nil || plus.String() != "1995-02-28" {
		t.Fatalf("date+1mo = %v, %v", plus, err)
	}
	// Date - interval.
	minus, err := Arithmetic('-', d2, Interval(0, 2))
	if err != nil || minus.String() != "1995-02-28" {
		t.Fatalf("date-2d = %v, %v", minus, err)
	}
	// Date + integer days.
	pd, err := Arithmetic('+', d1, Int(1))
	if err != nil || pd.String() != "1995-02-01" {
		t.Fatalf("date+1 = %v, %v", pd, err)
	}
	// Date + date is invalid.
	if _, err := Arithmetic('+', d1, d2); err == nil {
		t.Error("date+date accepted")
	}
	// Interval without a date operand is invalid.
	if _, err := Arithmetic('+', Interval(1, 0), Int(1)); err == nil {
		t.Error("interval+int accepted")
	}
}

func TestKeyNormalization(t *testing.T) {
	if Int(2).Key() != Float(2).Key() {
		t.Error("2 and 2.0 hash differently")
	}
	if Date(100).Key() != Float(100).Key() {
		t.Error("date does not normalize")
	}
	if Text("2").Key() == Float(2).Key() {
		t.Error("text collides with numeric")
	}
	// float64 holds 53 bits: neighbours above 2⁵³ must keep their own keys.
	if Int(1<<53).Key() == Int(1<<53+1).Key() || Date(1<<53).Key() == Date(1<<53+1).Key() {
		t.Error("integers above 2^53 share a key")
	}
	if Int(1<<53).Key() != Float(0x1p53).Key() || Int(math.MinInt64).Key() != Float(-0x1p63).Key() {
		t.Error("an integral float and its integer hash differently")
	}
	if Float(math.Copysign(0, -1)).Key() != Int(0).Key() {
		t.Error("-0.0 and 0 hash differently")
	}
	for _, f := range []float64{0.5, 0x1p63, -0x1p64, math.Inf(1), math.Inf(-1)} {
		if k := Float(f).Key(); k != Float(f) {
			t.Errorf("Key(%g) = %v, want the float itself", f, k)
		}
	}
	if k := Float(math.NaN()).Key(); k.Kind != KindFloat || !math.IsNaN(k.F) {
		t.Errorf("Key(NaN) = %v", k)
	}
}

func TestTruthy(t *testing.T) {
	if !Bool(true).Truthy() || Bool(false).Truthy() || Null().Truthy() || Int(1).Truthy() {
		t.Error("Truthy semantics wrong")
	}
}

// Property: Compare is antisymmetric and transitive over numerics.
func TestCompareProperties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c1, err1 := Compare(Float(a), Float(b))
		c2, err2 := Compare(Float(b), Float(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
