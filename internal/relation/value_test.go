package relation

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Str("x"), KindString},
		{Bool(true), KindBool},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Int(3).Equal(Str("3")) {
		t.Error("Int(3) should not equal Str(\"3\")")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("string equality broken")
	}
	if !Null().Equal(Null()) || Null().Equal(Int(0)) {
		t.Error("null equality broken")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	ordered := []Value{Null(), Bool(false), Bool(true), Int(-5), Float(-1.5), Int(0), Float(2.5), Int(3), Float(math.Inf(1)), Float(math.NaN()), Str(""), Str("a"), Str("b")}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueHashConsistentWithEqual(t *testing.T) {
	if Int(7).Hash() != Float(7).Hash() {
		t.Error("numerically equal values must hash equal")
	}
	if Int(7).Key() != Float(7).Key() {
		t.Error("numerically equal values must share Key")
	}
	if Str("7").Key() == Int(7).Key() {
		t.Error("string and int must not share Key")
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(int64(r.Intn(20) - 10))
	case 2:
		if r.Intn(10) == 0 {
			return Float(math.NaN())
		}
		return Float(float64(r.Intn(20)-10) / 2)
	case 3:
		return Str(string(rune('a' + r.Intn(5))))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func TestValueCompareProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("antisymmetry violated: %v vs %v", a, b)
		}
		// Reflexivity.
		if a.Compare(a) != 0 {
			t.Fatalf("reflexivity violated: %v", a)
		}
		// Transitivity of <=.
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
		// Equal implies Compare==0 and Hash equal.
		if a.Equal(b) {
			if a.Compare(b) != 0 {
				t.Fatalf("Equal but Compare != 0: %v %v", a, b)
			}
			if a.Hash() != b.Hash() {
				t.Fatalf("Equal but Hash differs: %v %v", a, b)
			}
			if a.Key() != b.Key() {
				t.Fatalf("Equal but Key differs: %v %v", a, b)
			}
		}
	}
}

// parseValue parses a CAQL literal, the grammar String writes: a quoted string, an integer, a float,
// true/false, or null.
func parseValue(s string) (Value, error) {
	switch s {
	case "null":
		return Null(), nil
	case "true":
		return Bool(true), nil
	case "false":
		return Bool(false), nil
	}
	if len(s) >= 2 && s[0] == '"' {
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("relation: bad string literal %s: %w", s, err)
		}
		return Str(u), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("relation: cannot parse value %q", s)
}

func TestParseValueRoundTrip(t *testing.T) {
	vals := []Value{Int(42), Int(-7), Float(3.25), Str("hello world"), Str("with \"quotes\""), Bool(true), Bool(false), Null()}
	for _, v := range vals {
		got, err := parseValue(v.String())
		if err != nil {
			t.Fatalf("parseValue(%s): %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %s -> %v", v, got)
		}
	}
	if _, err := parseValue("not a value"); err == nil {
		t.Error("expected error for garbage input")
	}
}

func TestParseValueQuick(t *testing.T) {
	f := func(i int64) bool {
		v, err := parseValue(Int(i).String())
		return err == nil && v.Equal(Int(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(s string) bool {
		v, err := parseValue(Str(s).String())
		return err == nil && v.Equal(Str(s))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpOpEvalNegateFlip(t *testing.T) {
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	negate := map[CmpOp]CmpOp{OpEq: OpNe, OpNe: OpEq, OpLt: OpGe, OpLe: OpGt, OpGt: OpLe, OpGe: OpLt}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := randomValue(r), randomValue(r)
		for _, op := range ops {
			if op.Eval(a, b) == negate[op].Eval(a, b) {
				t.Fatalf("negate not complementary: %v %v %v", a, op, b)
			}
			if op.Eval(a, b) != op.Flip().Eval(b, a) {
				t.Fatalf("flip not symmetric: %v %v %v", a, op, b)
			}
		}
	}
}

func TestParseCmpOp(t *testing.T) {
	for _, s := range []string{"=", "==", "!=", "<>", "<", "<=", "=<", ">", ">="} {
		if _, err := ParseCmpOp(s); err != nil {
			t.Errorf("ParseCmpOp(%q): %v", s, err)
		}
	}
	if _, err := ParseCmpOp("<<"); err == nil {
		t.Error("expected error for bad operator")
	}
}
