package relation

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestValueIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
}

// refValue is the five-field layout Value had before it became two words,
// with the semantics Value has: NaN equals NaN and sorts after every other
// number. It exists so that FuzzValueOrder can hold the packed representation
// to a plain one that needs no unsafe.
type refValue struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

func (v refValue) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

func (v refValue) asFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

func (v refValue) equal(o refValue) bool {
	if v.isNumeric() && o.isNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i == o.i
		}
		return sameFloat(v.asFloat(), o.asFloat())
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	default:
		return false
	}
}

func (v refValue) compare(o refValue) int {
	sign := func(less, greater bool) int {
		switch {
		case less:
			return -1
		case greater:
			return 1
		default:
			return 0
		}
	}
	if vr, or := v.kind.rank(), o.kind.rank(); vr != or {
		return sign(vr < or, vr > or)
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool:
		return sign(!v.b && o.b, v.b && !o.b)
	case v.isNumeric():
		if v.kind == KindInt && o.kind == KindInt {
			return sign(v.i < o.i, v.i > o.i)
		}
		a, b := v.asFloat(), o.asFloat()
		if math.IsNaN(a) || math.IsNaN(b) {
			return sign(!math.IsNaN(a), !math.IsNaN(b))
		}
		return sign(a < b, a > b)
	default:
		return strings.Compare(v.s, o.s)
	}
}

// numericKey is asFloat with −0 read as +0 and any NaN as math.NaN(): Equal
// says they are equal, so Hash and Key must not tell them apart.
func (v refValue) numericKey() float64 {
	f := v.asFloat()
	switch {
	case f == 0:
		return 0
	case math.IsNaN(f):
		return math.NaN()
	}
	return f
}

func (v refValue) hash() uint64 {
	h := uint64(fnvOffset64)
	switch v.kind {
	case KindNull:
		return fnvByte(h, 0)
	case KindBool:
		h = fnvByte(h, 1)
		if v.b {
			return fnvByte(h, 1)
		}
		return fnvByte(h, 0)
	case KindInt, KindFloat:
		return fnvUint64(fnvByte(h, 2), math.Float64bits(v.numericKey()))
	default:
		h = fnvByte(h, 3)
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
		return h
	}
}

func (v refValue) key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindBool:
		if v.b {
			return "bt"
		}
		return "bf"
	case KindInt, KindFloat:
		return "f" + strconv.FormatFloat(v.numericKey(), 'b', -1, 64)
	default:
		return "s" + v.s
	}
}

func (v refValue) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		// A finite float keeps a point or an exponent, so it reads back as
		// a float.
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		if !math.IsInf(v.f, 0) && v.f == v.f && !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	case KindString:
		return strconv.Quote(v.s)
	default:
		return strconv.FormatBool(v.b)
	}
}

func refParse(s string) (refValue, error) {
	switch s {
	case "null":
		return refValue{}, nil
	case "true":
		return refValue{kind: KindBool, b: true}, nil
	case "false":
		return refValue{kind: KindBool}, nil
	}
	if len(s) >= 2 && s[0] == '"' {
		u, err := strconv.Unquote(s)
		return refValue{kind: KindString, s: u}, err
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return refValue{kind: KindInt, i: i}, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	return refValue{kind: KindFloat, f: f}, err
}

// sameFloat is == that also holds between two NaNs.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// agrees reports the first accessor on which v departs from r, or "".
func agrees(r refValue, v Value) string {
	switch {
	case v.Kind() != r.kind:
		return fmt.Sprintf("Kind %v, want %v", v.Kind(), r.kind)
	case v.IsNull() != (r.kind == KindNull):
		return "IsNull"
	case v.IsNumeric() != r.isNumeric():
		return "IsNumeric"
	case v.AsInt() != r.i:
		return fmt.Sprintf("AsInt %d, want %d", v.AsInt(), r.i)
	case !sameFloat(v.AsFloat(), r.asFloat()):
		return fmt.Sprintf("AsFloat %v, want %v", v.AsFloat(), r.asFloat())
	case v.AsString() != r.s:
		return fmt.Sprintf("AsString %q, want %q", v.AsString(), r.s)
	case v.AsBool() != r.b:
		return "AsBool"
	case v.Hash() != r.hash():
		return "Hash"
	case v.Key() != r.key():
		return fmt.Sprintf("Key %q, want %q", v.Key(), r.key())
	case v.String() != r.String():
		return fmt.Sprintf("String %s, want %s", v.String(), r.String())
	}
	return ""
}

// FuzzValueOrder holds the two-word Value to refValue: every accessor, Equal,
// Compare, Hash, Key, String and parseValue(String()) must agree, for any two
// values whose strings are windows on one backing array — what decodeBatch
// hands out, and the case where pointer identity and string equality part.
// Compare must return 0 exactly when Equal holds, and two values Equal calls
// equal must also share Hash and Key.
func FuzzValueOrder(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(0), int64(0), 0.0, 0.0, "", uint8(0), uint8(0), uint8(0), uint8(0))  // null, null
	f.Add(uint8(4), uint8(4), int64(1), int64(0), 0.0, 0.0, "", uint8(0), uint8(0), uint8(0), uint8(0))  // true, false
	f.Add(uint8(1), uint8(2), int64(3), int64(0), 0.0, 3.0, "", uint8(0), uint8(0), uint8(0), uint8(0))  // 3 == 3.0
	f.Add(uint8(1), uint8(2), int64(3), int64(0), 0.0, 3.5, "", uint8(0), uint8(0), uint8(0), uint8(0))  // 3 < 3.5
	f.Add(uint8(1), uint8(1), int64(-1), int64(1), 0.0, 0.0, "", uint8(0), uint8(0), uint8(0), uint8(0)) // -1 < 1: n is not unsigned
	f.Add(uint8(2), uint8(2), int64(0), int64(0), math.Copysign(0, -1), 0.0, "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(1), int64(0), int64(0), math.Copysign(0, -1), 0.0, "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(2), int64(0), int64(0), math.NaN(), math.NaN(), "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(1), int64(0), int64(7), math.NaN(), 0.0, "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(2), int64(0), int64(0), math.Inf(1), math.Inf(-1), "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(3), int64(0), int64(0), 0.0, 0.0, "", uint8(0), uint8(0), uint8(0), uint8(0))          // "" == ""
	f.Add(uint8(3), uint8(3), int64(0), int64(0), 0.0, 0.0, "abcabc", uint8(2), uint8(2), uint8(5), uint8(5))    // empty windows at two addresses
	f.Add(uint8(3), uint8(3), int64(0), int64(0), 0.0, 0.0, "abcabc", uint8(0), uint8(3), uint8(3), uint8(6))    // "abc" at two addresses
	f.Add(uint8(3), uint8(3), int64(0), int64(0), 0.0, 0.0, "abcabc", uint8(0), uint8(3), uint8(0), uint8(4))    // a prefix of the other
	f.Add(uint8(3), uint8(0), int64(0), int64(0), 0.0, 0.0, "null", uint8(0), uint8(4), uint8(0), uint8(0))      // "null" is not null
	f.Add(uint8(3), uint8(1), int64(0), int64(7), 0.0, 0.0, "7\"\xff", uint8(0), uint8(1), uint8(0), uint8(0))   // "7" is not 7
	f.Add(uint8(3), uint8(4), int64(0), int64(1), 0.0, 0.0, "q\"\xff\n", uint8(0), uint8(4), uint8(0), uint8(0)) // quoting round trip

	f.Fuzz(func(t *testing.T, ka, kb uint8, ia, ib int64, fa, fb float64, s string, a0, a1, b0, b1 uint8) {
		window := func(lo, hi uint8) string {
			l, h := int(lo)%(len(s)+1), int(hi)%(len(s)+1)
			if l > h {
				l, h = h, l
			}
			return s[l:h]
		}
		build := func(k uint8, i int64, f float64, str string) (refValue, Value) {
			switch Kind(k % 5) {
			case KindInt:
				return refValue{kind: KindInt, i: i}, Int(i)
			case KindFloat:
				return refValue{kind: KindFloat, f: f}, Float(f)
			case KindString:
				return refValue{kind: KindString, s: str}, Str(str)
			case KindBool:
				return refValue{kind: KindBool, b: i&1 == 1}, Bool(i&1 == 1)
			default:
				return refValue{}, Null()
			}
		}
		ra, va := build(ka, ia, fa, window(a0, a1))
		rb, vb := build(kb, ib, fb, window(b0, b1))

		for _, p := range []struct {
			r refValue
			v Value
		}{{ra, va}, {rb, vb}} {
			if d := agrees(p.r, p.v); d != "" {
				t.Fatalf("%v: %s", p.r, d)
			}
			rp, rerr := refParse(p.r.String())
			vp, verr := parseValue(p.v.String())
			if (rerr == nil) != (verr == nil) {
				t.Fatalf("%v: parseValue(String()) error %v, want %v", p.r, verr, rerr)
			}
			if d := agrees(rp, vp); verr == nil && d != "" {
				t.Fatalf("%v: parseValue(String()): %s", p.r, d)
			}
			if verr == nil && vp.Kind() != p.v.Kind() {
				t.Fatalf("%v: parseValue(String()) is a %v, want a %v", p.r, vp.Kind(), p.v.Kind())
			}
		}
		if got, want := va.Equal(vb), ra.equal(rb); got != want {
			t.Fatalf("%v Equal %v = %v, want %v", ra, rb, got, want)
		}
		if got, want := vb.Equal(va), rb.equal(ra); got != want {
			t.Fatalf("%v Equal %v = %v, want %v", rb, ra, got, want)
		}
		// Hash and index paths find a value by Hash and Key, the select path
		// by Equal; they agree only if Equal values share both.
		if va.Equal(vb) != (va.Compare(vb) == 0) {
			t.Fatalf("%v Equal %v = %v, but Compare = %d", ra, rb, va.Equal(vb), va.Compare(vb))
		}
		if va.Equal(vb) && (va.Hash() != vb.Hash() || va.Key() != vb.Key()) {
			t.Fatalf("%v Equal %v, but Hash %x/%x, Key %q/%q", ra, rb, va.Hash(), vb.Hash(), va.Key(), vb.Key())
		}
		if got, want := va.Compare(vb), ra.compare(rb); got != want {
			t.Fatalf("%v Compare %v = %d, want %d", ra, rb, got, want)
		}
		if got, want := vb.Compare(va), rb.compare(ra); got != want {
			t.Fatalf("%v Compare %v = %d, want %d", rb, ra, got, want)
		}
		if va.Less(vb) != (ra.compare(rb) < 0) {
			t.Fatalf("%v Less %v disagrees with Compare", ra, rb)
		}
	})
}

// What the Cache Manager budgets in: a slice header per tuple, a Value per
// cell, and the strings' bytes.
func TestRelationSizeBytes(t *testing.T) {
	r := New("r", NewSchema(
		Attr{Name: "a", Kind: KindInt},
		Attr{Name: "b", Kind: KindString},
		Attr{Name: "c", Kind: KindFloat}))
	const rows = 100
	var stringBytes int64
	for i := 0; i < rows; i++ {
		s := strings.Repeat("x", i%7)
		stringBytes += int64(len(s))
		r.MustAppend(Tuple{Int(int64(i)), Str(s), Float(float64(i) / 2)})
	}
	perRow := int64(unsafe.Sizeof([]Value(nil))) + 3*int64(unsafe.Sizeof(Value{}))
	if got, want := r.SizeBytes(), rows*perRow+stringBytes; got != want {
		t.Fatalf("SizeBytes = %d, want %d rows x %d + %d string bytes = %d", got, rows, perRow, stringBytes, want)
	}
}

// A stream drained batch by batch (DrainStream appends 256 tuples at a time)
// must regrow the tuple slice O(log N) times, not once per batch.
func TestRelationGrowIsGeometric(t *testing.T) {
	const batch, n = 256, 1 << 16
	r := New("r", NewSchema(Attr{Name: "a", Kind: KindInt}))
	chunk := make([]Tuple, batch)
	for i := range chunk {
		chunk[i] = Tuple{Int(int64(i))}
	}
	reallocs := 0
	for r.Len() < n {
		before := cap(r.tuples)
		if err := r.AppendAll(chunk); err != nil {
			t.Fatal(err)
		}
		if cap(r.tuples) != before {
			reallocs++
		}
	}
	if limit := 4 * bits.Len(n); reallocs > limit {
		t.Fatalf("%d tuples in %d batches reallocated %d times, want at most %d", n, n/batch, reallocs, limit)
	}
}
