// Package relation implements the tuple/relation substrate shared by the
// BrAID Cache Management System and the simulated remote DBMS: typed values,
// schemas, relation extensions, lazy iterators (the paper's "generators"),
// relational operators, and hash indexes.
//
// The package corresponds to the storage and query-processor substrate of
// Sections 5.1 and 5.4 of Sheth & O'Hare, "The Architecture of BrAID" (ICDE
// 1991).
package relation

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the BrAID data model. KindNull is the absence
// of a value (used for outer operations and uninitialized cells).
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar in two words. The zero Value is the
// null value. Values are small and passed by value everywhere.
//
// p says what the value is and n carries the payload:
//
//	p == nil                 null
//	p == &kindTags[k]        int, float or bool: n holds the int64, the
//	                         float64's bits, or 0/1; the fourth tag is the
//	                         empty string (n == 0)
//	any other p              a string's data pointer, n its length
//
// A string Value keeps its backing array alive through p exactly as the
// string did, and the tag bytes are package-level, so the garbage collector
// needs no help. This file is the only one that imports unsafe; everything
// else, hash.go included, goes through the accessors.
type Value struct {
	// The zero-size func array makes Value non-comparable: == and map
	// keying would compare a string's data pointer instead of its bytes,
	// so they must not compile. Use Equal, Compare, Hash or Key.
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// kindTags are the addresses p takes for the kinds that carry no pointer.
// They are laid out in Kind order from KindInt (the empty string stands in
// KindString's place), so Kind is an offset, not a chain of comparisons.
// No string's data can lie inside the array: it is never handed out.
var kindTags [4]byte

// valueBytes and sliceHeaderBytes are what the SizeBytes estimates charge
// per cell and per tuple.
const (
	valueBytes       = int64(unsafe.Sizeof(Value{}))
	sliceHeaderBytes = int64(unsafe.Sizeof([]Value(nil)))
)

func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&kindTags[k-KindInt]) }

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{p: tag(KindInt), n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{p: tag(KindFloat), n: math.Float64bits(v)} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.) The value shares v's bytes.
func String_(v string) Value {
	if len(v) == 0 {
		return Value{p: tag(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Str is shorthand for String_.
func Str(v string) Value { return String_(v) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{p: tag(KindBool), n: 1}
	}
	return Value{p: tag(KindBool)}
}

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind {
	if v.p == nil {
		return KindNull
	}
	if off := uintptr(v.p) - uintptr(unsafe.Pointer(&kindTags)); off < uintptr(len(kindTags)) {
		return KindInt + Kind(off)
	}
	return KindString
}

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.p == nil }

// AsInt returns the integer payload; it is only meaningful when Kind is
// KindInt (and zero otherwise).
func (v Value) AsInt() int64 {
	if v.p != tag(KindInt) {
		return 0
	}
	return int64(v.n)
}

// AsFloat returns the numeric payload as a float64 for KindInt and KindFloat
// (and zero otherwise).
func (v Value) AsFloat() float64 {
	switch v.p {
	case tag(KindInt):
		return float64(int64(v.n))
	case tag(KindFloat):
		return math.Float64frombits(v.n)
	}
	return 0
}

// AsString returns the string payload; only meaningful for KindString (and
// empty otherwise).
func (v Value) AsString() string {
	if v.n == 0 || v.Kind() != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// AsBool returns the boolean payload; only meaningful for KindBool (and
// false otherwise).
func (v Value) AsBool() bool { return v.p == tag(KindBool) && v.n != 0 }

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.p == tag(KindInt) || v.p == tag(KindFloat) }

// Equal reports whether two values are equal: exactly when Compare returns
// 0. Ints and floats compare numerically across kinds, NaN equals NaN (as in
// PostgreSQL), and null equals only null.
func (v Value) Equal(o Value) bool {
	vk, ok := v.Kind(), o.Kind()
	switch {
	case vk == KindInt && ok == KindInt:
		return v.n == o.n
	case v.IsNumeric() && o.IsNumeric():
		a, b := v.AsFloat(), o.AsFloat()
		return a == b || (a != a && b != b)
	case vk != ok:
		return false
	case vk == KindString:
		return v.AsString() == o.AsString()
	default: // null or bool
		return v.n == o.n
	}
}

// Compare returns -1, 0, or +1 ordering v relative to o. The total order is:
// null < bool (false<true) < numeric < string; numerics compare numerically
// across int/float, and NaN sorts after every other number (as in
// PostgreSQL), so sorts, TopN, DISTINCT and GROUP BY all see one NaN.
func (v Value) Compare(o Value) int {
	vk, ok := v.Kind(), o.Kind()
	if vr, or := vk.rank(), ok.rank(); vr != or {
		return cmp.Compare(vr, or)
	}
	switch vk {
	case KindNull:
		return 0
	case KindBool:
		return cmp.Compare(v.n, o.n)
	case KindInt, KindFloat:
		if vk == KindInt && ok == KindInt {
			return cmp.Compare(int64(v.n), int64(o.n))
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b || (b != b && a == a):
			return -1
		case a > b || (a != a && b == b):
			return 1
		default: // equal, or both NaN
			return 0
		}
	default: // string
		return strings.Compare(v.AsString(), o.AsString())
	}
}

func (k Kind) rank() int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

// Less reports whether v orders before o.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Hash returns a 64-bit hash of the value, consistent with Equal (numerically
// equal int/float values, −0 and +0 among them, hash identically, as do all
// NaNs). It allocates nothing.
func (v Value) Hash() uint64 {
	return v.hashInto(fnvOffset64)
}

// String renders the value in CAQL literal syntax: integers and floats bare,
// strings double-quoted, booleans true/false, null as "null".
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.AsBool())
	}
	var buf [32]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends the bytes of String to dst. A finite float always
// has a point or an exponent, so 50.0 prints as 50.0 and −0.0 as -0.0, and
// reads back as a float rather than an int.
func (v Value) AppendString(dst []byte) []byte {
	switch v.Kind() {
	case KindNull:
		return append(dst, "null"...)
	case KindInt:
		return strconv.AppendInt(dst, v.AsInt(), 10)
	case KindFloat:
		start := len(dst)
		f := v.AsFloat()
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		if !math.IsInf(f, 0) && f == f && !bytes.ContainsAny(dst[start:], ".e") {
			dst = append(dst, ".0"...)
		}
		return dst
	case KindString:
		return strconv.AppendQuote(dst, v.AsString())
	default:
		return strconv.AppendBool(dst, v.AsBool())
	}
}

// numericKey is AsFloat with −0 folded into +0 and every NaN payload into
// one: the number Hash and Key know a numeric value by, so that values Equal
// calls equal share both.
func (v Value) numericKey() float64 {
	switch f := v.AsFloat(); {
	case f == 0:
		return 0
	case f != f:
		return math.NaN()
	default:
		return f
	}
}

// Key returns a string usable as a map key, consistent with Equal.
func (v Value) Key() string {
	switch v.Kind() {
	case KindNull:
		return "n"
	case KindBool:
		if v.AsBool() {
			return "bt"
		}
		return "bf"
	}
	var buf [32]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends the bytes of Key to dst.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.Kind() {
	case KindNull:
		return append(dst, 'n')
	case KindBool:
		if v.AsBool() {
			return append(dst, "bt"...)
		}
		return append(dst, "bf"...)
	case KindInt, KindFloat:
		return strconv.AppendFloat(append(dst, 'f'), v.numericKey(), 'b', -1, 64)
	default:
		return append(append(dst, 's'), v.AsString()...)
	}
}
