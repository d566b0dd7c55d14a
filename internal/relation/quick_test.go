package relation

import (
	"testing"
	"testing/quick"
)

// Property tests via testing/quick on the core data structures.

func tupleOf(xs []int16) Tuple {
	t := make(Tuple, len(xs))
	for i, x := range xs {
		t[i] = Int(int64(x))
	}
	return t
}

func relOf(name string, rows [][2]int16) *Relation {
	r := New(name, NewSchema(Attr{Name: "a", Kind: KindInt}, Attr{Name: "b", Kind: KindInt}))
	for _, row := range rows {
		r.MustAppend(Tuple{Int(int64(row[0])), Int(int64(row[1]))})
	}
	return r
}

// Tuple keys are consistent with equality.
func TestQuickTupleKeyEquality(t *testing.T) {
	f := func(a, b []int16) bool {
		ta, tb := tupleOf(a), tupleOf(b)
		return (ta.Key() == tb.Key()) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Distinct is idempotent and never grows the relation.
func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(rows [][2]int16) bool {
		r := relOf("r", rows)
		d1 := DistinctRel(r)
		d2 := DistinctRel(d1)
		return d1.Len() <= r.Len() && d1.EqualAsBag(d2) && d1.EqualAsSet(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Union length is the sum of the inputs (bag semantics), and set-equality is
// commutative over union.
func TestQuickUnionProperties(t *testing.T) {
	f := func(a, b [][2]int16) bool {
		ra, rb := relOf("a", a), relOf("b", b)
		u1 := chainRel(ra, rb)
		u2 := chainRel(rb, ra)
		return u1.Len() == ra.Len()+rb.Len() && u1.EqualAsSet(u2) && u1.EqualAsBag(u2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Sorting preserves the bag and orders the first column.
func TestQuickSortPreservesBag(t *testing.T) {
	f := func(rows [][2]int16) bool {
		r := relOf("r", rows)
		s := r.Clone().SortBy([]int{0})
		if !s.EqualAsBag(r) {
			return false
		}
		for i := 1; i < s.Len(); i++ {
			if s.Tuple(i)[0].Less(s.Tuple(i - 1)[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Select with complementary conditions partitions the relation.
func TestQuickSelectPartition(t *testing.T) {
	f := func(rows [][2]int16, pivot int16) bool {
		r := relOf("r", rows)
		lo := selectRel(r, []Cond{ColConst(0, OpLt, Int(int64(pivot)))})
		hi := selectRel(r, []Cond{ColConst(0, OpGe, Int(int64(pivot)))})
		return lo.Len()+hi.Len() == r.Len() && chainRel(lo, hi).EqualAsBag(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Index lookups agree with scans for arbitrary data and keys.
func TestQuickIndexAgreesWithScan(t *testing.T) {
	f := func(rows [][2]int16, key int16) bool {
		r := relOf("r", rows)
		ix := BuildIndex(r, []int{0})
		viaIx := FromTuples("i", r.Schema(), ix.AppendLookupIn(nil, r.Tuples(), []Value{Int(int64(key))}))
		viaScan := selectRel(r, []Cond{ColConst(0, OpEq, Int(int64(key)))})
		return viaIx.EqualAsBag(viaScan)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
