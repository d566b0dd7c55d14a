package relation

import (
	"math"
	"math/rand"
	"testing"
)

func TestIndexLookup(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{2, "y"}, []any{1, "z"})
	ix := BuildIndex(r, []int{0})
	got := ix.Lookup([]Value{Int(1)})
	if len(got) != 2 {
		t.Fatalf("index lookup got %d, want 2", len(got))
	}
	if len(ix.Lookup([]Value{Int(9)})) != 0 {
		t.Fatal("lookup of absent key should be empty")
	}
	if !ix.Covers([]int{0}) || ix.Covers([]int{1}) || ix.Covers([]int{0, 1}) {
		t.Fatal("Covers broken")
	}
}

func TestIndexMultiColumn(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{1, "y"}, []any{2, "x"})
	ix := BuildIndex(r, []int{0, 1})
	got := ix.Lookup([]Value{Int(1), Str("x")})
	if len(got) != 1 {
		t.Fatalf("multi-col lookup got %d, want 1", len(got))
	}
}

func TestIndexAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		r := New("r", NewSchema(Attr{"x", KindInt}, Attr{"y", KindInt}))
		for i := 0; i < 50; i++ {
			r.MustAppend(Tuple{Int(int64(rng.Intn(8))), Int(int64(rng.Intn(8)))})
		}
		ix := BuildIndex(r, []int{0})
		for k := int64(0); k < 8; k++ {
			viaIndex := FromTuples("i", r.Schema(), ix.Lookup([]Value{Int(k)}))
			viaScan := SelectRel(r, []Cond{ColConst(0, OpEq, Int(k))})
			if !viaIndex.EqualAsBag(viaScan) {
				t.Fatalf("index and scan disagree for key %d", k)
			}
		}
	}
}

// TestIndexFindsNegativeZero: −0.0, +0.0 and 0 are Equal, so an index lookup
// of any of them must return every row holding any of them, as the select
// path does.
func TestIndexFindsNegativeZero(t *testing.T) {
	r := New("r", NewSchema(Attr{"x", KindFloat}, Attr{"y", KindInt}))
	r.MustAppend(Tuple{Float(math.Copysign(0, -1)), Int(1)})
	r.MustAppend(Tuple{Float(0), Int(2)})
	r.MustAppend(Tuple{Float(1), Int(3)})
	ix := BuildIndex(r, []int{0})
	for _, k := range []Value{Int(0), Float(0), Float(math.Copysign(0, -1))} {
		viaIndex := FromTuples("i", r.Schema(), ix.Lookup([]Value{k}))
		viaScan := SelectRel(r, []Cond{ColConst(0, OpEq, k)})
		if viaScan.Len() != 2 || !viaIndex.EqualAsBag(viaScan) {
			t.Errorf("key %v: index finds %v, scan %v", k, viaIndex.Tuples(), viaScan.Tuples())
		}
	}
}

func TestIndexSizeAccounting(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{2, "y"})
	ix := BuildIndex(r, []int{0})
	if ix.SizeBytes() <= 0 {
		t.Fatal("index size should be positive")
	}
	if r.SizeBytes() <= 0 {
		t.Fatal("relation size should be positive")
	}
}
