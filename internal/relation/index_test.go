package relation

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestIndexLookup(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{2, "y"}, []any{1, "z"})
	ix := BuildIndex(r, []int{0})
	got := ix.AppendLookupIn(nil, r.Tuples(), []Value{Int(1)})
	if len(got) != 2 {
		t.Fatalf("index lookup got %d, want 2", len(got))
	}
	if len(ix.AppendLookupIn(nil, r.Tuples(), []Value{Int(9)})) != 0 {
		t.Fatal("lookup of absent key should be empty")
	}
	if !ix.Covers([]int{0}) || ix.Covers([]int{1}) || ix.Covers([]int{0, 1}) {
		t.Fatal("Covers broken")
	}
}

func TestIndexMultiColumn(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{1, "y"}, []any{2, "x"})
	ix := BuildIndex(r, []int{0, 1})
	got := ix.AppendLookupIn(nil, r.Tuples(), []Value{Int(1), Str("x")})
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
			viaIndex := FromTuples("i", r.Schema(), ix.AppendLookupIn(nil, r.Tuples(), []Value{Int(k)}))
			viaScan := selectRel(r, []Cond{ColConst(0, OpEq, Int(k))})
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
		viaIndex := FromTuples("i", r.Schema(), ix.AppendLookupIn(nil, r.Tuples(), []Value{k}))
		viaScan := selectRel(r, []Cond{ColConst(0, OpEq, k)})
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

// shipmentRel is the shape of caql_cold's shipment table: 16 000 rows, 8 to a
// key over 2 000 keys, the rows of one key spread over the table.
func shipmentRel() *Relation {
	r := New("shipment", NewSchema(Attr{"sid", KindInt}, Attr{"pid", KindInt}, Attr{"qty", KindInt}))
	for i := 0; i < 16_000; i++ {
		r.MustAppend(Tuple{Int(int64(i % 2_000)), Int(int64(i % 97)), Int(int64(i))})
	}
	return r
}

// An index keeps about 9 bytes a row, all of it in its array, so SizeBytes,
// which the CMS charges to its budget, is the index's real footprint; and
// its build allocates the index, its columns and its array, nothing per key
// (4 when start and pos were two arrays). The map of position slices it
// replaced kept 90 B a row here, reported 192 000 B of its 1 440 132, and
// took 8 068 allocations. Eight indexes are measured, so that
// the collector's noise averages out.
func TestIndexFootprint(t *testing.T) {
	r := shipmentRel()
	ixs := make([]*Index, 8)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range ixs {
		ixs[i] = BuildIndex(r, []int{0})
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	live := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(ixs))
	runtime.KeepAlive(ixs)

	size := float64(ixs[0].SizeBytes())
	t.Logf("%d rows: live %.0f B (%.1f B a row), SizeBytes %.0f", r.Len(), live, live/float64(r.Len()), size)
	if per := live / float64(r.Len()); per > 12 {
		t.Errorf("index keeps %.1f B a row, budget 12", per)
	}
	if math.Abs(size-live) > 0.1*live {
		t.Errorf("SizeBytes %.0f is not within 10%% of the live heap delta %.0f", size, live)
	}
	allocs := testing.AllocsPerRun(5, func() { ixs[0] = BuildIndex(r, []int{0}) })
	t.Logf("build: %.0f allocations", allocs)
	if allocs > 3 {
		t.Errorf("build makes %.0f allocations, budget 3", allocs)
	}
}

// FuzzIndexAgreesWithScan decodes its input into a relation of 0 to 64 rows
// over 1 to 3 int, float and string columns, an index on 1 or 2 of them, and
// keys to probe it with. Every key's AppendLookup must return the rows the
// equality scan (Select) returns, the same rows in the same order. The
// domains hold the values Equal treats specially: Int(0), +0.0 and −0.0 are
// equal, and so are NaNs of any payload. Each row's own key is probed too, so
// that most probes hit. Then an index over the first half of the rows is
// probed with every key again while the other half is appended, one row
// before each probe: AppendLookupIn over the grown extension must return the
// rows the scan of it returns.
func FuzzIndexAgreesWithScan(f *testing.F) {
	f.Add([]byte{})                                                      // one int column, no rows
	f.Add([]byte{0, 0, 8, 0, 1, 0, 1, 2, 3, 2, 1, 0, 9})                 // ints, repeated keys
	f.Add([]byte{1 << 2, 0, 6, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 6})   // floats: 0, −0, NaNs, probed with every kind
	f.Add([]byte{2 << 2, 0, 5, 0, 1, 2, 1, 0, 0, 1, 2, 9, 10, 11})       // strings, probed with numbers too
	f.Add([]byte{1 | 1<<4, 1 | 1<<3, 9, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1})   // an int and a float column, both indexed
	f.Add([]byte{2 | 1<<2 | 2<<6, 1 | 2<<1, 12, 3, 1, 4, 0, 2, 5, 1, 0}) // three columns, an index on (2, 0)
	f.Add([]byte{1 << 2, 1, 7, 1, 2, 3, 4, 5, 6, 0, 2, 3})               // an index on one column twice
	f.Add(append([]byte{0, 0, 64}, make([]byte, 64)...))                 // 64 rows of one key
	f.Fuzz(func(t *testing.T, data []byte) {
		r, cols, keys := decodeIndexCase(data)
		ix := BuildIndex(r, cols)
		var got []Tuple
		for _, key := range keys {
			conds := make([]Cond, len(cols))
			for i, c := range cols {
				conds[i] = ColConst(c, OpEq, key[i])
			}
			want := selectRel(r, conds).Tuples()
			got = ix.AppendLookup(got[:0], key)
			if len(got) != len(want) {
				t.Fatalf("%v on %v: index finds %d rows, scan %d\nrows %v", key, cols, len(got), len(want), r.Tuples())
			}
			for i := range got {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("%v on %v: row %d is %v, scan has %v", key, cols, i, got[i], want[i])
				}
			}
		}

		rows := r.Tuples()
		live := New("r", r.Schema())
		live.AppendAll(rows[:len(rows)/2])
		ix = BuildIndex(live, cols)
		for _, key := range keys {
			if n := live.Len(); n < len(rows) {
				live.MustAppend(rows[n])
			}
			conds := make([]Cond, len(cols))
			for i, c := range cols {
				conds[i] = ColConst(c, OpEq, key[i])
			}
			want := selectRel(live, conds).Tuples()
			got := ix.AppendLookupIn(nil, live.Tuples(), key)
			if len(got) != len(want) {
				t.Fatalf("%v on %v, %d rows indexed of %d: AppendLookupIn finds %d rows, scan %d",
					key, cols, ix.Rows(), live.Len(), len(got), len(want))
			}
			for i := range got {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("%v on %v, %d rows indexed of %d: row %d is %v, scan has %v", key, cols, ix.Rows(), live.Len(), i, got[i], want[i])
				}
			}
		}
	})
}

// indexFuzzValues are FuzzIndexAgreesWithScan's domains, by column kind.
var indexFuzzValues = [3][]Value{
	{Int(0), Int(1), Int(-1), Int(2)},
	{Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(1), Float(0.5)},
	{Str(""), Str("a"), Str("b")},
}

// decodeIndexCase is FuzzIndexAgreesWithScan's decoder. Byte 0 gives the
// column count (low two bits) and each column's kind (two bits each after),
// byte 1 the index's width and columns, byte 2 the row count; then come the
// rows' values, one byte each, and the probe keys, one byte per indexed
// column from every domain at once. Missing bytes read as zero.
func decodeIndexCase(data []byte) (r *Relation, cols []int, keys [][]Value) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	shape := next()
	arity := 1 + int(shape&3)%3
	attrs := make([]Attr, arity)
	kinds := make([]int, arity)
	for i := range attrs {
		kinds[i] = int(shape>>(2+2*i)&3) % 3
		attrs[i] = Attr{string(rune('a' + i)), [3]Kind{KindInt, KindFloat, KindString}[kinds[i]]}
	}
	ixb := next()
	cols = []int{int(ixb>>1&3) % arity}
	if ixb&1 != 0 {
		cols = append(cols, int(ixb>>3&3)%arity)
	}
	r = New("r", NewSchema(attrs...))
	for n := int(next()) % 65; n > 0; n-- {
		row := make(Tuple, arity)
		for i := range row {
			d := indexFuzzValues[kinds[i]]
			row[i] = d[int(next())%len(d)]
		}
		r.MustAppend(row)
	}
	var all []Value
	for _, d := range indexFuzzValues {
		all = append(all, d...)
	}
	for len(data) > 0 {
		key := make([]Value, len(cols))
		for i := range key {
			key[i] = all[int(next())%len(all)]
		}
		keys = append(keys, key)
	}
	for _, t := range r.Tuples() {
		key := make([]Value, len(cols))
		for i, c := range cols {
			key[i] = t[c]
		}
		keys = append(keys, key)
	}
	return r, cols, keys
}

// BenchmarkIndexBuildLookup builds an index on the 16 000-row shipment table
// and looks up each of its 2 000 keys.
func BenchmarkIndexBuildLookup(b *testing.B) {
	r := shipmentRel()
	keys := make([][]Value, 2_000)
	for k := range keys {
		keys[k] = []Value{Int(int64(k))}
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchIndex = BuildIndex(r, []int{0})
		}
	})
	b.Run("lookup", func(b *testing.B) {
		ix := BuildIndex(r, []int{0})
		var dst []Tuple
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				dst = ix.AppendLookup(dst[:0], k)
			}
		}
		benchRows = dst
	})
}

var (
	benchIndex *Index
	benchRows  []Tuple
)
