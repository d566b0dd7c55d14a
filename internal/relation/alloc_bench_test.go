package relation

import "testing"

// Allocation benchmarks for the hot tuple paths (EXPERIMENTS.md records the
// before/after numbers). These guard the hash-keyed fast paths: Tuple.Hash64
// vs the string Key, Distinct's dedup set, and the hash-join build/probe.

func benchTuples(n, arity int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		t := make(Tuple, arity)
		for j := range t {
			switch j % 3 {
			case 0:
				t[j] = Int(int64(i % 512))
			case 1:
				t[j] = Str("value-string")
			default:
				t[j] = Float(float64(i) / 3)
			}
		}
		out[i] = t
	}
	return out
}

// BenchmarkTupleKey measures the per-tuple cost of the legacy string map key.
func BenchmarkTupleKey(b *testing.B) {
	tuples := benchTuples(1024, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tuples[i%len(tuples)].Key()
	}
}

// BenchmarkTupleHash64 measures the allocation-free 64-bit tuple hash that
// replaces Key on the hot paths.
func BenchmarkTupleHash64(b *testing.B) {
	tuples := benchTuples(1024, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tuples[i%len(tuples)].Hash64()
	}
}

// BenchmarkDistinct deduplicates a relation with ~50% duplicates.
func BenchmarkDistinct(b *testing.B) {
	schema := NewSchema(
		Attr{Name: "a", Kind: KindInt},
		Attr{Name: "b", Kind: KindString},
		Attr{Name: "c", Kind: KindFloat})
	r := New("r", schema)
	for i := 0; i < 8192; i++ {
		r.MustAppend(Tuple{Int(int64(i % 4096)), Str("dup-payload"), Float(float64(i % 4096))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DistinctRel(r)
	}
}

// BenchmarkAggAccum builds two 2 500-group partials of a GROUP BY and merges
// the second into the first, as a dop-2 parallel aggregate does.
func BenchmarkAggAccum(b *testing.B) {
	tuples := make([]Tuple, 10000)
	for i := range tuples {
		tuples[i] = Tuple{Int(int64(i % 2500)), Float(float64(i) / 3)}
	}
	specs := []AggSpec{{Op: AggCount, Col: -1}, {Op: AggSum, Col: 1}, {Op: AggMax, Col: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p0, p1 := NewAggAccum([]int{0}, specs, 0), NewAggAccum([]int{0}, specs, 0)
		for _, tu := range tuples[:5000] {
			p0.Add(tu)
		}
		for _, tu := range tuples[5000:] {
			p1.Add(tu)
		}
		p0.Merge(p1)
		p0.Emit()
	}
}

// BenchmarkHashJoin joins 8k x 8k rows on a skewed key (512 distinct values).
func BenchmarkHashJoin(b *testing.B) {
	mk := func(n int, name string) *Relation {
		r := New(name, NewSchema(
			Attr{Name: "a", Kind: KindInt},
			Attr{Name: "b", Kind: KindInt}))
		for i := 0; i < n; i++ {
			r.MustAppend(Tuple{Int(int64(i % 512)), Int(int64(i))})
		}
		return r
	}
	l, r := mk(8192, "l"), mk(8192, "r")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(HashJoin(l.Iter(), r.Iter(), []JoinCond{{Left: 0, Right: 0}}))
	}
}
