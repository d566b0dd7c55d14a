package relation

import (
	"runtime"
	"testing"
)

func TestAggregateGlobal(t *testing.T) {
	r := mkRel(t, "r", []any{1, 10}, []any{2, 20}, []any{3, 30})
	out := Aggregate(r.Iter(), nil, []AggSpec{
		{Op: AggCount, Col: -1},
		{Op: AggSum, Col: 1},
		{Op: AggMin, Col: 1},
		{Op: AggMax, Col: 1},
		{Op: AggAvg, Col: 1},
	})
	if len(out) != 1 {
		t.Fatalf("global aggregate rows = %d", len(out))
	}
	row := out[0]
	if row[0].AsInt() != 3 || row[1].AsFloat() != 60 || row[2].AsInt() != 10 || row[3].AsInt() != 30 || row[4].AsFloat() != 20 {
		t.Fatalf("aggregate row wrong: %v", row)
	}
}

func TestAggregateGroupBy(t *testing.T) {
	r := mkRel(t, "r", []any{1, 10}, []any{1, 30}, []any{2, 5})
	out := Aggregate(r.Iter(), []int{0}, []AggSpec{{Op: AggSum, Col: 1}, {Op: AggCount, Col: -1}})
	if len(out) != 2 {
		t.Fatalf("grouped rows = %d", len(out))
	}
	byKey := map[int64]Tuple{}
	for _, tu := range out {
		byKey[tu[0].AsInt()] = tu
	}
	if byKey[1][1].AsFloat() != 40 || byKey[1][2].AsInt() != 2 {
		t.Fatalf("group 1 wrong: %v", byKey[1])
	}
	if byKey[2][1].AsFloat() != 5 || byKey[2][2].AsInt() != 1 {
		t.Fatalf("group 2 wrong: %v", byKey[2])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	r := New("r", NewSchema(Attr{"x", KindInt}))
	global := Aggregate(r.Iter(), nil, []AggSpec{{Op: AggCount, Col: -1}, {Op: AggMin, Col: 0}})
	if len(global) != 1 || global[0][0].AsInt() != 0 || !global[0][1].IsNull() {
		t.Fatalf("empty global aggregate wrong: %v", global)
	}
	grouped := Aggregate(r.Iter(), []int{0}, []AggSpec{{Op: AggCount, Col: -1}})
	if len(grouped) != 0 {
		t.Fatalf("empty grouped aggregate should have no rows, got %d", len(grouped))
	}
}

func TestAggregateMinMaxStrings(t *testing.T) {
	r := mkRel(t, "r", []any{"b"}, []any{"a"}, []any{"c"})
	out := Aggregate(r.Iter(), nil, []AggSpec{{Op: AggMin, Col: 0}, {Op: AggMax, Col: 0}})
	row := out[0]
	if row[0].AsString() != "a" || row[1].AsString() != "c" {
		t.Fatalf("string min/max wrong: %v", row)
	}
}

// Groups are found by hash and told apart by value: keys whose hashes collide
// stay separate groups, in first-seen order, through Add-like lookups and
// Merge.
func TestAggAccumSeparatesCollidingKeys(t *testing.T) {
	specs := []AggSpec{{Op: AggCount, Col: -1}}
	keys := []Tuple{{Str("a")}, {Str("b")}, {Int(1)}, {Str("a")}, {Float(1)}}
	fill := func() *AggAccum {
		a := NewAggAccum([]int{0}, specs, 0)
		for _, k := range keys {
			a.group(42, k, a.groupBy).states[0].count++ // one hash for every key
		}
		return a
	}
	a := fill()
	a.Merge(fill())
	got := a.Emit()
	want := []Tuple{{Str("a"), Int(4)}, {Str("b"), Int(2)}, {Int(1), Int(4)}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("groups = %v, want %v", got, want)
		}
	}
}

// A tuple that joins an existing group allocates nothing.
func TestAggAccumAddToExistingGroupAllocatesNothing(t *testing.T) {
	tuples := benchTuples(4096, 3) // 512 distinct values in column 0
	a := NewAggAccum([]int{0}, []AggSpec{{Op: AggCount, Col: -1}, {Op: AggSum, Col: 2}}, 0)
	for _, tu := range tuples {
		a.Add(tu)
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, tu := range tuples {
			a.Add(tu)
		}
	}); n != 0 {
		t.Fatalf("%d tuples into existing groups: %v allocations, want 0", len(tuples), n)
	}
}

// New groups allocate per block: 5 000 groups of three specs cost the key
// arena's blocks, the state blocks, the group blocks and the growth of the
// heads map, not an allocation per group (5 079 when each group made its own
// states). Nor does the group table copy itself as it grows: the keys,
// states, groups and heads map of the 5 000 groups take at most 1.8 MB.
// When the groups lived in one slice that append regrew, they took 2.49 MB;
// carved from blocks, 1.66 MB. Told to expect the 5 000 groups, the table
// sizes its heads map and its first blocks for them, and does not grow
// them: 98 allocations fall to at most 72.
func TestAggAccumNewGroupAllocs(t *testing.T) {
	tuples := make([]Tuple, 5000)
	for i := range tuples {
		tuples[i] = Tuple{Int(int64(i)), Float(float64(i) / 3)}
	}
	specs := []AggSpec{{Op: AggCount, Col: -1}, {Op: AggSum, Col: 1}, {Op: AggMax, Col: 1}}
	for _, tc := range []struct {
		groups int
		allocs float64
		bytes  float64
	}{
		{0, 128, 1.8e6},
		{len(tuples), 72, 1.6e6},
	} {
		fill := func() {
			a := NewAggAccum([]int{0}, specs, tc.groups)
			for _, tu := range tuples {
				a.Add(tu)
			}
		}
		if n := testing.AllocsPerRun(10, fill); n > tc.allocs {
			t.Errorf("%d new groups, %d expected: %v allocations, budget %v", len(tuples), tc.groups, n, tc.allocs)
		}
		if b := bytesPerRun(10, fill); b > tc.bytes {
			t.Errorf("%d new groups, %d expected: %.0f bytes, budget %.1f MB", len(tuples), tc.groups, b, tc.bytes/1e6)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// A parallel aggregate merges partials 1..k into partial 0. That must emit
// what merging 0..k into a fresh accumulator emits: the same rows in the same
// order, float sums equal to the bit. 1 200 groups of five specs span
// several state blocks. The partials are sized for 1 000 groups, as the
// parallel executor sizes its workers' from the optimizer's estimate; the
// fresh accumulator is not sized.
func TestAggAccumMergeIntoPartial(t *testing.T) {
	specs := []AggSpec{{Op: AggCount, Col: -1}, {Op: AggSum, Col: 1}, {Op: AggMin, Col: 1}, {Op: AggMax, Col: 1}, {Op: AggAvg, Col: 1}}
	const k, rows = 4, 6000
	partials := func() []*AggAccum {
		ps := make([]*AggAccum, k)
		for w := range ps {
			ps[w] = NewAggAccum([]int{0}, specs, 1000)
		}
		for i := 0; i < rows; i++ {
			// Worker w sees keys 0..600+200w-1, in an order of its own, so
			// merges both add groups and fold them.
			w, j := i%k, i/k
			key := (j*7919 + w*301) % (600 + 200*w)
			ps[w].Add(Tuple{Int(int64(key)), Float(float64(i)*0.1 + 1e9/float64(i+1))})
		}
		return ps
	}
	ps := partials()
	fresh := NewAggAccum([]int{0}, specs, 0)
	for _, p := range ps {
		fresh.Merge(p)
	}
	want := fresh.Emit()
	ps = partials()
	for _, p := range ps[1:] {
		ps[0].Merge(p)
	}
	got := ps[0].Emit()
	if len(want) != 1200 || len(got) != len(want) {
		t.Fatalf("in place: %d groups, fresh: %d, want 1200", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if g.Kind() != w.Kind() || !g.Equal(w) || g.Kind() == KindFloat && g.n != w.n {
				t.Fatalf("row %d col %d: in place %v, fresh %v", i, j, g, w)
			}
		}
	}
}

func TestParseAggOp(t *testing.T) {
	for _, s := range []string{"COUNT", "SUM", "MIN", "MAX", "AVG", "count", "avg"} {
		if _, err := ParseAggOp(s); err != nil {
			t.Errorf("ParseAggOp(%q): %v", s, err)
		}
	}
	if _, err := ParseAggOp("MEDIAN"); err == nil {
		t.Error("expected error for unsupported aggregate")
	}
}
