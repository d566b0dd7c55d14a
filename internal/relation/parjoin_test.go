package relation

import (
	"errors"
	"fmt"
	"testing"
)

// keyedRows returns n rows (i mod keys, i).
func keyedRows(n, keys int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{Int(int64(i % keys)), Int(int64(i))}
	}
	return out
}

// A build allocates per block of rows and per map growth, never per row or
// per key (a slice per key cost 2 581, 5 052 and 7 allocations).
func TestPartitionedTableAllocs(t *testing.T) {
	conds := []JoinCond{{Left: 0, Right: 0}}
	for _, tc := range []struct {
		rows, keys, parts int
		budget            float64
	}{
		{8192, 512, 1, 64},
		{5000, 5000, 1, 96},
		{5000, 5000, 2, 96},
		{1, 1, 1, 8},
	} {
		rows := keyedRows(tc.rows, tc.keys)
		n := testing.AllocsPerRun(10, func() {
			NewPartitionedTable(NewSliceIterator(rows), conds, tc.parts)
		})
		if n > tc.budget {
			t.Errorf("%d rows over %d keys in %d partitions: %v allocations, budget %v", tc.rows, tc.keys, tc.parts, n, tc.budget)
		}
	}
}

// A probe emits a probe tuple's matches in build order at any partition
// count: HashJoin's output order is what a serial stream's skip-based resume
// replays. Covers duplicate keys spread over several row blocks, keys Equal
// across kinds (Int(1) and Float(1) share a hash, so a chain), an empty
// build, and a build its guard cut short.
func TestPartitionedTableProbesInBuildOrder(t *testing.T) {
	conds := []JoinCond{{Left: 0, Right: 0}}
	var build []Tuple
	for i := 0; i < 300; i++ {
		var k Value
		switch i % 5 {
		case 0:
			k = Int(1)
		case 1:
			k = Float(1)
		case 2:
			k = Str("s")
		default:
			k = Int(int64(i % 7))
		}
		build = append(build, Tuple{k, Int(int64(i))})
	}
	probe := []Tuple{{Int(1)}, {Str("s")}, {Float(1)}, {Int(3)}, {Str("none")}, {Int(1)}}
	// want is the nested-loop join: each probe tuple, then the build rows
	// Equal on the key, in build order.
	want := func(build []Tuple) []Tuple {
		var out []Tuple
		for _, p := range probe {
			for _, b := range build {
				if p[0].Equal(b[0]) {
					out = append(out, Tuple{p[0], b[0], b[1]})
				}
			}
		}
		return out
	}
	check := func(name string, pt *PartitionedTable, want []Tuple) {
		t.Helper()
		var got []Tuple
		it := pt.Probe(NewSliceIterator(probe))
		for tu, ok := it.Next(); ok; tu, ok = it.Next() {
			got = append(got, tu)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) || got[i][1].Kind() != want[i][1].Kind() {
				t.Fatalf("%s: row %d is %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	errStop := errors.New("stop")
	for _, parts := range []int{1, 3} {
		check(fmt.Sprintf("parts %d", parts), NewPartitionedTable(NewSliceIterator(build), conds, parts), want(build))
		check(fmt.Sprintf("parts %d, empty build", parts), NewPartitionedTable(Empty(), conds, parts), nil)
		// Checkpoints at rows 0, 16 and 32; the third fails.
		checks := 0
		guard := NewGuardIterator(NewSliceIterator(build), 16, func() error {
			if checks++; checks == 3 {
				return errStop
			}
			return nil
		})
		pt := NewPartitionedTable(guard, conds, parts)
		if !errors.Is(guard.Err(), errStop) {
			t.Fatalf("parts %d: guard err %v", parts, guard.Err())
		}
		check(fmt.Sprintf("parts %d, cut short", parts), pt, want(build[:32]))
	}
}
