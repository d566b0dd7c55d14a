package relation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
		it := pt.Probe(NewSliceIterator(probe), nil, nil)
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

// FuzzJoinProject holds the fused join kernels to the unfused pipeline:
// Probe(left, post, cols) and NestedLoopJoin(…, post, cols) must emit exactly
// the rows, in the order, that Project(Select(concatenation, post), cols)
// emits, kinds included, and every emitted row must survive later pulls. The
// hash join's concatenation must also be the nested-loop join on Equal keys.
//
// Every seed emits at least three rows from both kernels.
//
// seed draws the arities (1–3 a side), up to 11 probe and 11 build rows over
// a palette with NULL, NaN, and Int(1) beside Float(1), and the key columns.
// form: bit 0 forces every probe row's hash to collide with every build row;
// bits 1–2 pick 1–3 partitions; bit 3 gives 40 build rows the first probe
// row's key; bit 4 makes cols nil (the concatenation itself); bit 5 adds a
// second key column pair; bit 6 draws keys from NULL and NaN alone. A column
// byte b names left column b % arity below 128 and right column (b-128) %
// arity from 128 up. colSpec lists the projected columns (empty: project
// onto no column); postSpec is (column, op, column) triples, the op byte's
// low bits picking the operator and bit 3 comparing with palette value op>>4
// instead of the second column.
func FuzzJoinProject(f *testing.F) {
	f.Add(int64(3), uint8(0), []byte{128, 0, 129, 1}, []byte(nil))       // reorder across the sides
	f.Add(int64(18), uint8(0), []byte{1, 0}, []byte(nil))                // left side only
	f.Add(int64(24), uint8(0), []byte{129, 128}, []byte(nil))            // right side only
	f.Add(int64(34), uint8(0), []byte{}, []byte(nil))                    // no column
	f.Add(int64(45), uint8(16), []byte(nil), []byte{0, byte(OpLe), 128}) // the concatenation, post over both sides
	f.Add(int64(59), uint8(0), []byte{1, 128}, []byte{0, byte(OpLt), 128, 1, byte(OpNe), 129})
	f.Add(int64(64), uint8(0), []byte{128, 0}, []byte{129, 8 | byte(OpGe) | 7<<4, 0}) // post against a constant
	f.Add(int64(74), uint8(64), []byte{0, 128}, []byte(nil))                          // NULL and NaN keys
	f.Add(int64(83), uint8(64|32), []byte{129, 1}, []byte(nil))                       // two key pairs, NULL and NaN
	f.Add(int64(93), uint8(1), []byte{0, 129}, []byte(nil))                           // forced collisions
	f.Add(int64(108), uint8(1|16), []byte(nil), []byte{128, byte(OpGt), 0})           // collisions, concatenation, post
	f.Add(int64(113), uint8(8), []byte{129, 0}, []byte(nil))                          // one probe row, many matches
	f.Add(int64(125), uint8(8|1), []byte{128}, []byte{129, byte(OpNe), 1})            // many matches, collisions, post
	f.Add(int64(133), uint8(4), []byte{0, 0, 128, 128}, []byte(nil))                  // three partitions, repeated columns
	f.Fuzz(func(t *testing.T, seed int64, form uint8, colSpec, postSpec []byte) {
		checkJoinProject(t, seed, form, colSpec, postSpec)
	})
}

// checkJoinProject is FuzzJoinProject's body. It returns how many rows the
// fused Probe and NestedLoopJoin emitted.
func checkJoinProject(t *testing.T, seed int64, form uint8, colSpec, postSpec []byte) (probed, nested int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	palette := []Value{Null(), Int(0), Int(1), Float(1), Float(math.NaN()), Str("a"), Str(""), Int(2)}
	la, ra := 1+rng.Intn(3), 1+rng.Intn(3)
	col := func(b byte) int {
		if b < 128 {
			return int(b) % la
		}
		return la + int(b-128)%ra
	}
	var conds []JoinCond
	for i := 0; i <= int(form>>5&1); i++ {
		conds = append(conds, JoinCond{Left: rng.Intn(la), Right: rng.Intn(ra)})
	}
	rows := func(n, arity int, keys []int) []Tuple {
		out := make([]Tuple, n)
		for i := range out {
			out[i] = make(Tuple, arity)
			for j := range out[i] {
				out[i][j] = palette[rng.Intn(len(palette))]
			}
			if form&64 != 0 {
				for _, k := range keys {
					out[i][k] = palette[4*rng.Intn(2)]
				}
			}
		}
		return out
	}
	var lk, rk []int
	for _, c := range conds {
		lk, rk = append(lk, c.Left), append(rk, c.Right)
	}
	left := rows(rng.Intn(12), la, lk)
	nr := rng.Intn(12)
	if form&8 != 0 {
		nr = 40
	}
	right := rows(nr, ra, rk)
	if form&8 != 0 && len(left) > 0 {
		for _, r := range right {
			for _, c := range conds {
				r[c.Right] = left[0][c.Left]
			}
		}
	}
	var cols []int
	if form&16 == 0 {
		cols = make([]int, 0, len(colSpec))
		for _, b := range colSpec {
			cols = append(cols, col(b))
		}
	}
	var post []Cond
	for i := 0; i+2 < len(postSpec); i += 3 {
		l, op, r := col(postSpec[i]), postSpec[i+1], postSpec[i+2]
		if op&8 != 0 {
			post = append(post, ColConst(l, CmpOp(op&7%6), palette[op>>4%8]))
		} else {
			post = append(post, ColCol(l, CmpOp(op&7%6), col(r)))
		}
	}
	unfused := func(concat Iterator, post []Cond) []Tuple {
		it := Select(concat, post)
		if cols != nil {
			it = Project(it, cols)
		}
		return Take(it, math.MaxInt)
	}
	check := func(kernel string, got, want []Tuple) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d\ngot  %v\nwant %v", kernel, len(got), len(want), got, want)
		}
		for i := range want {
			if !sameRow(got[i], want[i]) {
				t.Fatalf("%s: row %d is %v, want %v\ngot  %v\nwant %v", kernel, i, got[i], want[i], got, want)
			}
		}
	}

	var pt *PartitionedTable
	if form&1 != 0 {
		pt = collidingTable(right, left, conds)
	} else {
		pt = NewPartitionedTable(NewSliceIterator(right), conds, 1+int(form>>1&3)%3)
	}
	probe := func(post []Cond, cols []int) Iterator { return pt.Probe(NewSliceIterator(left), post, cols) }
	got := Take(probe(post, cols), math.MaxInt)
	check("Probe", got, unfused(probe(nil, nil), post))
	probed = len(got)

	keyed := make([]Cond, 0, len(conds)+len(post))
	for _, c := range conds {
		keyed = append(keyed, ColCol(c.Left, OpEq, la+c.Right))
	}
	loop := func(conds []Cond, cols []int) Iterator {
		return NestedLoopJoin(NewSliceIterator(left), NewSliceIterator(right), la, conds, cols)
	}
	check("hash join against nested loop", Take(probe(nil, nil), math.MaxInt), Take(loop(keyed, nil), math.MaxInt))
	// The nested-loop kernel joins on the keys as post conditions.
	keyed = append(keyed, post...)
	got = Take(loop(keyed, cols), math.MaxInt)
	check("NestedLoopJoin", got, unfused(loop(nil, nil), keyed))
	return probed, len(got)
}

// collidingTable is NewPartitionedTable(build, conds, 1) with every hash
// colliding: each probe row's chain holds every build row, in build order.
func collidingTable(build, probe []Tuple, conds []JoinCond) *PartitionedTable {
	pt := NewPartitionedTable(Empty(), conds, 1)
	var head *buildRow
	for i := len(build) - 1; i >= 0; i-- {
		head = &buildRow{t: build[i], next: head}
	}
	for _, p := range probe {
		pt.parts[0][p.Hash64On(pt.leftCols)] = head
	}
	return pt
}

// sameRow reports whether a and b hold Equal values of the same kinds.
func sameRow(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) || a[i].Kind() != b[i].Kind() {
			return false
		}
	}
	return true
}
