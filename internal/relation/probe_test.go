package relation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// indexOn returns an index of build on its first column.
func indexOn(build []Tuple) *Index {
	ix := new(Index)
	ix.Rebuild(build, []int{0})
	return ix
}

// probeIndex returns a probe of ix with left's columns on.
func probeIndex(ix *Index, on []int, left Iterator, post []Cond, cols []int, dst *Arena) Iterator {
	p := new(ProbeIter)
	p.Reset(ix, on, left, post, cols, dst)
	return p
}

// A probe emits a probe tuple's matches in build order, from a fresh index
// and from one rebuilt in place over a larger earlier build: HashJoin's
// output order is what a serial stream's skip-based resume replays. Covers
// duplicate keys, keys Equal across kinds (Int(1) and Float(1) share a hash,
// so a bucket), an empty build, and a build its guard cut short.
func TestIndexProbesInBuildOrder(t *testing.T) {
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
	probeRows := []Tuple{{Int(1)}, {Str("s")}, {Float(1)}, {Int(3)}, {Str("none")}, {Int(1)}}
	// want is the nested-loop join: each probe tuple, then the build rows
	// Equal on the key, in build order.
	want := func(build []Tuple) []Tuple {
		var out []Tuple
		for _, p := range probeRows {
			for _, b := range build {
				if p[0].Equal(b[0]) {
					out = append(out, Tuple{p[0], b[0], b[1]})
				}
			}
		}
		return out
	}
	check := func(name string, ix *Index, want []Tuple) {
		t.Helper()
		var got []Tuple
		it := probeIndex(ix, []int{0}, NewSliceIterator(probeRows), nil, nil, new(Arena))
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
	for _, reused := range []bool{false, true} {
		// index is a fresh index of rows, or one rebuilt in place over
		// the whole build on its second column.
		index := func(rows []Tuple) *Index {
			if !reused {
				return indexOn(rows)
			}
			ix := new(Index)
			ix.Rebuild(append(build, build...), []int{1})
			ix.Rebuild(rows, []int{0})
			return ix
		}
		name := fmt.Sprintf("rebuilt in place %v", reused)
		check(name, index(build), want(build))
		check(name+", empty build", index(nil), nil)
		// Checkpoints at rows 0, 16 and 32; the third fails.
		checks := 0
		guard := NewGuardIterator(NewSliceIterator(build), 16, func() error {
			if checks++; checks == 3 {
				return errStop
			}
			return nil
		})
		rows := Take(guard, math.MaxInt)
		if !errors.Is(guard.Err(), errStop) {
			t.Fatalf("%s: guard err %v", name, guard.Err())
		}
		check(name+", cut short", index(rows), want(build[:32]))
	}
}

// FuzzJoinProject holds the fused join kernels to the unfused pipeline: a
// ProbeIter (post, cols) and NestedLoopJoin(…, post, cols) must emit exactly
// the rows, in the order, that Project(Select(concatenation, post), cols)
// emits, kinds included. Each seed runs both ways a writer can be read: with
// no destination, copying each reused row as it arrives, and into an arena,
// where every emitted row must survive later pulls. The hash join's
// concatenation must also be the nested-loop join on Equal keys.
//
// Every seed emits at least three rows from both kernels.
//
// seed draws the arities (1–3 a side), up to 11 probe and 11 build rows over
// a palette with NULL, NaN, and Int(1) beside Float(1), and the key columns.
// form: bit 0 indexes the build rows in one bucket, so every probe row's
// candidates are every build row; bits 1–2 rebuild the index in place over
// 0–2 earlier builds first, so the probe reads reused storage; bit 3 gives
// 40 build rows the first probe row's key; bit 4 makes cols nil (the
// concatenation itself); bit 5 adds a second key column pair; bit 6 draws
// keys from NULL and NaN alone. A column
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
	f.Add(int64(133), uint8(4), []byte{0, 0, 128, 128}, []byte(nil))                  // two earlier builds, repeated columns
	f.Fuzz(func(t *testing.T, seed int64, form uint8, colSpec, postSpec []byte) {
		checkJoinProject(t, seed, form, colSpec, postSpec)
	})
}

// checkJoinProject is FuzzJoinProject's body. It returns how many rows the
// fused ProbeIter and NestedLoopJoin emitted.
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
			it = Project(it, cols, new(Arena))
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

	var ix *Index
	if form&1 != 0 {
		ix = oneBucketIndex(right, rk)
	} else {
		// The earlier builds: the probe rows on their keys, then the build
		// rows three times over.
		ix = new(Index)
		for i := range int(form>>1&3) % 3 {
			if i == 0 {
				ix.Rebuild(left, lk)
			} else {
				ix.Rebuild(append(append(append([]Tuple(nil), right...), right...), right...), rk)
			}
		}
		ix.Rebuild(right, rk)
	}
	keyed := make([]Cond, 0, len(conds)+len(post))
	for _, c := range conds {
		keyed = append(keyed, ColCol(c.Left, OpEq, la+c.Right))
	}
	// The references keep their rows in an arena.
	probe := func(post []Cond, cols []int, dst *Arena) Iterator {
		return probeIndex(ix, lk, NewSliceIterator(left), post, cols, dst)
	}
	loop := func(conds []Cond, cols []int, dst *Arena) Iterator {
		return NestedLoopJoin(NewSliceIterator(left), NewSliceIterator(right), la, conds, cols, dst)
	}
	check("hash join against nested loop", Take(probe(nil, nil, new(Arena)), math.MaxInt), Take(loop(keyed, nil, new(Arena)), math.MaxInt))
	// The nested-loop kernel joins on the keys as post conditions.
	nestedPost := append(keyed, post...)
	wantProbed := unfused(probe(nil, nil, new(Arena)), post)
	wantNested := unfused(loop(nil, nil, new(Arena)), nestedPost)
	for _, way := range []struct {
		name  string
		dst   func() *Arena
		drain func(Iterator) []Tuple
	}{
		{"reused row", func() *Arena { return nil }, takeCopies},
		{"arena", func() *Arena { return new(Arena) }, func(it Iterator) []Tuple { return Take(it, math.MaxInt) }},
	} {
		got := way.drain(probe(post, cols, way.dst()))
		check("Probe, "+way.name, got, wantProbed)
		probed = len(got)
		got = way.drain(loop(nestedPost, cols, way.dst()))
		check("NestedLoopJoin, "+way.name, got, wantNested)
		nested = len(got)
	}
	return probed, nested
}

// takeCopies drains it, copying each row as it arrives: what a consumer that
// keeps no row a writer hands out does.
func takeCopies(it Iterator) []Tuple {
	var out []Tuple
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		out = append(out, append(Tuple(nil), t...))
	}
	return out
}

// oneBucketIndex is an index of build on cols with one bucket: a probe's
// candidates are every build row, in build order.
func oneBucketIndex(build []Tuple, cols []int) *Index {
	ix := &Index{cols: cols, shift: 64, start: []int32{0, int32(len(build))}, tuples: build}
	for i := range build {
		ix.pos = append(ix.pos, int32(i))
	}
	return ix
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

// TestWritersReuseOneRow pins the writer contract. With no destination,
// ProbeIter, NestedLoopJoin and Project hand back one reused row, right at the
// pull that returns it; into an arena, every row they hand out survives the
// 1 000 pulls after it unchanged.
func TestWritersReuseOneRow(t *testing.T) {
	const n = 1001
	left := make([]Tuple, n)
	for i := range left {
		left[i] = Tuple{Int(0), Int(int64(i))}
	}
	right := []Tuple{{Int(0), Str("r")}}
	ix := indexOn(right)
	writers := []struct {
		name string
		open func(dst *Arena) Iterator
		want func(i int) Tuple
	}{
		{"Probe", func(dst *Arena) Iterator {
			return probeIndex(ix, []int{0}, NewSliceIterator(left), nil, []int{3, 1}, dst)
		}, func(i int) Tuple { return Tuple{Str("r"), Int(int64(i))} }},
		{"Probe, concatenation", func(dst *Arena) Iterator {
			return probeIndex(ix, []int{0}, NewSliceIterator(left), nil, nil, dst)
		}, func(i int) Tuple { return Tuple{Int(0), Int(int64(i)), Int(0), Str("r")} }},
		{"NestedLoopJoin", func(dst *Arena) Iterator {
			return NestedLoopJoin(NewSliceIterator(left), NewSliceIterator(right), 2, []Cond{ColCol(0, OpEq, 2)}, []int{1, 3}, dst)
		}, func(i int) Tuple { return Tuple{Int(int64(i)), Str("r")} }},
		{"Project", func(dst *Arena) Iterator {
			return Project(NewSliceIterator(left), []int{1}, dst)
		}, func(i int) Tuple { return Tuple{Int(int64(i))} }},
	}
	for _, w := range writers {
		var first *Value
		i := 0
		it := w.open(nil)
		for row, ok := it.Next(); ok; row, ok = it.Next() {
			if !sameRow(row, w.want(i)) {
				t.Fatalf("%s, no destination: row %d is %v, want %v", w.name, i, row, w.want(i))
			}
			if first == nil {
				first = &row[0]
			} else if &row[0] != first {
				t.Fatalf("%s, no destination: row %d has a backing array of its own", w.name, i)
			}
			i++
		}
		if i != n {
			t.Fatalf("%s, no destination: %d rows, want %d", w.name, i, n)
		}
		kept := Take(w.open(new(Arena)), math.MaxInt)
		if len(kept) != n {
			t.Fatalf("%s, arena: %d rows, want %d", w.name, len(kept), n)
		}
		for i, row := range kept {
			if !sameRow(row, w.want(i)) {
				t.Fatalf("%s, arena: row %d is %v after the pulls that followed it, want %v", w.name, i, row, w.want(i))
			}
		}
	}
}
