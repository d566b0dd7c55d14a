package relation

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Index is a hash index over a column subset of a row slice. The Cache
// Manager builds indexes on consumer-annotated attributes (advice "?"
// annotations, Section 4.2.1) to speed repeated random access, the remote
// DBMS engine uses them for selections, and every equi-join probes one built
// over its drained build side (ProbeIter).
//
// The layout is compressed sparse row: a power-of-two number of buckets, at
// least the row count, and a row's bucket chosen from its Hash64On. Bucket
// b's row positions are pos[start[b]:start[b+1]], ascending, so a lookup
// returns its rows in build order. Both are int32, 8 to 9 bytes a row in
// all, carved from one array, start first, so that start's capacity is the
// array's, and a slice of more than math.MaxInt32 rows cannot be indexed.
//
// An index BuildOrderedIndex builds also keeps its rows sorted on the first
// key column, 4 bytes a row more, so that MarkRange finds a range on that
// column by binary search. Equality still goes through the hash buckets,
// which answer it several times as fast as a binary search of the order.
type Index struct {
	cols  []int
	shift uint    // 64 − log2(bucket count)
	start []int32 // bucket count + 1 offsets into pos
	pos   []int32 // row positions in tuples, grouped by bucket
	// order, when built, is every row position sorted by the row's first key
	// column under Value.Compare, ties by position.
	order []int32
	// tuples is the extension captured at build time. Holding the slice, not
	// the *Relation, is what makes the index a snapshot: AppendLookup never reads
	// the live relation, so it is safe beside a concurrent append.
	tuples []Tuple
}

// BuildIndex constructs a hash index on the given columns of r. The index is
// a snapshot: it reflects r's extension at build time. It allocates the
// index, a copy of cols and its array, nothing per key.
func BuildIndex(r *Relation, cols []int) *Index {
	ix := new(Index)
	ix.Rebuild(r.Tuples(), append([]int(nil), cols...))
	return ix
}

// BuildOrderedIndex is BuildIndex plus the sorted order of the first key
// column that MarkRange reads. The remote DBMS builds its stored indexes so;
// the CMS's element indexes and a join's build index answer no range and do
// without it.
func BuildOrderedIndex(r *Relation, cols []int) *Index {
	ix := BuildIndex(r, cols)
	ix.order = make([]int32, len(ix.tuples))
	for i := range ix.order {
		ix.order[i] = int32(i)
	}
	c0, rows := ix.cols[0], ix.tuples
	slices.SortFunc(ix.order, func(a, b int32) int {
		if c := rows[a][c0].Compare(rows[b][c0]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ix
}

// Rebuild makes ix a hash index on the given columns of rows, reusing its
// array, so a rebuild over no more rows than before allocates nothing; ix
// keeps cols, which the caller must not change. It hashes every row twice,
// to count each bucket's rows and then to place them. A lookup verifies a
// bucket's rows by value, so collisions never surface.
func (ix *Index) Rebuild(rows []Tuple, cols []int) {
	if len(rows) > math.MaxInt32 {
		panic("relation: an index holds at most math.MaxInt32 rows")
	}
	logB := bits.Len(uint(max(len(rows)-1, 0)))
	ix.cols, ix.shift = cols, uint(64-logB)
	nb, arr := 1<<logB+1, ix.start[:cap(ix.start)]
	if len(arr) < nb+len(rows) {
		arr = make([]int32, nb+len(rows))
	}
	ix.start, ix.pos, ix.order = arr[:nb], arr[nb:nb+len(rows)], nil
	clear(ix.start)
	ix.tuples = rows
	for _, t := range rows {
		ix.start[ix.bucket(t.Hash64On(ix.cols))]++
	}
	// start[b] becomes the end of bucket b; placing the rows from the last
	// backwards then leaves it at the bucket's beginning, its rows ascending.
	for b := 1; b < len(ix.start); b++ {
		ix.start[b] += ix.start[b-1]
	}
	for i := len(rows) - 1; i >= 0; i-- {
		b := ix.bucket(rows[i].Hash64On(ix.cols))
		ix.start[b]--
		ix.pos[ix.start[b]] = int32(i)
	}
}

// bucket is the top bits of h times 2⁶⁴/φ. Of the keys 0–1 999 in 16 384
// buckets, 334 share one (230 if random), against 593 by FNV's own top bits.
func (ix *Index) bucket(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 >> ix.shift }

// Cols returns the indexed column positions.
func (ix *Index) Cols() []int { return append([]int(nil), ix.cols...) }

// Covers reports whether the index is built exactly on the given columns
// (order-sensitive).
func (ix *Index) Covers(cols []int) bool {
	if len(cols) != len(ix.cols) {
		return false
	}
	for i := range cols {
		if cols[i] != ix.cols[i] {
			return false
		}
	}
	return true
}

// Rows is the number of rows the index was built over: the first Rows of its
// relation's extension, however many were appended since.
func (ix *Index) Rows() int { return len(ix.tuples) }

// AppendLookupIn appends to dst, as AppendLookup does, the tuples of rows
// whose indexed columns equal the given values. rows is an extension whose
// first Rows() rows the index was built over: the index's matches come
// first, then the equal rows of those appended since the build, in row
// order, compared by the index's own equality.
func (ix *Index) AppendLookupIn(dst, rows []Tuple, vals []Value) []Tuple {
	dst = ix.AppendLookup(dst, vals)
	for _, t := range rows[len(ix.tuples):] {
		if ix.matches(t, vals) {
			dst = append(dst, t)
		}
	}
	return dst
}

// AppendLookup appends the tuples whose indexed columns equal the given
// values to dst, in build order, and returns the extended slice; a dst that
// fills up grows by the bucket's rows. The tuples are the indexed extension's
// own: a caller that reuses dst from lookup to lookup (the CMS session does)
// must copy what it keeps of them, not the slice.
func (ix *Index) AppendLookup(dst []Tuple, vals []Value) []Tuple {
	positions := ix.candidates(Tuple(vals).Hash64())
	for _, p := range positions {
		if t := ix.tuples[p]; ix.matches(t, vals) {
			if len(dst) == cap(dst) {
				dst = slices.Grow(dst, len(positions))
			}
			dst = append(dst, t)
		}
	}
	return dst
}

// MarkRange sets, in marks, the bit of every indexed row whose first key
// column satisfies each column-vs-constant comparison (=, <, <=, >, >=) that
// conds put on that column, and returns how many it set. It skips every other
// condition, so the rows it marks are a superset of the rows conds accepts.
// Bit p of marks[p/64] stands for row p; marks must hold Rows() bits. An
// index built without its sorted order marks every row.
//
// The run it marks is exact when Value.Compare orders the column's values
// transitively, as it does a column of one kind beside NULLs: each bound is
// then a binary search of the order.
func (ix *Index) MarkRange(marks []uint64, conds []Cond) int {
	lo, hi := 0, len(ix.tuples)
	if ix.order != nil {
		c0 := ix.cols[0]
		// from is the first position in the order whose value compares to v
		// at least as high as past: 0 finds the first value ≥ v, 1 the first > v.
		from := func(v Value, past int) int {
			return sort.Search(len(ix.order), func(i int) bool { return ix.tuples[ix.order[i]][c0].Compare(v) >= past })
		}
		for _, c := range conds {
			if c.Left != c0 || c.Right >= 0 {
				continue
			}
			switch c.Op {
			case OpEq:
				lo, hi = max(lo, from(c.Const, 0)), min(hi, from(c.Const, 1))
			case OpGt:
				lo = max(lo, from(c.Const, 1))
			case OpGe:
				lo = max(lo, from(c.Const, 0))
			case OpLt:
				hi = min(hi, from(c.Const, 0))
			case OpLe:
				hi = min(hi, from(c.Const, 1))
			}
		}
	}
	for i := lo; i < hi; i++ {
		p := i
		if ix.order != nil {
			p = int(ix.order[i])
		}
		marks[p/64] |= 1 << (p % 64)
	}
	return max(hi-lo, 0)
}

// candidates returns the positions of the rows in the bucket of key hash h.
func (ix *Index) candidates(h uint64) []int32 {
	b := ix.bucket(h)
	return ix.pos[ix.start[b]:ix.start[b+1]]
}

// matches reports whether t's indexed columns equal vals.
func (ix *Index) matches(t Tuple, vals []Value) bool {
	for i, c := range ix.cols {
		if !t[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}

// SizeBytes is the index's memory footprint for cache accounting: its
// arrays. (The indexed tuples belong to the relation and are counted there.)
func (ix *Index) SizeBytes() int64 { return 4 * int64(len(ix.start)+len(ix.pos)+len(ix.order)) }

// ProbeIter is an equi-join's probe of an index, the one built over its
// drained build rows or, for an index join, a stored one: for each left tuple
// it emits, in build order, one row per indexed row Equal on the join columns
// and passing every post condition on left ++ right. The row is that
// concatenation when cols is nil, else its cols projection, written straight
// from the two tuples into dst, or, with dst nil, into one reused row valid
// until the next pull. A left row is read only until the next left pull, and
// the index only read, so probes run on concurrent goroutines. Only a probe's
// first Reset allocates its reused row and scratch concatenation.
type ProbeIter struct {
	ix   *Index
	on   []int // the left input's join columns, paired with ix's columns
	left Iterator
	out  joinRows
	cur  Tuple
	cand []int32 // rest of cur's bucket, not yet verified
	// An index join's (Inner): the rows appended since ix was built and the
	// rest of them cur has not met, the conditions on the right row alone,
	// and the count of right rows matched on the join columns.
	tail, rest []Tuple
	inner      []Cond
	read       *int64
}

// Reset arms p to probe ix with left's columns on, clearing what the previous
// probe left in its reused row and scratch concatenation, and what Inner set:
// Reset(nil, nil, nil, nil, nil, nil) leaves p holding nothing of any index or
// input.
func (p *ProbeIter) Reset(ix *Index, on []int, left Iterator, post []Cond, cols []int, dst *Arena) {
	p.out.reset(dst)
	clear(p.out.scratch[:cap(p.out.scratch)])
	p.out.post, p.out.cols = post, cols
	p.ix, p.on, p.left, p.cur, p.cand = ix, on, left, nil, nil
	p.tail, p.rest, p.inner, p.read = nil, nil, nil, nil
}

// Inner makes the armed p an index join's probe of a stored index, whose
// extension has grown by tail since the index was built: each left row meets
// its bucket's rows, then every row of tail, in order. A right row Equal on
// the join columns adds one to *read, and pairs only if it satisfies every
// condition of inner, which read it alone.
func (p *ProbeIter) Inner(tail []Tuple, inner []Cond, read *int64) {
	p.tail, p.inner, p.read = tail, inner, read
}

// Next implements Iterator.
func (p *ProbeIter) Next() (Tuple, bool) {
	for {
		for i, pos := range p.cand {
			if t, ok := p.pair(p.ix.tuples[pos]); ok {
				p.cand = p.cand[i+1:]
				return t, true
			}
		}
		p.cand = nil
		for i, r := range p.rest {
			if t, ok := p.pair(r); ok {
				p.rest = p.rest[i+1:]
				return t, true
			}
		}
		t, ok := p.left.Next()
		if !ok {
			return nil, false
		}
		p.cur, p.cand, p.rest = t, p.ix.candidates(t.Hash64On(p.on)), p.tail
	}
}

// pair returns the row cur and r make, when r joins cur.
func (p *ProbeIter) pair(r Tuple) (Tuple, bool) {
	if !equalOn(p.cur, p.on, r, p.ix.cols) {
		return nil, false
	}
	if p.read != nil {
		*p.read++
		if !EvalAll(p.inner, r) {
			return nil, false
		}
	}
	return p.out.emit(p.cur, r)
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
