package relation

import (
	"math"
	"math/bits"
	"slices"
)

// Index is a hash index over a column subset of a relation extension. The
// Cache Manager builds indexes on consumer-annotated attributes (advice "?"
// annotations, Section 4.2.1) to speed repeated random access, and the remote
// DBMS engine uses them for selections and join probes.
//
// The layout is compressed sparse row: a power-of-two number of buckets, at
// least the row count, and a row's bucket chosen from its Hash64On. Bucket
// b's row positions are pos[start[b]:start[b+1]], ascending, so a lookup
// returns its rows in build order. Both arrays are int32, 8 to 9 bytes a row
// in all, and a relation of more than math.MaxInt32 rows cannot be indexed.
type Index struct {
	cols  []int
	shift uint    // 64 − log2(bucket count)
	start []int32 // bucket count + 1 offsets into pos
	pos   []int32 // row positions in tuples, grouped by bucket
	// tuples is the extension captured at build time. Holding the slice, not
	// the *Relation, is what makes the index a snapshot: Lookup never reads
	// the live relation, so it is safe beside a concurrent append.
	tuples []Tuple
}

// BuildIndex constructs a hash index on the given columns of r. The index is
// a snapshot: it reflects r's extension at build time. Lookup verifies a
// bucket's rows by value, so hash collisions never surface. The build hashes
// every row twice, to count each bucket's rows and then to place them, and
// allocates the index, its columns and its two arrays, nothing per key.
func BuildIndex(r *Relation, cols []int) *Index {
	tuples := r.Tuples()
	if len(tuples) > math.MaxInt32 {
		panic("relation: an index holds at most math.MaxInt32 rows")
	}
	logB := bits.Len(uint(max(len(tuples)-1, 0)))
	ix := &Index{
		cols:   append([]int(nil), cols...),
		shift:  uint(64 - logB),
		start:  make([]int32, 1<<logB+1),
		pos:    make([]int32, len(tuples)),
		tuples: tuples,
	}
	for _, t := range tuples {
		ix.start[ix.bucket(t.Hash64On(ix.cols))]++
	}
	// start[b] becomes the end of bucket b; placing the rows from the last
	// backwards then leaves it at the bucket's beginning, its rows ascending.
	for b := 1; b < len(ix.start); b++ {
		ix.start[b] += ix.start[b-1]
	}
	for i := len(tuples) - 1; i >= 0; i-- {
		b := ix.bucket(tuples[i].Hash64On(ix.cols))
		ix.start[b]--
		ix.pos[ix.start[b]] = int32(i)
	}
	return ix
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

// Lookup returns the tuples whose indexed columns equal the given values, in
// a slice of exactly their number: a bucket can hold other keys' rows too.
func (ix *Index) Lookup(vals []Value) []Tuple { return ix.LookupIn(ix.tuples, vals) }

// Rows is the number of rows the index was built over: the first Rows of its
// relation's extension, however many were appended since.
func (ix *Index) Rows() int { return len(ix.tuples) }

// LookupIn is Lookup over rows, an extension whose first Rows() rows the
// index was built over: the index's matches, then the equal rows of those
// appended since the build, in row order, in a slice of exactly their number.
// The appended rows are compared by the index's own equality.
func (ix *Index) LookupIn(rows []Tuple, vals []Value) []Tuple {
	tail := rows[len(ix.tuples):]
	n := 0
	for _, p := range ix.candidates(vals) {
		if ix.matches(ix.tuples[p], vals) {
			n++
		}
	}
	for _, t := range tail {
		if ix.matches(t, vals) {
			n++
		}
	}
	return ix.AppendLookupIn(make([]Tuple, 0, n), rows, vals)
}

// AppendLookupIn is LookupIn appending to dst, as AppendLookup does: the
// index's matches, then the equal rows of rows[Rows():], in row order.
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
	positions := ix.candidates(vals)
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

// candidates returns the positions of the rows in vals' bucket.
func (ix *Index) candidates(vals []Value) []int32 {
	b := ix.bucket(Tuple(vals).Hash64())
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

// SizeBytes is the index's memory footprint for cache accounting: its two
// arrays. (The indexed tuples belong to the relation and are counted there.)
func (ix *Index) SizeBytes() int64 { return 4 * int64(len(ix.start)+len(ix.pos)) }

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
