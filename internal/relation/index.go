package relation

import "slices"

// Index is a hash index over a column subset of a relation extension. The
// Cache Manager builds indexes on consumer-annotated attributes (advice "?"
// annotations, Section 4.2.1) to speed repeated random access, and the remote
// DBMS engine uses them for selections and join probes.
type Index struct {
	cols    []int
	buckets map[uint64][]int // positions in tuples, by Hash64On
	// tuples is the extension captured at build time. Holding the slice, not
	// the *Relation, is what makes the index a snapshot: Lookup never reads
	// the live relation, so it is safe beside a concurrent append.
	tuples []Tuple
}

// BuildIndex constructs a hash index on the given columns of r. The index is
// a snapshot: it reflects r's extension at build time. Buckets are keyed by
// the 64-bit tuple hash; Lookup verifies candidates by value, so collisions
// never surface.
func BuildIndex(r *Relation, cols []int) *Index {
	ix := &Index{
		cols:    append([]int(nil), cols...),
		buckets: make(map[uint64][]int, r.Len()),
		tuples:  r.Tuples(),
	}
	for i, t := range ix.tuples {
		h := t.Hash64On(ix.cols)
		ix.buckets[h] = append(ix.buckets[h], i)
	}
	return ix
}

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

// Lookup returns the tuples whose indexed columns equal the given values.
func (ix *Index) Lookup(vals []Value) []Tuple { return ix.AppendLookup(nil, vals) }

// AppendLookup appends the tuples whose indexed columns equal the given
// values to dst and returns the extended slice. The tuples are the indexed
// extension's own: a caller that reuses dst from lookup to lookup (the CMS
// session does) must copy what it keeps of them, not the slice.
func (ix *Index) AppendLookup(dst []Tuple, vals []Value) []Tuple {
	positions := ix.buckets[Tuple(vals).Hash64()]
	if len(positions) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(positions))
	for _, p := range positions {
		if t := ix.tuples[p]; ix.matches(t, vals) {
			dst = append(dst, t)
		}
	}
	return dst
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

// SizeBytes estimates the index's memory footprint for cache accounting:
// per bucket the hash key, the position slice's header and its positions.
// (The indexed tuples belong to the relation and are counted there.)
func (ix *Index) SizeBytes() int64 {
	var n int64
	for _, v := range ix.buckets {
		n += 8 + sliceHeaderBytes + int64(8*len(v))
	}
	return n
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
