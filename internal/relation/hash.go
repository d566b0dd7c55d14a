package relation

import "math"

// Allocation-free 64-bit hashing for tuples and values, and the small
// collision-safe containers built on it. The string Tuple.Key remains the
// human-readable/order-stable form; the hot paths (Distinct, Difference,
// hash-join build sides, attribute indexes) key their maps or buckets on
// Hash64 and verify candidates with Equal, so hash collisions cost a
// comparison, never correctness.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// hashInto folds the value into a running FNV-1a hash, consistent with Equal:
// numerically equal int/float values fold identically, −0 and +0 included,
// and so does every NaN.
func (v Value) hashInto(h uint64) uint64 {
	switch v.Kind() {
	case KindNull:
		return fnvByte(h, 0)
	case KindBool:
		h = fnvByte(h, 1)
		if v.AsBool() {
			return fnvByte(h, 1)
		}
		return fnvByte(h, 0)
	case KindInt, KindFloat:
		h = fnvByte(h, 2)
		return fnvUint64(h, math.Float64bits(v.numericKey()))
	default:
		h = fnvByte(h, 3)
		s := v.AsString()
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
		return h
	}
}

// Hash64 returns a 64-bit hash of the tuple, consistent with Equal (and with
// the string Key), computed without allocating.
func (t Tuple) Hash64() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t {
		h = v.hashInto(h)
	}
	return h
}

// Hash64On returns a 64-bit hash over the given column subset.
func (t Tuple) Hash64On(cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h = t[c].hashInto(h)
	}
	return h
}

// equalOn reports whether t and o agree on the given (t-side, o-side) column
// pairs.
func equalOn(t Tuple, tCols []int, o Tuple, oCols []int) bool {
	for i := range tCols {
		if !t[tCols[i]].Equal(o[oCols[i]]) {
			return false
		}
	}
	return true
}

// TupleSet is a collision-safe set of tuples keyed by Hash64. Membership is
// decided by Equal, so tuples that merely collide stay distinct.
type TupleSet struct {
	buckets map[uint64][]Tuple
}

// NewTupleSet returns an empty set with capacity hint n.
func NewTupleSet(n int) *TupleSet {
	return &TupleSet{buckets: make(map[uint64][]Tuple, n)}
}

// Add inserts t and reports whether it was absent before.
func (s *TupleSet) Add(t Tuple) bool {
	h := t.Hash64()
	for _, o := range s.buckets[h] {
		if t.Equal(o) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], t)
	return true
}

// Contains reports membership.
func (s *TupleSet) Contains(t Tuple) bool {
	for _, o := range s.buckets[t.Hash64()] {
		if t.Equal(o) {
			return true
		}
	}
	return false
}

// tupleCounter is a collision-safe multiset counter used for bag equality.
type tupleCounter struct {
	buckets map[uint64][]tupleCount
}

type tupleCount struct {
	t Tuple
	n int
}

func newTupleCounter(n int) *tupleCounter {
	return &tupleCounter{buckets: make(map[uint64][]tupleCount, n)}
}

func (c *tupleCounter) add(t Tuple, d int) int {
	h := t.Hash64()
	bucket := c.buckets[h]
	for i := range bucket {
		if bucket[i].t.Equal(t) {
			bucket[i].n += d
			return bucket[i].n
		}
	}
	c.buckets[h] = append(bucket, tupleCount{t: t, n: d})
	return d
}

// Arena hands out rows carved from shared blocks, cutting the per-row
// allocation of the join, projection and aggregation kernels to about one
// allocation per block. Blocks double from the first row's size up to
// arenaBlockValues, so a result of a few rows costs about what it holds and
// a large one an allocation per 4096 values. An arena never reuses a block,
// so its rows stay valid as long as anything refers to them: a consumer that
// keeps the rows of a writer (Probe, NestedLoopJoin, Project) passes the
// writer its arena, and one that does not passes nil. A join writes its rows
// already projected (joinRows), so a projection over a join costs one row,
// not a concatenation and then its copy. The zero Arena is ready to use.
type Arena struct {
	buf []Value
}

const arenaBlockValues = 4096

func (a *Arena) make(n int) Tuple {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]Value, 0, max(n, min(2*cap(a.buf), arenaBlockValues)))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	// Zero-length, capacity-capped view: appends fill exactly this carve-out.
	return Tuple(a.buf[off : off : off+n])
}

// project builds t restricted to cols in arena storage.
func (a *Arena) project(t Tuple, cols []int) Tuple {
	out := a.make(len(cols))
	for _, c := range cols {
		out = append(out, t[c])
	}
	return out
}

// rowWriter is where a writer puts the rows it emits: carved from dst when
// the consumer keeps them, else one reused row, valid until the next pull.
type rowWriter struct {
	dst *Arena
	row Tuple
}

// reset points w at dst and clears the values its reused row holds.
func (w *rowWriter) reset(dst *Arena) {
	clear(w.row[:cap(w.row)])
	w.dst = dst
}

// next returns an empty row of capacity n to append the next output row to.
func (w *rowWriter) next(n int) Tuple {
	if w.dst != nil {
		return w.dst.make(n)
	}
	if cap(w.row) < n {
		w.row = make(Tuple, 0, n)
	}
	return w.row[:0:n]
}

// joinRows writes a join's accepted rows: a pair (l, r) passes when every
// post condition holds on l ++ r, evaluated on a reused scratch
// concatenation, and is written as l ++ r, or, with cols non-nil, as that
// row's cols projection, never as both.
type joinRows struct {
	rowWriter
	post    []Cond
	cols    []int
	scratch Tuple
}

// emit returns the output row for (l, r), or false when post rejects it.
func (j *joinRows) emit(l, r Tuple) (Tuple, bool) {
	if len(j.post) > 0 {
		j.scratch = append(append(j.scratch[:0], l...), r...)
		if !EvalAll(j.post, j.scratch) {
			return nil, false
		}
	}
	if j.cols == nil {
		return append(append(j.next(len(l)+len(r)), l...), r...), true
	}
	out := j.next(len(j.cols))
	for _, c := range j.cols {
		if c < len(l) {
			out = append(out, l[c])
		} else {
			out = append(out, r[c-len(l)])
		}
	}
	return out, true
}
