package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Relation is a named extension: a schema plus a bag of tuples. BrAID's cache
// elements in extensional form, the remote DBMS's base relations, and all
// intermediate operator results are Relations.
//
// Relations are bags by default; Distinct produces set semantics where
// required.
type Relation struct {
	Name   string
	schema *Schema
	tuples []Tuple
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, schema: schema}
}

// FromTuples creates a relation holding the given tuples. The tuples are
// used directly (not copied); callers must not alias them afterwards.
func FromTuples(name string, schema *Schema, tuples []Tuple) *Relation {
	return &Relation{Name: name, schema: schema, tuples: tuples}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples (cardinality as a bag).
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns the underlying tuple slice. Callers must treat it as
// read-only.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Append adds a tuple after validating its arity against the schema.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d does not match schema arity %d",
			r.Name, len(t), r.schema.Arity())
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// MustAppend adds a tuple and panics on arity mismatch; for use by
// generators and tests where the arity is statically known.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Grow preallocates capacity for n additional tuples. Bulk loaders (wire
// decoding, stream materialization) call it once per batch so the tuple slice
// is not regrown tuple-by-tuple. Capacity grows geometrically, so a stream
// drained batch by batch reallocates O(log N) times, not once per batch.
func (r *Relation) Grow(n int) {
	if n > 0 {
		r.tuples = slices.Grow(r.tuples, n)
	}
}

// AppendAll bulk-appends tuples, validating each arity against the schema but
// growing the underlying slice at most once. This is the hot decode path for
// wire frames: per-tuple Append costs a bounds recheck and amortized regrowth
// per call, which AppendAll pays once per batch.
func (r *Relation) AppendAll(tuples []Tuple) error {
	arity := r.schema.Arity()
	for _, t := range tuples {
		if len(t) != arity {
			return fmt.Errorf("relation %s: tuple arity %d does not match schema arity %d",
				r.Name, len(t), arity)
		}
	}
	r.Grow(len(tuples))
	r.tuples = append(r.tuples, tuples...)
	return nil
}

// Clone returns a deep-enough copy (tuples are shared; the slice is not).
func (r *Relation) Clone() *Relation {
	return &Relation{Name: r.Name, schema: r.schema, tuples: append([]Tuple(nil), r.tuples...)}
}

// Sort orders the tuples lexicographically in place and returns r.
func (r *Relation) Sort() *Relation {
	sort.Slice(r.tuples, func(i, j int) bool { return r.tuples[i].Less(r.tuples[j]) })
	return r
}

// SortBy orders the tuples stably by the given columns in place and returns
// r.
func (r *Relation) SortBy(cols []int) *Relation {
	sort.SliceStable(r.tuples, func(i, j int) bool { return compareOn(r.tuples[i], r.tuples[j], cols) < 0 })
	return r
}

// compareOn orders a and b by cols: the first column on which they differ
// decides.
func compareOn(a, b Tuple, cols []int) int {
	for _, c := range cols {
		if d := a[c].Compare(b[c]); d != 0 {
			return d
		}
	}
	return 0
}

// EqualAsSet reports whether r and o contain the same set of tuples,
// ignoring order and duplicates. Useful for differential tests.
func (r *Relation) EqualAsSet(o *Relation) bool {
	return subsetOf(r.tuples, o.tuples) && subsetOf(o.tuples, r.tuples)
}

// EqualAsBag reports whether r and o contain the same multiset of tuples.
func (r *Relation) EqualAsBag(o *Relation) bool {
	if len(r.tuples) != len(o.tuples) {
		return false
	}
	counts := newTupleCounter(len(r.tuples))
	for _, t := range r.tuples {
		counts.add(t, 1)
	}
	for _, t := range o.tuples {
		if counts.add(t, -1) < 0 {
			return false
		}
	}
	return true
}

func subsetOf(a, b []Tuple) bool {
	keys := NewTupleSet(len(b))
	for _, t := range b {
		keys.Add(t)
	}
	for _, t := range a {
		if !keys.Contains(t) {
			return false
		}
	}
	return true
}

// SizeBytes estimates the in-memory footprint of the extension, used by the
// Cache Manager for resource accounting: a slice header per tuple, a Value
// per cell, and each string's bytes (counted per cell, shared or not).
func (r *Relation) SizeBytes() int64 {
	var n int64
	for _, t := range r.tuples {
		n += sliceHeaderBytes + valueBytes*int64(len(t))
		for _, v := range t {
			n += int64(len(v.AsString()))
		}
	}
	return n
}

// String renders a small, human-readable dump (name, schema, up to 20 rows).
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d tuples]", r.Name, r.schema, len(r.tuples))
	for i, t := range r.tuples {
		if i == 20 {
			fmt.Fprintf(&b, "\n  ... (%d more)", len(r.tuples)-20)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(t.String())
	}
	return b.String()
}
