package relation

// Iterator produces tuples one at a time. It is the package-level realization
// of the paper's "generator": a representation of a relation that produces a
// single tuple on demand (Section 5.1), enabling lazy evaluation.
//
// Next returns the next tuple and true, or a nil tuple and false when the
// stream is exhausted. Iterators are single-consumer and not safe for
// concurrent use.
//
// A tuple is valid until the next call to Next. A consumer that keeps tuples
// past it gets them from iterators that promise more: a relation's, or a
// writer's (Probe, NestedLoopJoin, Project) given the consumer's Arena. A
// writer given no Arena hands out one reused row, so its consumer must read
// or copy each row before the next pull.
type Iterator interface {
	Next() (Tuple, bool)
}

// IteratorFunc adapts a function to the Iterator interface.
type IteratorFunc func() (Tuple, bool)

// Next calls f.
func (f IteratorFunc) Next() (Tuple, bool) { return f() }

// SliceIterator iterates over an in-memory tuple slice.
type SliceIterator struct {
	tuples []Tuple
	pos    int
}

// NewSliceIterator returns an iterator over the given tuples.
func NewSliceIterator(tuples []Tuple) *SliceIterator { return &SliceIterator{tuples: tuples} }

// Iter returns an iterator over the relation's extension.
func (r *Relation) Iter() Iterator { return NewSliceIterator(r.tuples) }

// Next implements Iterator.
func (s *SliceIterator) Next() (Tuple, bool) {
	if s.pos >= len(s.tuples) {
		return nil, false
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, true
}

// SizeHinter is implemented by iterators that know (a lower bound on) how
// many tuples remain; Drain uses it to preallocate the output buffer.
type SizeHinter interface {
	SizeHint() int
}

// SizeHint reports the number of tuples remaining in the slice.
func (s *SliceIterator) SizeHint() int { return len(s.tuples) - s.pos }

// Drain consumes the iterator into a relation with the given name and schema.
// This is eager evaluation of a generator. When the iterator hints its size,
// the tuple buffer is allocated once.
func Drain(name string, schema *Schema, it Iterator) *Relation {
	r := New(name, schema)
	if h, ok := it.(SizeHinter); ok {
		if n := h.SizeHint(); n > 0 {
			r.tuples = make([]Tuple, 0, n)
		}
	}
	for {
		t, ok := it.Next()
		if !ok {
			return r
		}
		r.tuples = append(r.tuples, t)
	}
}

// Take consumes and returns up to n tuples from the iterator.
func Take(it Iterator, n int) []Tuple {
	var out []Tuple
	for len(out) < n {
		t, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out
}

// Count consumes the iterator and returns the number of tuples produced.
func Count(it Iterator) int {
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

// Chain concatenates iterators in order.
func Chain(its ...Iterator) Iterator {
	i := 0
	return IteratorFunc(func() (Tuple, bool) {
		for i < len(its) {
			if t, ok := its[i].Next(); ok {
				return t, true
			}
			i++
		}
		return nil, false
	})
}

// Empty returns an iterator producing no tuples.
func Empty() Iterator {
	return IteratorFunc(func() (Tuple, bool) { return nil, false })
}
