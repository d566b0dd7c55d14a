package relation

// Relational operators. Every operator has a lazy form over Iterators (used
// by the CMS for generator-based lazy evaluation and by the server's
// executor); Drain materializes one where a Relation is wanted. The lazy
// forms never consume more of their inputs than needed to produce the
// demanded output tuples, except where the operator is inherently blocking
// (hash join build side, sort, aggregation).

// Select lazily filters the input by the given conditions.
func Select(in Iterator, conds []Cond) Iterator {
	if len(conds) == 0 {
		return in
	}
	s := new(SelectIter)
	s.Reset(in, conds)
	return s
}

// SelectIter is Select's iterator. A caller that filters again and again
// keeps one and re-arms it with Reset.
type SelectIter struct {
	in    Iterator
	conds []Cond
}

// Reset re-arms s to pass on the tuples of in that satisfy every condition.
// Reset(nil, nil) leaves s holding nothing of any input.
func (s *SelectIter) Reset(in Iterator, conds []Cond) { s.in, s.conds = in, conds }

// Next implements Iterator.
func (s *SelectIter) Next() (Tuple, bool) {
	for {
		t, ok := s.in.Next()
		if !ok {
			return nil, false
		}
		if EvalAll(s.conds, t) {
			return t, true
		}
	}
}

// Project lazily projects each tuple onto the given columns, writing each
// row into dst, or, with dst nil, into one reused row that is valid until the
// next pull.
func Project(in Iterator, cols []int, dst *Arena) Iterator {
	p := new(ProjectIter)
	p.Reset(in, cols, dst)
	return p
}

// ProjectIter is Project's iterator. A caller that projects again and again
// keeps one and re-arms it with Reset, so only its first projection allocates
// the reused row.
type ProjectIter struct {
	rowWriter
	in   Iterator
	cols []int
}

// Reset re-arms p to project in onto cols, into dst or its reused row, which
// keeps its storage and loses the values the previous input left in it.
// Reset(nil, nil, nil) leaves p holding nothing of any input.
func (p *ProjectIter) Reset(in Iterator, cols []int, dst *Arena) {
	p.rowWriter.reset(dst)
	p.in, p.cols = in, cols
}

// Next implements Iterator.
func (p *ProjectIter) Next() (Tuple, bool) {
	t, ok := p.in.Next()
	if !ok {
		return nil, false
	}
	out := p.next(len(p.cols))
	for _, c := range p.cols {
		out = append(out, t[c])
	}
	return out, true
}

// Distinct lazily removes duplicate tuples (set semantics). It buffers seen
// tuples (hash-keyed, collision-safe) but streams output tuples as they are
// first seen.
func Distinct(in Iterator) Iterator {
	seen := NewTupleSet(0)
	return IteratorFunc(func() (Tuple, bool) {
		for {
			t, ok := in.Next()
			if !ok {
				return nil, false
			}
			if seen.Add(t) {
				return t, true
			}
		}
	})
}

// DistinctRel eagerly deduplicates a relation.
func DistinctRel(r *Relation) *Relation {
	return Drain(r.Name, r.schema, Distinct(r.Iter()))
}

// Limit lazily truncates the input to at most n tuples.
func Limit(in Iterator, n int) Iterator {
	l := new(LimitIter)
	l.Reset(in, n)
	return l
}

// LimitIter is Limit's iterator. A caller that truncates again and again
// keeps one and re-arms it with Reset.
type LimitIter struct {
	in   Iterator
	left int
}

// Reset re-arms l to pass on at most n tuples of in. Reset(nil, 0) leaves l
// holding nothing of any input.
func (l *LimitIter) Reset(in Iterator, n int) { l.in, l.left = in, n }

// Next implements Iterator. Once n tuples have passed it pulls no more.
func (l *LimitIter) Next() (Tuple, bool) {
	if l.left <= 0 {
		return nil, false
	}
	t, ok := l.in.Next()
	if !ok {
		return nil, false
	}
	l.left--
	return t, true
}

// JoinCond describes an equi-join condition: left column i equals right
// column j.
type JoinCond struct {
	Left, Right int
}

// HashJoin performs an equi-join of two inputs. The right input is drained
// eagerly and indexed on its join columns (the build side); the left side
// streams through the index's probe, so the join is lazy in its left input.
// Output tuples are the concatenation left ++ right, carved from the join's
// own arena, so they stay valid. A consumer that keeps only some columns, or
// keeps no row past the next pull, probes an index itself (ProbeIter), which
// writes the projected row alone.
func HashJoin(left, right Iterator, conds []JoinCond) Iterator {
	j := new(keptProbe)
	cols := make([]int, 2*len(conds))
	for i, c := range conds {
		cols[i], cols[len(conds)+i] = c.Left, c.Right
	}
	rows := make([]Tuple, 0, 8)
	for t, ok := right.Next(); ok; t, ok = right.Next() {
		rows = append(rows, t)
	}
	j.ix.Rebuild(rows, cols[len(conds):])
	j.Reset(&j.ix, cols[:len(conds)], left, nil, nil, &j.arena)
	return j
}

// keptProbe is a probe of an index of its own that writes its rows into an
// arena of its own.
type keptProbe struct {
	ProbeIter
	ix    Index
	arena Arena
}

// NestedLoopJoin performs a theta-join with arbitrary conditions evaluated
// over the concatenated tuple (left columns first, then right, with right
// column indexes offset by the left arity). The right input is drained
// eagerly and kept; the left side streams, and each left row is read only
// until the next left pull. The conditions read a reused scratch
// concatenation; an accepted pair is written as left ++ right when cols is
// nil, else as that row's cols projection, never as both, into dst, or with
// dst nil into one reused row that is valid until the next pull.
func NestedLoopJoin(left, right Iterator, leftArity int, conds []Cond, cols []int, dst *Arena) Iterator {
	var rights []Tuple
	for {
		t, ok := right.Next()
		if !ok {
			break
		}
		rights = append(rights, t)
	}
	out := joinRows{rowWriter: rowWriter{dst: dst}, post: conds, cols: cols}
	var cur Tuple
	idx := len(rights) // cur's pairs are done: pull the next left tuple
	return IteratorFunc(func() (Tuple, bool) {
		for {
			for idx < len(rights) {
				r := rights[idx]
				idx++
				if t, ok := out.emit(cur, r); ok {
					return t, true
				}
			}
			t, ok := left.Next()
			if !ok {
				return nil, false
			}
			cur, idx = t, 0
		}
	})
}

// Rename returns a renamed shallow view of the relation.
func Rename(r *Relation, name string, attrNames []string) *Relation {
	return &Relation{Name: name, schema: r.schema.Rename(attrNames), tuples: r.tuples}
}
