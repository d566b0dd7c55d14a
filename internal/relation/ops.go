package relation

// Relational operators. Every operator has a lazy form over Iterators (used
// by the CMS for generator-based lazy evaluation) and, where convenient, an
// eager convenience wrapper over Relations. The lazy forms never consume more
// of their inputs than needed to produce the demanded output tuples, except
// where the operator is inherently blocking (hash join build side, sort,
// difference, aggregation).

// Select lazily filters the input by the given conditions.
func Select(in Iterator, conds []Cond) Iterator {
	if len(conds) == 0 {
		return in
	}
	return IteratorFunc(func() (Tuple, bool) {
		for {
			t, ok := in.Next()
			if !ok {
				return nil, false
			}
			if EvalAll(conds, t) {
				return t, true
			}
		}
	})
}

// SelectRel eagerly filters a relation.
func SelectRel(r *Relation, conds []Cond) *Relation {
	return Drain(r.Name, r.schema, Select(r.Iter(), conds))
}

// Project lazily projects each tuple onto the given columns. Output tuples
// are allocated from a shared arena.
func Project(in Iterator, cols []int) Iterator {
	var arena tupleArena
	return IteratorFunc(func() (Tuple, bool) {
		t, ok := in.Next()
		if !ok {
			return nil, false
		}
		return arena.project(t, cols), true
	})
}

// ProjectRel eagerly projects a relation, deriving the output schema.
func ProjectRel(r *Relation, cols []int) *Relation {
	return Drain(r.Name, r.schema.Project(cols), Project(r.Iter(), cols))
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
	count := 0
	return IteratorFunc(func() (Tuple, bool) {
		if count >= n {
			return nil, false
		}
		t, ok := in.Next()
		if !ok {
			return nil, false
		}
		count++
		return t, true
	})
}

// Union lazily concatenates two inputs (bag union).
func Union(a, b Iterator) Iterator { return Chain(a, b) }

// UnionRel eagerly computes the bag union of relations with equal arity.
func UnionRel(name string, rs ...*Relation) *Relation {
	if len(rs) == 0 {
		return New(name, NewSchema())
	}
	out := New(name, rs[0].schema)
	for _, r := range rs {
		out.tuples = append(out.tuples, r.tuples...)
	}
	return out
}

// Difference returns tuples of a not present in b (set difference). The b
// side is drained eagerly to build the filter.
func Difference(a, b Iterator) Iterator {
	keys := NewTupleSet(0)
	for {
		t, ok := b.Next()
		if !ok {
			break
		}
		keys.Add(t)
	}
	return IteratorFunc(func() (Tuple, bool) {
		for {
			t, ok := a.Next()
			if !ok {
				return nil, false
			}
			if !keys.Contains(t) {
				return t, true
			}
		}
	})
}

// JoinCond describes an equi-join condition: left column i equals right
// column j.
type JoinCond struct {
	Left, Right int
}

// HashJoin performs an equi-join of two inputs. The right input is drained
// eagerly into a one-partition PartitionedTable (the build side); the left
// side streams through its probe, so the join is lazy in its left input.
// Output tuples are the concatenation left ++ right, allocated from a shared
// arena. A consumer that keeps only some columns probes the table itself
// (PartitionedTable.Probe with cols), which writes the projected row alone.
func HashJoin(left, right Iterator, conds []JoinCond) Iterator {
	return NewPartitionedTable(right, conds, 1).Probe(left, nil, nil)
}

// NestedLoopJoin performs a theta-join with arbitrary conditions evaluated
// over the concatenated tuple (left columns first, then right, with right
// column indexes offset by the left arity). The right input is drained
// eagerly; the left side streams. The conditions read a reused scratch
// concatenation; an accepted pair is written as left ++ right when cols is
// nil, else as that row's cols projection, never as both.
func NestedLoopJoin(left, right Iterator, leftArity int, conds []Cond, cols []int) Iterator {
	var rights []Tuple
	for {
		t, ok := right.Next()
		if !ok {
			break
		}
		rights = append(rights, t)
	}
	out := joinRows{post: conds, cols: cols}
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

// JoinRel eagerly equi-joins two relations, producing a concatenated schema.
func JoinRel(name string, a, b *Relation, conds []JoinCond) *Relation {
	schema := a.schema.Concat(b.schema)
	return Drain(name, schema, HashJoin(a.Iter(), b.Iter(), conds))
}

// CrossRel eagerly computes the cross product.
func CrossRel(name string, a, b *Relation) *Relation {
	schema := a.schema.Concat(b.schema)
	return Drain(name, schema, NestedLoopJoin(a.Iter(), b.Iter(), a.schema.Arity(), nil, nil))
}

// Rename returns a renamed shallow view of the relation.
func Rename(r *Relation, name string, attrNames []string) *Relation {
	return &Relation{Name: name, schema: r.schema.Rename(attrNames), tuples: r.tuples}
}
