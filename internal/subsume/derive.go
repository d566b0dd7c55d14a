package subsume

import (
	"fmt"
	"slices"

	"repro/internal/caql"
	"repro/internal/relation"
)

// Derivation is a complete plan for computing a query Q from a single cache
// element's extension: residual selections (in the candidate) followed by a
// projection/expansion onto Q's head positions. This is the "result can be
// produced entirely from the cache" case, which also enables lazy evaluation
// (Section 5.1: lazy evaluation is possible only when all required data is
// in the cache).
type Derivation struct {
	Candidate *Candidate
	// OutCols maps each Q head position to an ext(E) column, or -1 when the
	// position is a constant held in Consts.
	OutCols []int
	Consts  []relation.Value
	// Empty marks a statically-empty query (a false constant comparison):
	// Apply returns no tuples regardless of the extension.
	Empty bool
}

// DeriveFull attempts a whole-query derivation of q from element e. It
// returns false when e cannot, by itself, produce q's full result. Callers
// that hold the prepared forms use (*Prepared).DeriveFull.
func DeriveFull(e, q *caql.Query) (*Derivation, bool) {
	if len(e.Rels) != len(q.Rels) || !mayDerive(e, q, nil, nil) {
		return nil, false
	}
	return Prepare(e).DeriveFull(Prepare(q))
}

// DeriveFull is the package-level DeriveFull on prepared forms.
func (e *Prepared) DeriveFull(q *Prepared) (*Derivation, bool) {
	// Every candidate uses all of e's atoms, so it covers all of q's exactly
	// when the two have as many.
	if len(e.Query.Rels) != len(q.Query.Rels) {
		return nil, false
	}
	// A statically false constant comparison makes q empty; the element that
	// derives the rest of it derives that too.
	empty := false
	for ci, c := range q.cmps {
		if a := q.Query.Cmps[ci].Args; c.l < 0 && c.r < 0 && !c.op.Eval(a[0].Const, a[1].Const) {
			empty = true
		}
	}
	var buf [32]bool
	needed := carve(buf[:], q.nvars)
	for _, t := range q.head {
		if t >= 0 {
			needed[t] = true
		}
	}
	for _, cand := range e.match(q, needed) {
		// Every comparison must be accounted for: covered by the candidate,
		// or constant against constant and so decided statically above.
		ok := true
		for ci, c := range q.cmps {
			if (c.l >= 0 || c.r >= 0) && !slices.Contains(cand.CoveredCmps, ci) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		d := &Derivation{
			Candidate: cand,
			OutCols:   make([]int, len(q.head)),
			Consts:    make([]relation.Value, len(q.head)),
			Empty:     empty,
		}
		feasible := true
		for i, t := range q.Query.Head.Args {
			if t.IsConst() {
				d.OutCols[i] = -1
				d.Consts[i] = t.Const
				continue
			}
			col, ok := cand.VarCols[t.Var]
			if !ok {
				feasible = false
				break
			}
			d.OutCols[i] = col
		}
		if feasible {
			return d, true
		}
	}
	return nil, false
}

// Apply computes q's extension from ext(E) according to the derivation.
// schema is the output schema (as derived by caql evaluation or OutputSchema).
func (d *Derivation) Apply(name string, schema *relation.Schema, ext *relation.Relation) (*relation.Relation, error) {
	if schema.Arity() != len(d.OutCols) {
		return nil, fmt.Errorf("subsume: schema arity %d != derivation arity %d", schema.Arity(), len(d.OutCols))
	}
	return relation.Drain(name, schema, d.ApplyLazy(ext.Iter())), nil
}

// Materialize is Apply over any source of ext(E) tuples, built for the
// allocator: it collects the selected source tuples, then carves every
// output row from one len × arity block and reuses the collected slice to
// hold them. The rows are copies, so a consumer that mutates one cannot
// reach the source. A source that hints its size and needs no selection is
// collected into one exactly-sized slice; otherwise the slice doubles.
func (d *Derivation) Materialize(name string, schema *relation.Schema, src relation.Iterator) *relation.Relation {
	if d.Empty {
		return relation.New(name, schema)
	}
	conds := d.Candidate.Conds
	var sel []relation.Tuple
	if h, ok := src.(relation.SizeHinter); ok && len(conds) == 0 {
		sel = make([]relation.Tuple, 0, h.SizeHint())
	}
	for t, ok := src.Next(); ok; t, ok = src.Next() {
		if !relation.EvalAll(conds, t) {
			continue
		}
		if len(sel) == cap(sel) {
			grown := make([]relation.Tuple, len(sel), max(2*len(sel), 8))
			copy(grown, sel)
			sel = grown
		}
		sel = append(sel, t)
	}
	arity := len(d.OutCols)
	block := make([]relation.Value, len(sel)*arity)
	for i, t := range sel {
		row := relation.Tuple(block[i*arity : (i+1)*arity : (i+1)*arity])
		for j, c := range d.OutCols {
			if c < 0 {
				row[j] = d.Consts[j]
			} else {
				row[j] = t[c]
			}
		}
		sel[i] = row
	}
	return relation.FromTuples(name, schema, sel)
}

// ApplyLazy is the derivation as a lazy pipeline: selection on the element
// extension followed by head expansion, producing one output tuple per
// demand. It backs generator-form (lazy) answers from the cache.
func (d *Derivation) ApplyLazy(src relation.Iterator) relation.Iterator {
	if d.Empty {
		return relation.Empty()
	}
	sel := relation.Select(src, d.Candidate.Conds)
	return relation.IteratorFunc(func() (relation.Tuple, bool) {
		t, ok := sel.Next()
		if !ok {
			return nil, false
		}
		row := make(relation.Tuple, len(d.OutCols))
		for i, c := range d.OutCols {
			if c < 0 {
				row[i] = d.Consts[i]
			} else {
				row[i] = t[c]
			}
		}
		return row, true
	})
}

// ExactMatch reports whether q is identical to the element definition up to
// variable renaming (the [SELL87]/[IOAN88] reuse condition the paper
// contrasts with: "the cached results must exactly match the query").
func ExactMatch(e, q *caql.Query) bool {
	return e.Canonical() == q.Canonical()
}
