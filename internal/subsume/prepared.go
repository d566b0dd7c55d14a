package subsume

import (
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Prepared is a conjunctive query analysed once for matching: its variables
// numbered, every argument position resolved to a variable number or marked
// constant, and the range its comparisons leave each variable. The CMS keeps
// one per cache element (built with the definition) and builds one per
// dispatched query, so that deciding "this element cannot help" — MayDerive —
// and the matcher proper work on integers and allocate nothing to say no.
//
// The query must not be modified after Prepare; a Prepared is immutable and
// safe for concurrent readers.
type Prepared struct {
	Query *caql.Query

	// nvars counts the variables. Relational atoms are numbered first, in
	// atom then position order: a matcher that walks an element's atoms in
	// order meets its variables in ascending number.
	nvars int
	// terms holds the term at every position of Query.Rels, atom after atom
	// (rel(i) is atom i's), and head[p] the term at head position p: a
	// variable number, or constTerm. Names and constant values stay in the
	// atoms. off[i] is where atom i starts in terms; off[len(Rels)] is the end.
	terms, off, head []int32
	// headCol is the first head position of each variable, -1 for a variable
	// the head does not export: the column of the stored extension it can be
	// read from.
	headCol []int32
	// cmps holds Query.Cmps[k] as op, l, r at 3k (see cmp).
	cmps []int32
	// ranges holds RangeOf for each variable some var-vs-constant comparison
	// constrains (few; found by scan).
	ranges []varRange
}

const constTerm = -1

type cmpForm struct {
	op   relation.CmpOp
	l, r int32
}

type varRange struct {
	v int32
	r Range
}

var unconstrained Range

// Prepare analyses q into a PreparedBlock of its own. Everything but the
// ranges of var-vs-constant comparisons is that one allocation while its
// integers fit; everything derived from it afterwards is read-only.
func Prepare(q *caql.Query) *Prepared { return PrepareInto(new(PreparedBlock), q) }

// PrepareInto is Prepare into blk, which it overwrites: the Prepared it
// returns, and every slice of it, lives in blk until blk is prepared again.
// A caller that reuses one block from query to query (the CMS session does)
// allocates nothing here for a query whose integers fit, beyond the ranges
// of its var-vs-constant comparisons, and must hand out nothing that points
// into blk. Nothing Match, DeriveFull or MayDerive returns does.
func PrepareInto(blk *PreparedBlock, q *caql.Query) *Prepared {
	var names [16]string
	vars := names[:0]
	term := func(t logic.Term) int32 {
		if t.IsConst() {
			return constTerm
		}
		for i, v := range vars {
			if v == t.Var {
				return int32(i)
			}
		}
		vars = append(vars, t.Var)
		return int32(len(vars) - 1)
	}
	// First pass numbers the variables, second fills one block of integers.
	nterms := 0
	for _, a := range q.Rels {
		nterms += len(a.Args)
		for _, t := range a.Args {
			term(t)
		}
	}
	for _, t := range q.Head.Args {
		term(t)
	}
	for _, c := range q.Cmps {
		term(c.Args[0])
		term(c.Args[1])
	}
	nrels, nhead, nvars := len(q.Rels), len(q.Head.Args), len(vars)

	p, ids := &blk.p, carve(blk.ids[:], nterms+nrels+1+nhead+nvars+3*len(q.Cmps))
	*p = Prepared{Query: q, nvars: nvars, ranges: p.ranges[:0]}
	p.terms, ids = ids[:nterms], ids[nterms:]
	p.off, ids = ids[:nrels+1], ids[nrels+1:]
	p.head, ids = ids[:nhead], ids[nhead:]
	p.headCol, p.cmps = ids[:nvars], ids[nvars:]
	k := 0
	for i, a := range q.Rels {
		p.off[i] = int32(k)
		for _, t := range a.Args {
			p.terms[k] = term(t)
			k++
		}
	}
	p.off[nrels] = int32(k)
	for i := range p.headCol {
		p.headCol[i] = -1
	}
	for i, t := range q.Head.Args {
		v := term(t)
		p.head[i] = v
		if v >= 0 && p.headCol[v] < 0 {
			p.headCol[v] = int32(i)
		}
	}
	for i, c := range q.Cmps {
		p.cmps[3*i], p.cmps[3*i+1], p.cmps[3*i+2] = int32(c.CmpOp()), term(c.Args[0]), term(c.Args[1])
	}

	for k := range q.Cmps {
		if v, _, _, ok := p.varConst(k); ok && p.rangeOf(v) == &unconstrained {
			p.ranges = append(p.ranges, varRange{v, RangeOf(vars[v], q.Cmps)})
		}
	}
	return p
}

// PreparedBlock is a Prepared and the integers its slices are carved from, in
// one allocation. The benchmark workloads' queries need 5 to 20 integers
// (ie_ask 5–8, caql_cold 9–20, write_mix 17); a query that needs more than 24
// takes a second allocation for them. Its zero value is ready for
// PrepareInto.
type PreparedBlock struct {
	p   Prepared
	ids [24]int32
}

// rel returns the terms of relational atom i.
func (p *Prepared) rel(i int) []int32 { return p.terms[p.off[i]:p.off[i+1]] }

// cmp returns comparison k.
func (p *Prepared) cmp(k int) cmpForm {
	c := p.cmps[3*k : 3*k+3]
	return cmpForm{op: relation.CmpOp(c[0]), l: c[1], r: c[2]}
}

// varConst reads comparison k as "variable op constant", flipping it when the
// constant is written first; ok is false for any other shape.
func (p *Prepared) varConst(k int) (v int32, op relation.CmpOp, c relation.Value, ok bool) {
	f, args := p.cmp(k), p.Query.Cmps[k].Args
	switch {
	case f.l >= 0 && f.r < 0:
		return f.l, f.op, args[1].Const, true
	case f.l < 0 && f.r >= 0:
		return f.r, f.op.Flip(), args[0].Const, true
	}
	return 0, 0, relation.Value{}, false
}

// rangeOf returns what the var-vs-constant comparisons say about variable v.
func (p *Prepared) rangeOf(v int32) *Range {
	for i := range p.ranges {
		if p.ranges[i].v == v {
			return &p.ranges[i].r
		}
	}
	return &unconstrained
}

// MayDerive is a necessary condition for e.Match(q, ·) to return a candidate,
// decided without allocating: every relational atom of the element needs an
// atom of the query it is compatible with (same relation, the paper's
// one-directional term rule at every position), and at that atom every
// var-vs-constant comparison of the element must already follow from what the
// query says about the term facing the variable — its range when that term is
// a variable, the constant itself when it is one.
//
// It is sound because it asks less than the matcher does. A candidate assigns
// every element atom to a distinct compatible query atom, binds each element
// variable to the term it faces there, and is rejected unless each element
// comparison is implied under that binding; MayDerive checks the same two
// things atom by atom, dropping the requirements that the atoms be distinct
// and the bindings agree with each other. So it never says no where Match
// says yes, and the CMS may skip every element it refuses.
func MayDerive(e, q *Prepared) bool {
	return mayDerive(e.Query, q.Query, e, q)
}

// mayDerive is MayDerive; with pe and pq nil it checks the atoms only, which
// is what Match can ask of two queries it has not prepared yet.
func mayDerive(e, q *caql.Query, pe, pq *Prepared) bool {
	if len(e.Rels) == 0 || len(e.Rels) > len(q.Rels) {
		return false
	}
	for i, ea := range e.Rels {
		found := false
		for j, qa := range q.Rels {
			if atomCompatible(ea, qa) && (pe == nil || pe.cmpsHoldAt(i, pq, j)) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// cmpsHoldAt reports whether, with e's atom i laid over q's atom j, q implies
// every var-vs-constant comparison e makes on a variable of that atom.
func (e *Prepared) cmpsHoldAt(i int, q *Prepared, j int) bool {
	for k := range e.Query.Cmps {
		v, op, c, ok := e.varConst(k)
		if !ok {
			continue
		}
		for p, t := range e.rel(i) {
			if t != v {
				continue
			}
			if qt := q.rel(j)[p]; qt >= 0 {
				if !q.rangeOf(qt).Implies(op, c) {
					return false
				}
			} else if !op.Eval(q.Query.Rels[j].Args[p].Const, c) {
				return false
			}
		}
	}
	return true
}
