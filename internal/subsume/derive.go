package subsume

import (
	"slices"
	"sort"

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
	// Candidate carries the cover, the covered comparisons and the residual
	// selections. Its VarCols is nil: read the output columns from OutCols.
	Candidate *Candidate
	// OutCols maps each Q head position to an ext(E) column, or -1 when the
	// position is a constant held in Consts.
	OutCols []int
	Consts  []relation.Value
	// Empty marks a statically-empty query (a false constant comparison):
	// the derivation yields no tuples regardless of the extension.
	Empty bool
}

// DeriveFull attempts a whole-query derivation of q from element e. It
// returns false when e cannot, by itself, produce q's full result. Callers
// that hold the prepared forms use (*Prepared).DeriveFull.
func DeriveFull(e, q *caql.Query) (*Derivation, bool) {
	if len(e.Rels) != len(q.Rels) || !mayDerive(e, q, nil, nil) {
		return nil, false
	}
	return Prepare(e).DeriveFull(Prepare(q), nil)
}

// DeriveFull is the package-level DeriveFull on prepared forms. It takes the
// first assignment in Match's search order that validates — every candidate
// covers all of q, so Match would keep that one alone — and builds the
// derivation straight from its binding, without a VarCols map, in blk, or in
// a new block when blk is nil. The derivation lives in blk, its slices too
// while they fit, until blk is built into again: a caller that reuses one
// block from query to query (the CMS session does) allocates nothing here,
// and must not keep the derivation past the block's next use. Refusing
// allocates nothing and leaves blk as it was.
func (e *Prepared) DeriveFull(q *Prepared, blk *DerivationBlock) (*Derivation, bool) {
	// Every candidate uses all of e's atoms, so it covers all of q's exactly
	// when the two have as many.
	if len(e.Query.Rels) != len(q.Query.Rels) || !searchable(e, q) {
		return nil, false
	}
	// A statically false constant comparison makes q empty; the element that
	// derives the rest of it derives that too.
	empty := false
	for ci, a := range q.Query.Cmps {
		if c := q.cmp(ci); c.l < 0 && c.r < 0 && !c.op.Eval(a.Args[0].Const, a.Args[1].Const) {
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
	var sc scratch
	s := newSearch(e, q, needed, &sc)
	v, ok := s.first(0, &sc)
	if !ok {
		return nil, false
	}
	// Every comparison must be accounted for: covered by the candidate, or
	// constant against constant and so decided statically above.
	for ci := range q.Query.Cmps {
		if c := q.cmp(ci); (c.l >= 0 || c.r >= 0) && !slices.Contains(v.coveredCmps, ci) {
			return nil, false
		}
	}
	// Every head variable must be readable from a column.
	for _, t := range q.head {
		if t >= 0 && v.b.col[t] < 0 {
			return nil, false
		}
	}
	if blk == nil {
		blk = new(DerivationBlock)
	}
	return v.derivation(s.assign, empty, blk), true
}

// DerivationBlock is a whole-query derivation in one allocation: the
// Derivation, its Candidate, and the arrays their slices are carved from
// while they fit. Its zero value is ready for DeriveFull.
type DerivationBlock struct {
	d     Derivation
	c     Candidate
	ints  [8]int
	conds [2]relation.Cond
	vals  [4]relation.Value
}

// layout clears blk and lays out in it a derivation of nc covered atoms,
// ncov covered comparisons, nconds conditions and nh head positions, whose
// slices the caller fills.
func (blk *DerivationBlock) layout(nc, ncov, nconds, nh int) *Derivation {
	*blk = DerivationBlock{}
	ints := carve(blk.ints[:], nc+ncov+nh)
	c := &blk.c
	c.Cover = ints[:nc:nc]
	if ncov > 0 {
		c.CoveredCmps = ints[nc : nc+ncov : nc+ncov]
	}
	if nconds > 0 {
		c.Conds = carve(blk.conds[:], nconds)
	}
	d := &blk.d
	d.Candidate = c
	d.OutCols, d.Consts = ints[nc+ncov:], carve(blk.vals[:], nh)
	return d
}

// derivation builds the whole-query derivation for the validated assignment
// in blk. Its Candidate has no VarCols: the output columns come from the
// binding, and nothing on the full-derivation path reads the map.
func (v *validation) derivation(assign []int, empty bool, blk *DerivationBlock) *Derivation {
	q := v.b.q
	d := blk.layout(len(assign), len(v.coveredCmps), len(v.conds), len(q.head))
	c := d.Candidate
	c.Element = v.b.e.Query
	copy(c.Cover, assign)
	sort.Ints(c.Cover)
	copy(c.CoveredCmps, v.coveredCmps)
	copy(c.Conds, v.conds)
	d.Empty = empty
	for i, t := range q.head {
		if t < 0 {
			d.OutCols[i] = -1
			d.Consts[i] = q.Query.Head.Args[i].Const
		} else {
			d.OutCols[i] = int(v.b.col[t])
		}
	}
	return d
}

// CopyInto copies d into blk, which it overwrites, and returns the copy. It
// allocates only for slices that outgrow blk's arrays.
func (d *Derivation) CopyInto(blk *DerivationBlock) *Derivation {
	c := d.Candidate
	out := blk.layout(len(c.Cover), len(c.CoveredCmps), len(c.Conds), len(d.OutCols))
	out.Candidate.Element = c.Element
	copy(out.Candidate.Cover, c.Cover)
	copy(out.Candidate.CoveredCmps, c.CoveredCmps)
	copy(out.Candidate.Conds, c.Conds)
	copy(out.OutCols, d.OutCols)
	copy(out.Consts, d.Consts)
	out.Empty = d.Empty
	return out
}

// Identity reports whether the derivation's answer is ext(E)'s rows as they
// are: the query is not empty, nothing is left to select, and the output
// columns are the element's columns, each once and in order.
func (d *Derivation) Identity() bool {
	if d.Empty || len(d.Candidate.Conds) > 0 || len(d.OutCols) != len(d.Candidate.Element.Head.Args) {
		return false
	}
	for i, c := range d.OutCols {
		if c != i {
			return false
		}
	}
	return true
}

// Materialize computes q's answer from rows of ext(E), built for the
// allocator: it counts the rows that pass the derivation's selections, then
// copies each one's output values into one n × arity block, row after row.
// The block is dst[:0] when dst has the capacity, and otherwise its only
// allocation. The condition at index skip (-1: none) is not evaluated: the
// caller has applied it already, as an index lookup that produced rows does.
// The values are copies, so a consumer that overwrites one cannot reach the
// source, and rows may be the caller's scratch. An answer's values are copies
// when the derivation is not the identity: the identity's answer is rows
// itself, which a caller whose rows are not scratch serves without
// Materialize.
func (d *Derivation) Materialize(dst []relation.Value, rows []relation.Tuple, skip int) (vals []relation.Value, n int) {
	if d.Empty {
		return dst[:0], 0
	}
	conds := d.Candidate.Conds
	active := len(conds)
	if skip >= 0 {
		active--
	}
	n = len(rows)
	if active > 0 {
		n = 0
		for _, t := range rows {
			if passes(conds, skip, t) {
				n++
			}
		}
	}
	arity := len(d.OutCols)
	if vals = dst[:0]; cap(vals) < n*arity {
		vals = make([]relation.Value, 0, n*arity)
	}
	vals = vals[:n*arity]
	at := 0
	for _, t := range rows {
		if active > 0 && !passes(conds, skip, t) {
			continue
		}
		d.project(vals[at:at+arity], t)
		at += arity
	}
	return vals, n
}

// project writes the output row the derivation makes of t into row.
func (d *Derivation) project(row []relation.Value, t relation.Tuple) {
	for j, c := range d.OutCols {
		if c < 0 {
			row[j] = d.Consts[j]
		} else {
			row[j] = t[c]
		}
	}
}

// passes reports whether t satisfies every condition but the one at skip.
func passes(conds []relation.Cond, skip int, t relation.Tuple) bool {
	for i, c := range conds {
		if i != skip && !c.Eval(t) {
			return false
		}
	}
	return true
}

// ApplyLazy is the derivation as a lazy pipeline: selection on the element
// extension followed by head expansion, producing one output tuple per
// demand. It backs generator-form (lazy) answers from the cache. The output
// rows are carved from blocks that start at lazyBlockRows rows and double up
// to lazyMaxBlockRows (relation's Arena rule), so a long stream costs an
// allocation per block, not per row. A block is never reused, so every row
// handed out stays valid. The identity derivation hands out src's own rows.
// The pipeline keeps a copy of d, in its own allocation, so d's block may be
// built into again while the stream is read.
func (d *Derivation) ApplyLazy(src relation.Iterator) relation.Iterator {
	if d.Empty {
		return relation.Empty()
	}
	if d.Identity() {
		return src
	}
	l := new(lazyRows)
	l.sel = relation.Select(src, d.CopyInto(&l.own).Candidate.Conds)
	return l
}

// lazyRows is ApplyLazy's iterator over its copy of the derivation, held in
// own. block is what is left of the current block, and rows the number of
// rows that block was made for.
type lazyRows struct {
	own   DerivationBlock
	sel   relation.Iterator
	block []relation.Value
	rows  int
}

// Next implements relation.Iterator.
func (l *lazyRows) Next() (relation.Tuple, bool) {
	t, ok := l.sel.Next()
	if !ok {
		return nil, false
	}
	d := &l.own.d
	arity := len(d.OutCols)
	if len(l.block) < arity {
		l.rows = min(max(2*l.rows, lazyBlockRows), lazyMaxBlockRows)
		l.block = make([]relation.Value, l.rows*arity)
	}
	row := l.block[:arity:arity]
	l.block = l.block[arity:]
	d.project(row, t)
	return relation.Tuple(row), true
}

// The lazy answer's row blocks: the first holds lazyBlockRows rows, and each
// next one twice as many, up to lazyMaxBlockRows.
const lazyBlockRows, lazyMaxBlockRows = 8, 1024

// ExactMatch reports whether q is identical to the element definition up to
// variable renaming (the [SELL87]/[IOAN88] reuse condition the paper
// contrasts with: "the cached results must exactly match the query").
func ExactMatch(e, q *caql.Query) bool {
	return e.Canonical() == q.Canonical()
}
