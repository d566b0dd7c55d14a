package subsume

import (
	"sort"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Candidate is one way to derive a conjunctive subquery of a query Q from a
// cache element E: the paper's "E_i ⊇ Q_c". The candidate records which
// atoms of Q are covered, the residual selections to apply to ext(E), and
// where each needed query variable lives in ext(E)'s columns.
type Candidate struct {
	// Element is the defining query of the cache element.
	Element *caql.Query
	// Cover lists the indices into Q.Rels of the covered atoms, ascending.
	Cover []int
	// CoveredCmps lists the indices into Q.Cmps of the comparisons that the
	// derivation accounts for (either implied by E or applied as residual
	// selections).
	CoveredCmps []int
	// Conds are the residual selections over ext(E)'s columns.
	Conds []relation.Cond
	// VarCols maps each available query variable to a column of ext(E)
	// (after Conds; no projection has been applied). Match fills it; the
	// Candidate of a whole-query Derivation leaves it nil, and its columns
	// are the Derivation's OutCols. InterfaceVars, Materialize
	// and PieceAtom read VarCols, so they are for Match's
	// candidates only.
	VarCols map[string]int
}

// InterfaceVars returns the available variables sorted (deterministic
// column order for materialization).
func (c *Candidate) InterfaceVars() []string {
	out := make([]string, 0, len(c.VarCols))
	for v := range c.VarCols {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Materialize computes the candidate's piece from the element's extension:
// residual selections followed by projection onto the interface variables
// (sorted). The result is suitable for joining with the residual part of Q.
func (c *Candidate) Materialize(name string, ext *relation.Relation) *relation.Relation {
	vars := c.InterfaceVars()
	cols := make([]int, len(vars))
	attrs := make([]relation.Attr, len(vars))
	for i, v := range vars {
		cols[i] = c.VarCols[v]
		attrs[i] = relation.Attr{Name: v, Kind: ext.Schema().Attr(cols[i]).Kind}
	}
	it := relation.Project(relation.Select(ext.Iter(), c.Conds), cols, new(relation.Arena))
	return relation.Drain(name, relation.NewSchema(attrs...), it)
}

// PieceAtom returns the relational atom that stands for this candidate's
// piece when the QPO rewrites Q: name(v1, ..., vk) over the sorted interface
// variables.
func (c *Candidate) PieceAtom(name string) logic.Atom {
	vars := c.InterfaceVars()
	args := make([]logic.Term, len(vars))
	for i, v := range vars {
		args[i] = logic.V(v)
	}
	return logic.A(name, args...)
}

// Match finds the ways element E can derive subqueries of Q. The returned
// candidates each use *all* of E's relational atoms (per the paper's step 2:
// an element with atoms the query lacks is more restricted and unusable) and
// cover a subset of Q's atoms. needed is the set of query variables the
// caller must be able to recover from the piece (for a full derivation, the
// head variables; for decomposition, also the variables shared with the
// residual atoms); candidates that cannot supply a needed *covered* variable
// are rejected.
//
// Candidates are deduplicated by cover set and sorted by descending cover
// size. Every candidate covers exactly len(E.Rels) atoms, so all sizes tie,
// and ties stand in search order: E's atoms are placed first to last, each on
// Q's atoms first to last, and the first valid assignment of a cover set is
// the one kept. The result is a function of (E, Q, needed) alone.
//
// This form takes unprepared queries: it refuses without allocating when some
// atom of E has no compatible atom in Q, and prepares both sides otherwise.
// Callers that hold the prepared forms use (*Prepared).Match.
func Match(e, q *caql.Query, needed map[string]bool) []*Candidate {
	if !mayDerive(e, q, nil, nil) {
		return nil
	}
	return Prepare(e).Match(Prepare(q), needed)
}

// Match is the package-level Match on prepared forms. It allocates only for
// the candidates it returns.
func (e *Prepared) Match(q *Prepared, needed map[string]bool) []*Candidate {
	var buf [32]bool
	nb := carve(buf[:], q.nvars)
	for i, a := range q.Query.Rels {
		for p, t := range a.Args {
			if v := q.rel(i)[p]; v >= 0 {
				nb[v] = needed[t.Var]
			}
		}
	}
	if !searchable(e, q) {
		return nil
	}
	var sc scratch
	s := newSearch(e, q, nb, &sc)
	return s.place(0, nil, &sc)
}

// searchable reports whether e has atoms and q at least as many.
func searchable(e, q *Prepared) bool {
	ne := len(e.Query.Rels)
	return ne > 0 && ne <= len(q.Query.Rels)
}

// carve returns n zeroed elements, from buf when it is large enough, with
// the capacity cut to n.
func carve[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n:n]
	}
	return make([]T, n)
}

// search is one depth-first assignment of E's atoms to distinct atoms of Q.
type search struct {
	e, q   *Prepared
	needed []bool
	assign []int  // e atom index -> q atom index
	used   []bool // by q atom index
}

// scratch is stack space for a search and its validations while the queries
// are small. It is passed down, never stored in the search: a slice of it
// kept in a struct reached through a pointer would move it to the heap.
type scratch struct {
	assign [8]int
	used   [16]bool
	bind   [64]int32
	conds  [8]relation.Cond
	cmps   [8]int
}

// newSearch sets up a search over the caller's scratch space.
func newSearch(e, q *Prepared, needed []bool, sc *scratch) search {
	return search{e: e, q: q, needed: needed,
		assign: carve(sc.assign[:], len(e.Query.Rels)), used: carve(sc.used[:], len(q.Query.Rels))}
}

// place assigns E's atoms from the i-th on and returns out with the
// candidates found appended. (out is threaded through rather than kept in
// the struct so that the struct, and the stack buffers behind its slices,
// never reach the heap.)
func (s *search) place(i int, out []*Candidate, sc *scratch) []*Candidate {
	if i == len(s.assign) {
		if !s.coverSeen(out) {
			if v, ok := validate(s.e, s.q, s.assign, s.needed, sc); ok {
				out = append(out, v.candidate(s.assign))
			}
		}
		return out
	}
	ea := s.e.Query.Rels[i]
	for qi, qa := range s.q.Query.Rels {
		if s.used[qi] || !atomCompatible(ea, qa) {
			continue
		}
		s.assign[i], s.used[qi] = qi, true
		out = s.place(i+1, out, sc)
		s.used[qi] = false
	}
	return out
}

// first is place stopped at the first assignment that validates: it leaves
// that assignment in s.assign and returns its validation.
func (s *search) first(i int, sc *scratch) (validation, bool) {
	if i == len(s.assign) {
		return validate(s.e, s.q, s.assign, s.needed, sc)
	}
	ea := s.e.Query.Rels[i]
	for qi, qa := range s.q.Query.Rels {
		if s.used[qi] || !atomCompatible(ea, qa) {
			continue
		}
		s.assign[i], s.used[qi] = qi, true
		v, ok := s.first(i+1, sc)
		s.used[qi] = false
		if ok {
			return v, true
		}
	}
	return validation{}, false
}

// coverSeen reports whether a candidate in out already covers exactly the
// atoms of the current assignment (all covers have the same size).
func (s *search) coverSeen(out []*Candidate) bool {
	for _, c := range out {
		same := true
		for _, qi := range s.assign {
			if i := sort.SearchInts(c.Cover, qi); i == len(c.Cover) || c.Cover[i] != qi {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// atomCompatible reports whether a query atom is over the same relation as an
// element atom and passes the paper's one-directional term rule positionwise:
// a query constant matches the same element constant or an element variable;
// a query variable matches only an element variable.
func atomCompatible(eAtom, qAtom logic.Atom) bool {
	if eAtom.Pred != qAtom.Pred || len(eAtom.Args) != len(qAtom.Args) {
		return false
	}
	for i := range eAtom.Args {
		et, qt := eAtom.Args[i], qAtom.Args[i]
		switch {
		case et.IsConst() && qt.IsConst():
			if !et.Const.Equal(qt.Const) {
				return false
			}
		case et.IsConst() && qt.IsVar():
			return false // element more restricted at this position
		}
	}
	return true
}

// unbound marks an element variable no atom of the assignment has met yet.
const unbound = -1

// binding is validate's view of one assignment: where each element variable
// lands in Q, and which element variables each query variable collects. All
// of it lives in one caller-provided scratch slice.
type binding struct {
	e, q *Prepared
	// at[ev], pos[ev]: the atom of Q and the position in it of the term the
	// element variable is bound to (at is unbound before the first meeting).
	at, pos []int32
	// Per query variable: how many distinct element variables are bound to
	// it, the lowest-numbered of them, and the extension column it can be
	// read from (-1: none of them is in the element's head).
	nsrc, first, col []int32
}

// term returns the query term element variable ev is bound to: a variable
// number, or constTerm with the constant.
func (b *binding) term(ev int32) (int32, relation.Value) {
	a, p := b.at[ev], b.pos[ev]
	if t := b.q.rel(int(a))[p]; t >= 0 {
		return t, relation.Value{}
	}
	return constTerm, b.q.Query.Rels[a].Args[p].Const
}

// validation is what validate establishes about one complete assignment:
// its binding, the residual selections over ext(E), and the query
// comparisons it accounts for. Its slices live in the caller's scratch while
// they fit.
type validation struct {
	b           binding
	conds       []relation.Cond
	coveredCmps []int
}

// validate checks a complete assignment. Nothing reaches the heap while the
// queries fit the scratch space; the caller builds what it needs from the
// validation once the assignment is certain.
func validate(e, q *Prepared, assign []int, needed []bool, sc *scratch) (validation, bool) {
	nE, nQ := e.nvars, q.nvars
	bind := carve(sc.bind[:], 2*nE+3*nQ)
	v := validation{b: binding{e: e, q: q,
		at: bind[:nE], pos: bind[nE : 2*nE],
		nsrc: bind[2*nE : 2*nE+nQ], first: bind[2*nE+nQ : 2*nE+2*nQ], col: bind[2*nE+2*nQ:]},
		conds: sc.conds[:0], coveredCmps: sc.cmps[:0]}
	b := &v.b
	for i := range b.at {
		b.at[i] = unbound
	}
	for i := range b.nsrc {
		b.nsrc[i], b.col[i] = 0, -1
	}

	for ei, qi := range assign {
		for p, ev := range e.rel(ei) {
			if ev < 0 {
				continue // compatibility already checked
			}
			if b.at[ev] == unbound {
				b.at[ev], b.pos[ev] = int32(qi), int32(p)
				continue
			}
			// The element equates two terms of Q. The equality holds in every
			// ext(E) tuple, so unless Q's terms are the same the element
			// constrains more than Q asks. Reject.
			pt, pc := b.term(ev)
			if qt := q.rel(qi)[p]; qt != pt || (qt < 0 && !pc.Equal(q.Query.Rels[qi].Args[p].Const)) {
				return validation{}, false
			}
		}
	}
	// Element variables were numbered in the order the loop above met them,
	// so ascending number is meeting order: first[qv] is the variable met
	// first, and col[qv] belongs to the first one met that has a column.
	for ev := int32(0); int(ev) < nE; ev++ {
		if b.at[ev] == unbound {
			continue
		}
		if qv, _ := b.term(ev); qv >= 0 {
			if b.nsrc[qv] == 0 {
				b.first[qv] = ev
			}
			b.nsrc[qv]++
			if b.col[qv] < 0 {
				b.col[qv] = e.headCol[ev]
			}
		}
	}

	// Two kinds of element variable need a residual selection, and therefore
	// an extension column: one bound to a query constant (an equality with
	// the constant), and one of several distinct element variables matched
	// by the same query variable (Q requires an equality the element does
	// not intrinsically provide).
	for ev := int32(0); int(ev) < nE; ev++ {
		if b.at[ev] == unbound || e.headCol[ev] >= 0 {
			continue
		}
		if qv, _ := b.term(ev); qv < 0 || b.nsrc[qv] > 1 {
			return validation{}, false
		}
	}
	// The selections are emitted in extension-column order, so the candidate
	// is a function of (element, query): the CMS indexes the first equality
	// it finds.
	for c, ev := range e.head {
		if ev < 0 || e.headCol[ev] != int32(c) || b.at[ev] == unbound {
			continue
		}
		switch qv, k := b.term(ev); {
		case qv < 0:
			v.conds = append(v.conds, relation.ColConst(c, relation.OpEq, k))
		case b.nsrc[qv] > 1 && b.first[qv] != ev:
			v.conds = append(v.conds, relation.ColCol(int(e.headCol[b.first[qv]]), relation.OpEq, c))
		}
	}

	// Needed covered variables must be available. A query variable is covered
	// exactly when some element variable is bound to it. (Needed variables
	// not occurring in the covered atoms are the residual part's concern.)
	for qv := range b.nsrc {
		if needed[qv] && b.nsrc[qv] > 0 && b.col[qv] < 0 {
			return validation{}, false
		}
	}

	// Element comparisons must be implied by the query's constraints under
	// the binding: ext(E) must not exclude tuples Q wants.
	for k := range e.Query.Cmps {
		if !b.elementCmpImplied(k) {
			return validation{}, false
		}
	}

	// Query comparisons whose variables are all covered: drop when implied
	// by the element's own comparisons, otherwise apply as residual
	// selections when the columns are available; if a covered-only variable
	// lacks a column the candidate fails, and comparisons involving
	// uncovered variables remain the residual query's responsibility.
	for ci := range q.Query.Cmps {
		qc := q.cmp(ci)
		lCov, rCov := qc.l >= 0 && b.nsrc[qc.l] > 0, qc.r >= 0 && b.nsrc[qc.r] > 0
		if !lCov && !rCov {
			continue
		}
		if (qc.l >= 0 && !lCov) || (qc.r >= 0 && !rCov) {
			continue // residual will handle it (its vars span both parts)
		}
		if !b.queryCmpImplied(ci) {
			cond, ok := b.cmpToCond(ci)
			if !ok {
				return validation{}, false
			}
			v.conds = append(v.conds, cond)
		}
		v.coveredCmps = append(v.coveredCmps, ci)
	}
	return v, true
}

// candidate builds the Candidate for the validated assignment.
func (v *validation) candidate(assign []int) *Candidate {
	q, b := v.b.q, &v.b
	cand := &Candidate{Element: v.b.e.Query, Cover: append([]int(nil), assign...), VarCols: make(map[string]int)}
	sort.Ints(cand.Cover)
	if len(v.coveredCmps) > 0 {
		cand.CoveredCmps = append([]int(nil), v.coveredCmps...)
	}
	if len(v.conds) > 0 {
		cand.Conds = append([]relation.Cond(nil), v.conds...)
	}
	for i, a := range q.Query.Rels {
		for p, t := range a.Args {
			if v := q.rel(i)[p]; v >= 0 && b.col[v] >= 0 {
				cand.VarCols[t.Var] = int(b.col[v])
			}
		}
	}
	return cand
}

// elementCmpImplied checks that element comparison k, read through the
// binding as a statement about Q's terms, is guaranteed by Q's own
// constraints.
func (b *binding) elementCmpImplied(k int) bool {
	f, args := b.e.cmp(k), b.e.Query.Cmps[k].Args
	l, lc, lok := b.through(f.l, args[0].Const)
	r, rc, rok := b.through(f.r, args[1].Const)
	switch {
	case !lok || !rok:
		return false
	case l < 0 && r < 0:
		return f.op.Eval(lc, rc)
	case r < 0:
		return b.q.rangeOf(l).Implies(f.op, rc)
	case l < 0:
		return b.q.rangeOf(r).Implies(f.op.Flip(), lc)
	}
	// var-vs-var: require the same comparison syntactically in Q.
	for k := range b.q.Query.Cmps {
		if qc := b.q.cmp(k); (qc.op == f.op && qc.l == l && qc.r == r) || (qc.op == f.op.Flip() && qc.l == r && qc.r == l) {
			return true
		}
	}
	return false
}

// through reads one side of an element comparison as a term of Q: the
// element's own constant, or what its variable is bound to. ok is false for
// a variable no relational atom of E binds (an unsafe definition).
func (b *binding) through(t int32, own relation.Value) (qv int32, c relation.Value, ok bool) {
	switch {
	case t < 0:
		return constTerm, own, true
	case b.at[t] == unbound:
		return 0, own, false
	}
	qv, c = b.term(t)
	return qv, c, true
}

// queryCmpImplied checks whether the element's comparisons already guarantee
// query comparison ci (so no residual selection is required). When several
// element variables are bound to the query variable, the first one met
// speaks for it: the residual equalities make the others equal to it.
func (b *binding) queryCmpImplied(ci int) bool {
	v, op, c, ok := b.q.varConst(ci)
	if !ok {
		return false
	}
	return b.e.rangeOf(b.first[v]).Implies(op, c)
}

// cmpToCond converts query comparison ci into a selection over the
// extension's columns.
func (b *binding) cmpToCond(ci int) (relation.Cond, bool) {
	f, args := b.q.cmp(ci), b.q.Query.Cmps[ci].Args
	switch {
	case f.l >= 0 && f.r >= 0:
		if b.col[f.l] < 0 || b.col[f.r] < 0 {
			return relation.Cond{}, false
		}
		return relation.ColCol(int(b.col[f.l]), f.op, int(b.col[f.r])), true
	case f.l >= 0:
		if b.col[f.l] < 0 {
			return relation.Cond{}, false
		}
		return relation.ColConst(int(b.col[f.l]), f.op, args[1].Const), true
	case f.r >= 0:
		if b.col[f.r] < 0 {
			return relation.Cond{}, false
		}
		return relation.ColConst(int(b.col[f.r]), f.op.Flip(), args[0].Const), true
	default:
		// Constant against constant: DeriveFull decides these before matching.
		return relation.Cond{}, false
	}
}
