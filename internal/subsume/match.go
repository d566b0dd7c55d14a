package subsume

import (
	"fmt"
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
	// (after Conds; no projection has been applied).
	VarCols map[string]int
}

// CoversAll reports whether the candidate covers every relational atom of a
// query with n relational atoms.
func (c *Candidate) CoversAll(n int) bool { return len(c.Cover) == n }

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
	it := relation.Project(relation.Select(ext.Iter(), c.Conds), cols)
	return relation.Drain(name, relation.NewSchema(attrs...), it)
}

// MaterializeLazy is Materialize as a lazy pipeline over an iterator of
// ext(E) tuples.
func (c *Candidate) MaterializeLazy(src relation.Iterator) relation.Iterator {
	vars := c.InterfaceVars()
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = c.VarCols[v]
	}
	return relation.Project(relation.Select(src, c.Conds), cols)
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
// Candidates are deduplicated by cover set (first valid assignment wins) and
// sorted by descending cover size.
func Match(e, q *caql.Query, needed map[string]bool) []*Candidate {
	if len(e.Rels) == 0 || len(e.Rels) > len(q.Rels) {
		return nil
	}
	// Group Q atom indices by predicate key for fast candidate lookup.
	byPred := make(map[string][]int)
	for i, a := range q.Rels {
		byPred[a.Key()] = append(byPred[a.Key()], i)
	}
	var out []*Candidate
	seen := make(map[string]bool)

	assignment := make([]int, len(e.Rels)) // e atom index -> q atom index
	used := make(map[int]bool)
	var rec func(i int)
	rec = func(i int) {
		if i == len(e.Rels) {
			if cand := validate(e, q, assignment, needed); cand != nil {
				key := fmt.Sprint(cand.Cover)
				if !seen[key] {
					seen[key] = true
					out = append(out, cand)
				}
			}
			return
		}
		for _, qi := range byPred[e.Rels[i].Key()] {
			if used[qi] {
				continue
			}
			// Quick per-atom directional check before recursing.
			if !atomCompatible(e.Rels[i], q.Rels[qi]) {
				continue
			}
			assignment[i] = qi
			used[qi] = true
			rec(i + 1)
			used[qi] = false
		}
	}
	rec(0)
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Cover) > len(out[j].Cover) })
	return out
}

// atomCompatible applies the paper's one-directional term rule positionwise:
// a query constant matches the same element constant or an element variable;
// a query variable matches only an element variable.
func atomCompatible(eAtom, qAtom logic.Atom) bool {
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

// validate checks a complete assignment and builds the candidate.
func validate(e, q *caql.Query, assignment []int, needed map[string]bool) *Candidate {
	// Element extension columns: position of each element head variable.
	eCol := make(map[string]int)
	for i, t := range e.Head.Args {
		if t.IsVar() {
			if _, dup := eCol[t.Var]; !dup {
				eCol[t.Var] = i
			}
		}
	}

	// Build m: element variable -> query term, and the inverse grouping.
	m := make(map[string]logic.Term)
	qVarSources := make(map[string][]string) // q var -> element vars mapping to it
	for ei, qi := range assignment {
		eAtom, qAtom := e.Rels[ei], q.Rels[qi]
		for p := range eAtom.Args {
			et, qt := eAtom.Args[p], qAtom.Args[p]
			if et.IsConst() {
				continue // compatibility already checked
			}
			prev, ok := m[et.Var]
			if !ok {
				m[et.Var] = qt
				if qt.IsVar() {
					qVarSources[qt.Var] = appendUnique(qVarSources[qt.Var], et.Var)
				}
				continue
			}
			if prev.Equal(qt) {
				continue
			}
			// The element equates two query terms that Q does not equate:
			// the element is more restricted unless we can enforce the
			// equality... but the equality holds in *every* ext(E) tuple, so
			// differing Q terms mean the element constrains more than Q
			// asks. Reject.
			return nil
		}
	}

	// Two kinds of element variable need a residual selection, and therefore
	// an extension column: one bound to a query constant (an equality with
	// the constant), and one of several distinct element variables matched
	// by the same query variable (Q requires an equality the element does
	// not intrinsically provide).
	for ev, t := range m {
		if t.IsConst() || len(qVarSources[t.Var]) > 1 {
			if _, ok := eCol[ev]; !ok {
				return nil
			}
		}
	}
	// The map range above only rejects. The selections themselves are
	// emitted in extension-column order, so the candidate is a function of
	// (element, query): the CMS indexes the first equality it finds.
	var conds []relation.Cond
	for col, ht := range e.Head.Args {
		if !ht.IsVar() || eCol[ht.Var] != col {
			continue
		}
		qt, ok := m[ht.Var]
		switch {
		case !ok:
		case qt.IsConst():
			conds = append(conds, relation.ColConst(col, relation.OpEq, qt.Const))
		default:
			if evs := qVarSources[qt.Var]; len(evs) > 1 && evs[0] != ht.Var {
				conds = append(conds, relation.ColCol(eCol[evs[0]], relation.OpEq, col))
			}
		}
	}

	// Available query variables and their extension columns.
	varCols := make(map[string]int)
	for qv, evs := range qVarSources {
		for _, ev := range evs {
			if col, ok := eCol[ev]; ok {
				varCols[qv] = col
				break
			}
		}
	}

	// Needed covered variables must be available. (Needed variables not
	// occurring in the covered atoms are the residual part's concern.)
	coveredVars := make(map[string]bool)
	for _, qi := range assignment {
		for _, t := range q.Rels[qi].Args {
			if t.IsVar() {
				coveredVars[t.Var] = true
			}
		}
	}
	for v := range needed {
		if coveredVars[v] {
			if _, ok := varCols[v]; !ok {
				return nil
			}
		}
	}

	// Element comparisons must be implied by the query's constraints mapped
	// through m: ext(E) must not exclude tuples Q wants.
	for _, ec := range e.Cmps {
		if !elementCmpImplied(ec, m, q) {
			return nil
		}
	}

	// Query comparisons whose variables are all covered: drop when implied
	// by the element's own comparisons (mapped), otherwise apply as residual
	// selections when the columns are available; if a covered-only variable
	// lacks a column the candidate fails, and comparisons involving
	// uncovered variables remain the residual query's responsibility.
	var coveredCmps []int
	for ci, qc := range q.Cmps {
		vars := qc.VarSet()
		allCovered := true
		anyCovered := false
		for v := range vars {
			if coveredVars[v] {
				anyCovered = true
			} else {
				allCovered = false
			}
		}
		if !anyCovered {
			continue
		}
		if !allCovered {
			continue // residual will handle it (its vars span both parts)
		}
		if queryCmpImpliedByElement(qc, e, m) {
			coveredCmps = append(coveredCmps, ci)
			continue
		}
		cond, ok := cmpToCond(qc, varCols)
		if !ok {
			return nil
		}
		conds = append(conds, cond)
		coveredCmps = append(coveredCmps, ci)
	}

	cover := append([]int(nil), assignment...)
	sort.Ints(cover)
	return &Candidate{
		Element:     e,
		Cover:       cover,
		CoveredCmps: coveredCmps,
		Conds:       conds,
		VarCols:     varCols,
	}
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// elementCmpImplied checks that an element comparison, translated through m
// into query terms, is guaranteed by the query's own constraints.
func elementCmpImplied(ec logic.Atom, m map[string]logic.Term, q *caql.Query) bool {
	op := ec.CmpOp()
	l := translate(ec.Args[0], m)
	r := translate(ec.Args[1], m)
	switch {
	case l.IsConst() && r.IsConst():
		return op.Eval(l.Const, r.Const)
	case l.IsVar() && r.IsConst():
		return RangeOf(l.Var, q.Cmps).Implies(op, r.Const)
	case l.IsConst() && r.IsVar():
		return RangeOf(r.Var, q.Cmps).Implies(op.Flip(), l.Const)
	default:
		// var-vs-var: require the same comparison syntactically in Q.
		for _, qc := range q.Cmps {
			if qc.Pred == ec.Pred &&
				qc.Args[0].Equal(l) && qc.Args[1].Equal(r) {
				return true
			}
			if qc.Pred == op.Flip().String() &&
				qc.Args[0].Equal(r) && qc.Args[1].Equal(l) {
				return true
			}
		}
		return false
	}
}

// queryCmpImpliedByElement checks whether the element's comparisons already
// guarantee a query comparison (so no residual selection is required).
func queryCmpImpliedByElement(qc logic.Atom, e *caql.Query, m map[string]logic.Term) bool {
	// Invert m for the variables of qc: find element vars mapping to them.
	inv := make(map[string]string)
	for ev, t := range m {
		if t.IsVar() {
			if _, ok := inv[t.Var]; !ok {
				inv[t.Var] = ev
			}
		}
	}
	op := qc.CmpOp()
	l, r := qc.Args[0], qc.Args[1]
	switch {
	case l.IsVar() && r.IsConst():
		ev, ok := inv[l.Var]
		if !ok {
			return false
		}
		return RangeOf(ev, e.Cmps).Implies(op, r.Const)
	case l.IsConst() && r.IsVar():
		ev, ok := inv[r.Var]
		if !ok {
			return false
		}
		return RangeOf(ev, e.Cmps).Implies(op.Flip(), l.Const)
	default:
		return false
	}
}

// cmpToCond converts a query comparison over available columns into a
// relation.Cond.
func cmpToCond(qc logic.Atom, varCols map[string]int) (relation.Cond, bool) {
	op := qc.CmpOp()
	l, r := qc.Args[0], qc.Args[1]
	switch {
	case l.IsVar() && r.IsVar():
		lc, lok := varCols[l.Var]
		rc, rok := varCols[r.Var]
		if !lok || !rok {
			return relation.Cond{}, false
		}
		return relation.ColCol(lc, op, rc), true
	case l.IsVar():
		lc, ok := varCols[l.Var]
		if !ok {
			return relation.Cond{}, false
		}
		return relation.ColConst(lc, op, r.Const), true
	case r.IsVar():
		rc, ok := varCols[r.Var]
		if !ok {
			return relation.Cond{}, false
		}
		return relation.ColConst(rc, op.Flip(), l.Const), true
	default:
		// Constant-constant comparisons are statically decided; if false the
		// query is empty — callers normalize that before matching.
		if op.Eval(l.Const, r.Const) {
			return relation.Cond{}, false
		}
		return relation.Cond{}, false
	}
}

func translate(t logic.Term, m map[string]logic.Term) logic.Term {
	if t.IsConst() {
		return t
	}
	if mt, ok := m[t.Var]; ok {
		return mt
	}
	return t
}
