package ie

import (
	"repro/internal/advice"
	"repro/internal/logic"
)

// The path expression creator (Section 4.2.2): traverse the compiled program
// from the AI query, emitting a query pattern per view occurrence, sequences
// for rule bodies, and alternations where alternatives are conditional. "All
// alternatives under decision points must be traversed because the path
// expression creator will not have available the DBMS contents on which the
// decision will be based."

// pathExpression builds the session's path expression.
func (p *program) pathExpression() advice.Expr {
	visited := make(map[logic.PredRef]bool)
	expr := p.exprForItems(p.goalItems, visited)
	if expr == nil {
		return nil
	}
	// The whole session processes the AI query once.
	if seq, ok := expr.(*advice.Sequence); ok && seq.Lo == 1 && seq.Hi.N == 1 && !seq.Hi.Unbounded() {
		return seq
	}
	return &advice.Sequence{Elems: []advice.Expr{expr}, Lo: 1, Hi: advice.Bound{N: 1}}
}

// exprForItems renders a rule body (or the goal) as a sequence: the first
// query-producing item, then the remainder wrapped in a repetition bounded
// by the first item's producer cardinality — the paper's
// (d1(Y^), (d2, d3)<0,|Y|>) shape: the tail re-runs once per binding the
// head of the sequence produces.
func (p *program) exprForItems(items []bodyItem, visited map[logic.PredRef]bool) advice.Expr {
	var exprs []advice.Expr
	var producers []string // producer var of the preceding pattern, if any
	for _, it := range items {
		switch it.kind {
		case itemSegment:
			exprs = append(exprs, p.patternFor(it.seg))
			producers = append(producers, firstProducer(it.seg))
		case itemCall:
			sub := p.exprForPred(it.atom.Ref(), visited)
			if sub != nil {
				exprs = append(exprs, sub)
				producers = append(producers, "")
			}
		}
	}
	switch len(exprs) {
	case 0:
		return nil
	case 1:
		return exprs[0]
	}
	// Fold: head, then tail repeated per binding of head's producer.
	head := exprs[0]
	var tail advice.Expr
	if len(exprs) == 2 {
		tail = exprs[1]
	} else {
		tail = &advice.Sequence{Elems: exprs[1:], Lo: 1, Hi: advice.Bound{N: 1}}
	}
	bound := advice.Bound{N: 1}
	lo := 1
	if pv := producers[0]; pv != "" {
		bound = advice.Bound{Sym: pv}
		lo = 0
	}
	tailSeq, ok := tail.(*advice.Sequence)
	if !ok {
		tailSeq = &advice.Sequence{Elems: []advice.Expr{tail}}
	}
	tailSeq.Lo, tailSeq.Hi = lo, bound
	return &advice.Sequence{Elems: []advice.Expr{head, tailSeq}, Lo: 1, Hi: advice.Bound{N: 1}}
}

// exprForPred renders the alternatives of a derived predicate. When any
// alternative is conditional — guarded by a leading IE-processed derived
// atom, as in the paper's Example 2 — the group is an alternation (with
// selection term 1 when the guards are pairwise mutually exclusive);
// otherwise a Prolog-style all-solutions traversal queries the alternatives
// in order, which is a sequence (Example 1).
func (p *program) exprForPred(ref logic.PredRef, visited map[logic.PredRef]bool) advice.Expr {
	if visited[ref] {
		return nil // recursive occurrence: a single instance appears
	}
	visited[ref] = true
	defer delete(visited, ref)

	var elems []advice.Expr
	conditional := false
	var guards []logic.Atom
	allGuarded := len(p.clauses[ref]) > 0
	for _, cc := range p.clauses[ref] {
		e := p.exprForItems(cc.items, visited)
		if e == nil {
			continue
		}
		elems = append(elems, e)
		// A leading derived atom makes the clause's queries conditional.
		guarded := false
		for _, it := range cc.items {
			if it.kind == itemCall {
				guarded = true
				guards = append(guards, it.atom.Atom)
			}
			if it.kind == itemSegment {
				break
			}
			if it.kind == itemCall {
				break
			}
		}
		if guarded {
			conditional = true
		} else {
			allGuarded = false
		}
	}
	switch len(elems) {
	case 0:
		return nil
	case 1:
		return elems[0]
	}
	if conditional {
		alt := &advice.Alternation{Elems: elems}
		if allGuarded && p.guardsMutex(guards) {
			alt.Select = 1
		}
		return alt
	}
	return &advice.Sequence{Elems: elems, Lo: 1, Hi: advice.Bound{N: 1}}
}

// guardsMutex reports whether the leading guard atoms are pairwise mutually
// exclusive over the same arguments (mutex SOAs, Section 4).
func (p *program) guardsMutex(guards []logic.Atom) bool {
	if len(guards) < 2 {
		return false
	}
	for i := 0; i < len(guards); i++ {
		for j := i + 1; j < len(guards); j++ {
			a, b := guards[i], guards[j]
			if !p.kb.MutuallyExclusive(a.Ref(), b.Ref()) {
				return false
			}
			if len(a.Args) != len(b.Args) || !sameArgs(a, b) {
				return false
			}
		}
	}
	return true
}

// patternFor renders a view template as a query pattern with annotations.
func (p *program) patternFor(vt *viewTemplate) *advice.Pattern {
	pat := &advice.Pattern{Name: vt.name}
	for i, t := range vt.query.Head.Args {
		arg := advice.PatArg{Name: t.String()}
		if i < len(vt.bindings) {
			arg.Binding = vt.bindings[i]
		}
		pat.Args = append(pat.Args, arg)
	}
	return pat
}

// firstProducer returns the first producer-annotated variable of a view, or
// "" when the view is all-consumer.
func firstProducer(vt *viewTemplate) string {
	for i, b := range vt.bindings {
		if b == advice.BindProducer && vt.query.Head.Args[i].IsVar() {
			return vt.query.Head.Args[i].Var
		}
	}
	return ""
}
