package ie

import (
	"slices"

	"repro/internal/advice"
	"repro/internal/caql"
	"repro/internal/logic"
)

// The path expression creator (Section 4.2.2): traverse the compiled program
// from the AI query, emitting a query pattern per view occurrence, sequences
// for rule bodies, and alternations where alternatives are conditional. "All
// alternatives under decision points must be traversed because the path
// expression creator will not have available the DBMS contents on which the
// decision will be based."

// viewBlock is one view's advice: its specification, its query named for
// the shape, and its path pattern, built at its first occurrence.
type viewBlock struct {
	spec advice.ViewSpec
	q    caql.Query
	pat  advice.Pattern
}

// advice assembles an ask's session advice: view specifications, the path
// expression, and the base relation list. Its queries' atoms, bindings, rule
// lists and base relations are the shape's, which nothing writes.
func (sh *shape) advice(kb *logic.KB, opts Options) *advice.Advice {
	blocks := make([]viewBlock, len(sh.views))
	a := &advice.Advice{Views: make([]*advice.ViewSpec, len(sh.views)), BaseRels: sh.baseRels}
	at := 0
	for i, vt := range sh.views {
		b := &blocks[i]
		b.q = vt.query
		b.q.Head.Pred = sh.names[i]
		end := at + len(b.q.Head.Args)
		b.spec = advice.ViewSpec{Query: &b.q, Bindings: sh.binds[at:end:end], Rules: vt.rules}
		a.Views[i] = &b.spec
		at = end
	}
	if opts.PathExpression {
		p := pathBuilder{sh: sh, kb: kb, blocks: blocks}
		a.Path = p.pathExpression()
	}
	return a
}

// pathBuilder builds one ask's path expression.
type pathBuilder struct {
	sh     *shape
	kb     *logic.KB
	blocks []viewBlock
	args   []advice.PatArg // what the patterns' arguments are carved from
}

// pathExpression builds the session's path expression.
func (p *pathBuilder) pathExpression() advice.Expr {
	var open [8]*predCode
	expr := p.exprForItems([]bodyItem{p.sh.goal}, open[:0])
	if expr == nil {
		return nil
	}
	// The whole session processes the AI query once.
	if seq, ok := expr.(*advice.Sequence); ok && seq.Lo == 1 && seq.Hi.N == 1 && !seq.Hi.Unbounded() {
		return seq
	}
	return sequence(expr)
}

// exprForItems renders a rule body (or the goal) as a sequence: the first
// query-producing item, then the remainder wrapped in a repetition bounded
// by the first item's producer cardinality — the paper's
// (d1(Y^), (d2, d3)<0,|Y|>) shape: the tail re-runs once per binding the
// head of the sequence produces. open lists the predicates being rendered.
func (p *pathBuilder) exprForItems(items []bodyItem, open []*predCode) advice.Expr {
	var buf [4]advice.Expr
	exprs := buf[:0]
	producer := "" // the first expression's producer variable, if any
	for _, it := range items {
		switch it.kind {
		case itemSegment:
			pat := p.patternFor(it.seg)
			if len(exprs) == 0 {
				producer = firstProducer(pat)
			}
			exprs = append(exprs, pat)
		case itemCall:
			if sub := p.exprForPred(it.callee, open); sub != nil {
				exprs = append(exprs, sub)
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
	tail, ok := exprs[1].(*advice.Sequence)
	if len(exprs) > 2 || !ok {
		tail = sequence(exprs[1:]...)
	}
	tail.Lo, tail.Hi = 1, advice.Bound{N: 1}
	if producer != "" {
		tail.Lo, tail.Hi = 0, advice.Bound{Sym: producer}
	}
	return sequence(exprs[0], tail)
}

// exprForPred renders the alternatives of a derived predicate. When any
// alternative is conditional — guarded by a leading IE-processed derived
// atom, as in the paper's Example 2 — the group is an alternation (with
// selection term 1 when the guards are pairwise mutually exclusive);
// otherwise a Prolog-style all-solutions traversal queries the alternatives
// in order, which is a sequence (Example 1).
func (p *pathBuilder) exprForPred(pc *predCode, open []*predCode) advice.Expr {
	if slices.Contains(open, pc) {
		return nil // recursive occurrence: a single instance appears
	}
	open = append(open, pc)

	var buf [4]advice.Expr
	elems := buf[:0]
	var gbuf [4]logic.Atom
	guards := gbuf[:0]
	conditional := false
	allGuarded := len(pc.clauses) > 0
	for _, cc := range pc.clauses {
		e := p.exprForItems(cc.items, open)
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
			if it.kind == itemSegment || it.kind == itemCall {
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
		alt := &advice.Alternation{Elems: slices.Clone(elems)}
		if allGuarded && guardsMutex(p.kb, guards) {
			alt.Select = 1
		}
		return alt
	}
	return sequence(elems...)
}

// seqNode is a sequence and the storage of up to two elements, in one
// allocation.
type seqNode struct {
	seq   advice.Sequence
	elems [2]advice.Expr
}

// sequence is the sequence <1,1> of elems.
func sequence(elems ...advice.Expr) *advice.Sequence {
	n := &seqNode{seq: advice.Sequence{Lo: 1, Hi: advice.Bound{N: 1}}}
	if len(elems) <= len(n.elems) {
		n.seq.Elems = n.elems[:len(elems):len(elems)]
		copy(n.seq.Elems, elems)
	} else {
		n.seq.Elems = slices.Clone(elems)
	}
	return &n.seq
}

// guardsMutex reports whether the leading guard atoms are pairwise mutually
// exclusive over the same arguments (mutex SOAs, Section 4).
func guardsMutex(kb *logic.KB, guards []logic.Atom) bool {
	if len(guards) < 2 {
		return false
	}
	for i := 0; i < len(guards); i++ {
		for j := i + 1; j < len(guards); j++ {
			a, b := guards[i], guards[j]
			if !kb.MutuallyExclusive(a.Ref(), b.Ref()) {
				return false
			}
			if len(a.Args) != len(b.Args) || !sameArgs(a, b) {
				return false
			}
		}
	}
	return true
}

// patternFor renders a view as a query pattern with annotations, the same
// node at every occurrence.
func (p *pathBuilder) patternFor(vt *viewTemplate) *advice.Pattern {
	b := &p.blocks[p.sh.num[vt.id]-1]
	if b.pat.Name != "" {
		return &b.pat
	}
	b.pat.Name = b.q.Head.Pred
	if n := len(b.q.Head.Args); n > 0 {
		if p.args == nil {
			p.args = make([]advice.PatArg, len(p.sh.binds))
		}
		b.pat.Args, p.args = p.args[:n:n], p.args[n:]
		for i, t := range b.q.Head.Args {
			b.pat.Args[i] = advice.PatArg{Name: t.String(), Binding: b.spec.Bindings[i]}
		}
	}
	return &b.pat
}

// firstProducer returns the first producer-annotated variable of a pattern,
// or "" when the view is all-consumer.
func firstProducer(pat *advice.Pattern) string {
	for _, a := range pat.Args {
		if a.Binding == advice.BindProducer {
			return a.Name
		}
	}
	return ""
}
