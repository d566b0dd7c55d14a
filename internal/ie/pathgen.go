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

// adviceBlock is the storage an ask's advice is built in: the bundle, its
// view list, each view's block, the patterns' arguments, and the path
// expression's sequences and alternations, with exprs the elements of
// alternations and of sequences longer than two. A runner keeps one and
// rebuilds each ask's advice in it, grown to the shape's size, so that once
// warm an ask's advice allocates nothing. Past its lengths it holds only
// zero values, so it keeps nothing of an advice it has been emptied of.
type adviceBlock struct {
	adv    advice.Advice
	views  []*advice.ViewSpec
	blocks []viewBlock
	args   []advice.PatArg
	seqs   []seqNode
	alts   []advice.Alternation
	exprs  []advice.Expr
}

// pathSize counts the sequences, alternations and carved elements of a
// shape's path expression, so that a block can be grown for it before the
// build.
type pathSize struct{ seqs, alts, exprs int }

// empty drops b's advice, keeping the capacity of its storage.
func (b *adviceBlock) empty() {
	b.adv = advice.Advice{}
	clear(b.views)
	clear(b.blocks)
	clear(b.args)
	clear(b.seqs)
	clear(b.alts)
	clear(b.exprs)
	b.views, b.blocks, b.args = b.views[:0], b.blocks[:0], b.args[:0]
	b.seqs, b.alts, b.exprs = b.seqs[:0], b.alts[:0], b.exprs[:0]
}

// carve copies elems into b's exprs and returns the copy.
func (b *adviceBlock) carve(elems []advice.Expr) []advice.Expr {
	at := len(b.exprs)
	b.exprs = append(b.exprs, elems...)
	return b.exprs[at:len(b.exprs):len(b.exprs)]
}

// advice assembles an ask's session advice in blk, which it empties first:
// view specifications, the path expression, and the base relation list. Its
// queries' atoms, bindings, rule lists and base relations are the shape's,
// which nothing writes.
func (sh *shape) advice(blk *adviceBlock, kb *logic.KB, opts Options) *advice.Advice {
	blk.empty()
	n := len(sh.views)
	blk.views = slices.Grow(blk.views, n)[:n]
	blk.blocks = slices.Grow(blk.blocks, n)[:n]
	blk.args = slices.Grow(blk.args, len(sh.binds))
	blk.adv = advice.Advice{Views: blk.views, BaseRels: sh.baseRels}
	at := 0
	for i, vt := range sh.views {
		b := &blk.blocks[i]
		b.q = vt.query
		b.q.Head.Pred = sh.names[i]
		end := at + len(b.q.Head.Args)
		b.spec = advice.ViewSpec{Query: &b.q, Bindings: sh.binds[at:end:end], Rules: vt.rules}
		blk.views[i] = &b.spec
		at = end
	}
	if opts.PathExpression {
		blk.seqs = slices.Grow(blk.seqs, sh.path.seqs)
		blk.alts = slices.Grow(blk.alts, sh.path.alts)
		blk.exprs = slices.Grow(blk.exprs, sh.path.exprs)
		p := pathBuilder{sh: sh, kb: kb, blk: blk}
		blk.adv.Path = p.pathExpression()
	}
	return &blk.adv
}

// pathBuilder builds one ask's path expression.
type pathBuilder struct {
	sh  *shape
	kb  *logic.KB
	blk *adviceBlock
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
	return p.sequence(expr)
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
		tail = p.sequence(exprs[1:]...)
	}
	tail.Lo, tail.Hi = 1, advice.Bound{N: 1}
	if producer != "" {
		tail.Lo, tail.Hi = 0, advice.Bound{Sym: producer}
	}
	return p.sequence(exprs[0], tail)
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
		b := p.blk
		b.alts = append(b.alts, advice.Alternation{Elems: b.carve(elems)})
		alt := &b.alts[len(b.alts)-1]
		if allGuarded && guardsMutex(p.kb, guards) {
			alt.Select = 1
		}
		return alt
	}
	return p.sequence(elems...)
}

// seqNode is a sequence and the storage of up to two elements.
type seqNode struct {
	seq   advice.Sequence
	elems [2]advice.Expr
}

// sequence is the sequence <1,1> of elems, in the next of the block's
// sequence nodes.
func (p *pathBuilder) sequence(elems ...advice.Expr) *advice.Sequence {
	b := p.blk
	b.seqs = append(b.seqs, seqNode{seq: advice.Sequence{Lo: 1, Hi: advice.Bound{N: 1}}})
	n := &b.seqs[len(b.seqs)-1]
	if len(elems) <= len(n.elems) {
		n.seq.Elems = n.elems[:len(elems):len(elems)]
		copy(n.seq.Elems, elems)
	} else {
		n.seq.Elems = b.carve(elems)
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
	b := &p.blk.blocks[p.sh.num[vt.id]-1]
	if b.pat.Name != "" {
		return &b.pat
	}
	b.pat.Name = b.q.Head.Pred
	if len(b.q.Head.Args) > 0 {
		at := len(p.blk.args)
		for i, t := range b.q.Head.Args {
			p.blk.args = append(p.blk.args, advice.PatArg{Name: t.String(), Binding: b.spec.Bindings[i]})
		}
		b.pat.Args = p.blk.args[at:len(p.blk.args):len(p.blk.args)]
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
