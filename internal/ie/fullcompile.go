package ie

import (
	"strconv"
	"strings"

	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

// nextCompiled hands out the answers of the fully-compiled strategy (the
// compiled extreme of the I-C range, Section 2), all derived by its first
// call: the relevant portion of the knowledge base is compiled into one
// program (program), which the session runs set-at-a-time. Each relevant
// base relation is requested once as a whole (one large request per relation
// rather than one per binding), and the rules run bottom-up to a fixpoint in
// the CMS. Recursion is handled by the fixpoint itself (the role the paper
// assigns to second-order templates with a fixed-point operator). Each row of
// the program's answer is written into the ask's substitution as it is
// handed out.
func (r *runner) nextCompiled() (a answer, ok bool, err error) {
	if !r.built {
		r.built = true
		if r.rows, err = r.compiled(); err != nil {
			return answer{}, false, err
		}
	}
	if len(r.rows) == 0 {
		return answer{}, false, nil
	}
	tu := r.rows[0]
	r.rows = r.rows[1:]
	a.sub = r.answerSub()
	for j, v := range r.vars {
		a.sub[v] = logic.C(tu[j])
	}
	if r.engine.opts.Explain {
		a.proof = ProofRoot(r.goalAtom.String(),
			[]*Proof{{Kind: "rule", Detail: "derived set-at-a-time by bottom-up fixpoint evaluation"}})
	}
	return a, true, nil
}

// compiled asks the session the goal's program and returns the rows of its
// answer, one column per goal variable. A program that stops on an error
// fails the ask rather than leave a prefix behind; one the ask's context
// stopped fails it with the context's typed error.
func (r *runner) compiled() ([]relation.Tuple, error) {
	stream, err := r.session.QueryTextCtx(r.ctx, r.sh.program(r.engine.kb, r.goalAtom.Atom, r.vars))
	var ext *relation.Relation
	if err == nil {
		ext, err = stream.DrainErr(r.goalAtom.Pred)
		stream.Close() // a program's answer is eager: its tuples outlive Close
	}
	if err != nil {
		if cerr := bridge.CtxError(r.ctx); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return ext.Tuples(), nil
}

// program renders the compiled program of goal, of shape sh, whose answer is
// the goal's answers, one column per variable of vars: a fetch clause for
// each base relation the shape's views read (fetchClause), then the KB
// clauses of those the shape reaches, which leaves out any the shaper
// culled, each base atom renamed to its fetch head, then a goal clause. Only
// the goal clause holds the goal's constants, so asks of one shape send one
// program less their goal clauses. Fetch and goal heads are named apart from
// every predicate the program names.
func (sh *shape) program(kb *logic.KB, goal logic.Atom, vars []string) string {
	names := map[string]bool{goal.Pred: true}
	for _, cc := range sh.clauses {
		for _, a := range kb.Rules(cc.key.Pred)[cc.key.Index].Body {
			names[a.Pred] = true
		}
	}
	fresh := func(name string) string {
		for names[name] {
			name += "_"
		}
		names[name] = true
		return name
	}

	var b strings.Builder
	fetch := make(map[logic.PredRef]string, len(sh.baseRels))
	for _, ref := range sh.baseRels {
		fetch[ref] = fresh("fetch_" + ref.Name)
		b.WriteString(sh.fetchClause(ref, fetch[ref]).String())
		b.WriteByte('\n')
	}
	rename := func(a logic.Atom) logic.Atom {
		if head, ok := fetch[a.Ref()]; ok {
			a.Pred = head
		}
		return a
	}
	for _, cc := range sh.clauses {
		c := kb.Rules(cc.key.Pred)[cc.key.Index]
		body := make([]logic.Atom, len(c.Body))
		for i, a := range c.Body {
			body[i] = rename(a)
		}
		b.WriteString(caql.NewQuery(c.Head, body).String())
		b.WriteByte('\n')
	}
	head := logic.Atom{Pred: fresh("goal"), Args: make([]logic.Term, len(vars))}
	for i, v := range vars {
		head.Args[i] = logic.V(v)
	}
	b.WriteString(caql.NewQuery(head, []logic.Atom{rename(goal)}).String())
	return b.String()
}

// fetchClause builds the set-at-a-time fetch of base relation ref, headed
// head: a full scan, but for a position where every atom of ref in the
// shape's views holds one constant, which the fetch selects. The views come from clauses
// shaped bare, so such a constant is the KB's, or a base goal's own, and
// holds at every depth of a recursion. The head carries every position,
// constants included, so the fetched extension has the relation's arity.
func (sh *shape) fetchClause(ref logic.PredRef, head string) *caql.Query {
	args := make([]logic.Term, ref.Arity)
	for i := range args {
		args[i] = logic.V("X" + strconv.Itoa(i))
	}
	pinned := make([]bool, ref.Arity)
	var first []logic.Term
	for _, vt := range sh.views {
		for _, a := range vt.query.Rels {
			switch {
			case a.Ref() != ref:
			case first == nil:
				first = a.Args
				for i, t := range first {
					pinned[i] = t.IsConst()
				}
			default:
				for i, t := range a.Args {
					pinned[i] = pinned[i] && t.Equal(first[i])
				}
			}
		}
	}
	for i := range args {
		if pinned[i] {
			args[i] = first[i]
		}
	}
	return caql.NewQuery(logic.A(head, args...), []logic.Atom{logic.A(ref.Name, args...)})
}
