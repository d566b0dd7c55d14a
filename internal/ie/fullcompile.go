package ie

import (
	"fmt"
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
// assigns to second-order templates with a fixed-point operator).
func (r *runner) nextCompiled() (a answer, ok bool, err error) {
	if !r.built {
		r.built = true
		r.answers, err = r.compiled()
	}
	if ok = len(r.answers) > 0; ok {
		a, r.answers = r.answers[0], r.answers[1:]
	}
	return a, ok, err
}

// compiled asks the session the goal's program and derives every answer from
// its answer. A program that stops on an error fails the ask rather than
// leave a prefix behind; one the ask's context stopped fails it with the
// context's typed error.
func (r *runner) compiled() ([]answer, error) {
	e := r.engine
	graph, err := Extract(e.kb, r.goalAtom.Atom, &Shaper{Reorder: e.opts.Reorder, Stats: e.ds})
	if err != nil {
		return nil, err
	}
	stream, err := r.session.QueryTextCtx(r.ctx, program(e.kb, r.goalAtom.Atom, r.vars, graph))
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

	out := make([]answer, ext.Len())
	for i, tu := range ext.Tuples() {
		out[i].sub = make(logic.Subst, len(r.vars))
		for j, v := range r.vars {
			out[i].sub[v] = logic.C(tu[j])
		}
		if e.opts.Explain {
			out[i].proof = ProofRoot(r.goalAtom.String(),
				[]*Proof{{Kind: "rule", Detail: "derived set-at-a-time by bottom-up fixpoint evaluation"}})
		}
	}
	return out, nil
}

// program renders the compiled program of goal, whose answer is the goal's
// answers, one column per variable of vars: a fetch clause for each base
// relation the goal's problem graph reads (fetchQueryFor), then the rules
// reachable from the goal, each base atom renamed to its fetch head, then a
// goal clause. Fetch and goal heads are named apart from every predicate the
// program names.
func program(kb *logic.KB, goal logic.Atom, vars []string, graph *Graph) string {
	rules := reachable(kb, goal.Ref())
	names := map[string]bool{goal.Pred: true}
	for _, c := range rules {
		for _, a := range c.Body {
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
	fetch := make(map[logic.PredRef]string, len(graph.BaseRels))
	for _, ref := range graph.BaseRels {
		fetch[ref] = fresh("fetch_" + ref.Name)
		b.WriteString(fetchQueryFor(graph, ref, fetch[ref]).String())
		b.WriteByte('\n')
	}
	rename := func(a logic.Atom) logic.Atom {
		if head, ok := fetch[a.Ref()]; ok {
			a.Pred = head
		}
		return a
	}
	for _, c := range rules {
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

// fetchQueryFor builds the set-at-a-time fetch for a base relation: a full
// scan, restricted by constants common to all graph occurrences of the
// relation. Constant pushing is disabled entirely when the graph contains a
// recursive cut — a cut hides deeper occurrences whose bindings differ from
// the visible ones (e.g. transitive closure walks past the query's seed
// constant).
func fetchQueryFor(graph *Graph, ref logic.PredRef, head string) *caql.Query {
	var occs []logic.Atom
	recursive := false
	graph.Walk(func(n *ORNode) {
		if n.Base && n.Goal.Ref() == ref {
			occs = append(occs, n.Goal)
		}
		if n.RecursiveCut {
			recursive = true
		}
	})
	args := make([]logic.Term, ref.Arity)
	for i := 0; i < ref.Arity; i++ {
		var common *logic.Term
		consistent := !recursive && len(occs) > 0
		for oi := range occs {
			t := occs[oi].Args[i]
			if !t.IsConst() {
				consistent = false
				break
			}
			if common == nil {
				common = &occs[oi].Args[i]
			} else if !common.Equal(t) {
				consistent = false
				break
			}
		}
		if consistent && common != nil {
			args[i] = *common
		} else {
			args[i] = logic.V(fmt.Sprintf("X%d", i))
		}
	}
	// The head carries every position (constants included) so the fetched
	// extension has the relation's full arity for bottom-up evaluation.
	return caql.NewQuery(logic.A(head, args...), []logic.Atom{logic.A(ref.Name, args...)})
}

// reachable returns the clauses of the derived predicates reachable from
// roots, in the order a depth-first visit reaches them.
func reachable(kb *logic.KB, roots ...logic.PredRef) []logic.Clause {
	var out []logic.Clause
	seen := make(map[logic.PredRef]bool)
	var visit func(ref logic.PredRef)
	visit = func(ref logic.PredRef) {
		if seen[ref] || kb.IsBase(ref) {
			return
		}
		seen[ref] = true
		for _, c := range kb.Rules(ref) {
			out = append(out, c)
			for _, a := range c.Body {
				if !a.IsComparison() {
					visit(a.Ref())
				}
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return out
}
