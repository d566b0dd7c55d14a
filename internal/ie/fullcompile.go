package ie

import (
	"fmt"

	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/logic"
)

// nextCompiled hands out the answers of the fully-compiled strategy (the
// compiled extreme of the I-C range, Section 2), all derived by its first
// call: the relevant portion of the knowledge base is compiled into
// set-at-a-time data access — each relevant base relation is requested once
// as a whole (one large request per relation rather than one per binding) —
// and the rule set is evaluated bottom-up to a fixpoint. Recursion is handled
// by the fixpoint itself (the role the paper assigns to second-order
// templates with a fixed-point operator).
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

// compiled fetches the relevant base relations and derives every answer.
func (r *runner) compiled() ([]answer, error) {
	// Fetch every relevant base relation, set-at-a-time. Constants that
	// appear in *every* occurrence of a relation at the same position are
	// pushed into the fetch (a cheap magic-set-like restriction); otherwise
	// the full extension is requested. A stream that stops on an error fails
	// the ask rather than leave a prefix behind.
	e := r.engine
	graph, err := Extract(e.kb, r.goalAtom.Atom, &Shaper{Reorder: e.opts.Reorder, Stats: e.ds})
	if err != nil {
		return nil, err
	}
	fetched := caql.MapSource{}
	for _, ref := range graph.BaseRels {
		q, err := fetchQueryFor(graph, ref)
		if err != nil {
			return nil, err
		}
		stream, err := r.session.QueryCtx(r.ctx, q)
		if err != nil {
			return nil, err
		}
		// A drained stream stays open: a pooled answer's tuples end at Close.
		if fetched[ref.Name], err = stream.DrainErr(ref.Name); err != nil {
			stream.Close()
			return nil, err
		}
	}

	// A base goal is one of the fetched relations; a derived one is derived.
	goalRef := r.goalAtom.Ref()
	ext := fetched[goalRef.Name]
	if !e.kb.IsBase(goalRef) {
		derived, err := BottomUp(r.ctx, e.kb, fetched, []logic.PredRef{goalRef})
		if cerr := bridge.CtxError(r.ctx); err != nil && cerr != nil {
			return nil, cerr // Fixpoint returns the context's own error
		}
		if err != nil {
			return nil, err
		}
		if ext = derived[goalRef]; ext == nil {
			return nil, fmt.Errorf("ie: goal predicate %s not derivable", goalRef)
		}
	}

	subs := Answers(r.goalAtom.Atom, ext)
	out := make([]answer, len(subs))
	for i, s := range subs {
		out[i].sub = s.Restrict(r.vars)
		if e.opts.Explain {
			out[i].proof = ProofRoot(r.goalAtom.String(),
				[]*Proof{{Kind: "rule", Detail: "derived set-at-a-time by bottom-up fixpoint evaluation"}})
		}
	}
	return out, nil
}

// fetchQueryFor builds the set-at-a-time fetch for a base relation: a full
// scan, restricted by constants common to all graph occurrences of the
// relation. Constant pushing is disabled entirely when the graph contains a
// recursive cut — a cut hides deeper occurrences whose bindings differ from
// the visible ones (e.g. transitive closure walks past the query's seed
// constant).
func fetchQueryFor(graph *Graph, ref logic.PredRef) (*caql.Query, error) {
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
	q := caql.NewQuery(logic.A("fetch_"+ref.Name, args...), []logic.Atom{logic.A(ref.Name, args...)})
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}
