package ie

import (
	"context"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

// BottomUp evaluates the knowledge base over base extensions to a fixpoint
// (set semantics), returning the derived extension of every derived
// predicate reachable from roots. It collects the reachable clauses and runs
// them on caql.Fixpoint. It is the substrate of the fully-compiled strategy
// (set-at-a-time, all solutions) and the semantic reference the other
// strategies are differentially tested against; FuzzFixpoint holds it to the
// naive evaluation in naive_test.go. caql.Fixpoint checks ctx every round.
func BottomUp(ctx context.Context, kb *logic.KB, base caql.RelationSource, roots []logic.PredRef) (map[logic.PredRef]*relation.Relation, error) {
	var rules []*caql.Query
	reach := make(map[logic.PredRef]bool)
	var visit func(ref logic.PredRef)
	visit = func(ref logic.PredRef) {
		if reach[ref] || kb.IsBase(ref) {
			return
		}
		reach[ref] = true
		for _, c := range kb.Rules(ref) {
			rules = append(rules, caql.NewQuery(c.Head, c.Body))
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
	derived, _, err := caql.Fixpoint(ctx, rules, base)
	return derived, err
}

// Answers filters a derived extension by unification with the (possibly
// partially bound) goal, returning the answer substitutions projected onto
// the goal's variables.
func Answers(goal logic.Atom, ext *relation.Relation) []logic.Subst {
	var out []logic.Subst
	for _, tu := range ext.Tuples() {
		s := logic.NewSubst()
		ok := true
		for i, t := range goal.Args {
			switch {
			case t.IsConst():
				if !t.Const.Equal(tu[i]) {
					ok = false
				}
			default:
				bound := s.Walk(t)
				if bound.IsConst() {
					if !bound.Const.Equal(tu[i]) {
						ok = false
					}
				} else {
					s.BindInPlace(bound.Var, logic.C(tu[i]))
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}
