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
// them on caql.Fixpoint. It is the semantic reference the strategies are
// differentially tested against, and no strategy's evaluator: the compiled
// one asks the session its program (nextCompiled). FuzzFixpoint holds it to
// the naive evaluation in naive_test.go. caql.Fixpoint checks ctx every round.
func BottomUp(ctx context.Context, kb *logic.KB, base caql.RelationSource, roots []logic.PredRef) (map[logic.PredRef]*relation.Relation, error) {
	var rules []*caql.Query
	for _, c := range reachable(kb, roots...) {
		rules = append(rules, caql.NewQuery(c.Head, c.Body))
	}
	derived, _, err := caql.Fixpoint(ctx, rules, base)
	return derived, err
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
