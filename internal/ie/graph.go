// Package ie implements BrAID's inference engine (Section 4 of the paper):
// the query translator, problem graph extractor, problem graph shaper, view
// specifier, path expression creator, and inference strategy controller
// (Figure 4). The engine is logic-based and function-free (Datalog with
// typed constants), and — like the FDE the paper builds on — realizes
// several inference strategies along the interpreted-compiled range from one
// set of component functions.
package ie

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/logic"
)

// ORNode is a subgoal (relation occurrence): its children are the rules
// (AND nodes) that define the relation. Leaves are database relations,
// built-in relations, or cut-off recursive occurrences.
type ORNode struct {
	Goal logic.Atom
	// Base marks database-relation leaves; Builtin marks comparison leaves;
	// RecursiveCut marks a recursive occurrence not expanded further ("only
	// a single instance of the recursive definition will appear in the
	// subgraph for each recursive relation occurrence").
	Base         bool
	Builtin      bool
	RecursiveCut bool
	Rules        []*ANDNode
}

// ANDNode is one rule application: the rule's head unifies with the parent
// goal, and the (shaped) body antecedents are its successor OR nodes.
type ANDNode struct {
	// RuleID identifies the source rule ("r1", "r2", ... in program order of
	// the head predicate) for human consumption in advice.
	RuleID string
	// ClauseKey identifies the KB clause (predicate + index) so execution
	// strategies can map graph decisions back to clauses.
	ClauseKey ClauseKey
	// Body is the rule body after constant propagation from the goal, in
	// shaped (possibly reordered) order.
	Body []logic.Atom
	// Order[i] gives the original body position of shaped atom i.
	Order []int
	// Subgoals mirror Body positionally; comparison atoms have Builtin OR
	// nodes, base atoms Base OR nodes, and derived atoms carry expansions.
	Subgoals []*ORNode
}

// ClauseKey identifies a clause in the KB.
type ClauseKey struct {
	Pred  logic.PredRef
	Index int
}

// String renders "pred/arity#i".
func (k ClauseKey) String() string { return fmt.Sprintf("%s#%d", k.Pred, k.Index) }

// Graph is the problem graph for one AI query.
type Graph struct {
	Root  *ORNode
	Query logic.Atom
	// BaseRels lists the base relations referenced anywhere in the graph
	// (the "simplest kind of advice", Section 4.2).
	BaseRels []logic.PredRef
}

// Extract builds the problem graph for the AI query by partial evaluation:
// user-defined relations are expanded through their rules (recursive
// occurrences once), while database and built-in relations remain leaves
// (Section 4.1, "problem graph extractor").
func Extract(kb *logic.KB, query logic.Atom, sh *Shaper) (*Graph, error) {
	if query.IsComparison() {
		return nil, fmt.Errorf("ie: AI query cannot be a bare comparison")
	}
	g := &Graph{Query: query}
	seenBase := make(map[logic.PredRef]bool)
	var b logic.Bindings
	var build func(goal logic.Atom, path map[logic.PredRef]bool, depth int) *ORNode
	build = func(goal logic.Atom, path map[logic.PredRef]bool, depth int) *ORNode {
		node := &ORNode{Goal: goal}
		if goal.IsComparison() {
			node.Builtin = true
			return node
		}
		ref := goal.Ref()
		if kb.IsBase(ref) {
			node.Base = true
			if !seenBase[ref] {
				seenBase[ref] = true
				g.BaseRels = append(g.BaseRels, ref)
			}
			return node
		}
		if path[ref] {
			node.RecursiveCut = true
			return node
		}
		path[ref] = true
		defer delete(path, ref)
		var goalVars logic.Numbering
		ngoal := goalVars.Number(goal)
		for idx, clause := range kb.Rules(ref) {
			body, ok := applyRule(&b, clause, ngoal, goalVars, depth)
			if !ok {
				continue
			}
			and := &ANDNode{
				RuleID:    fmt.Sprintf("r%d", idx+1),
				ClauseKey: ClauseKey{Pred: ref, Index: idx},
				Body:      body,
			}
			for i := range body {
				and.Order = append(and.Order, i)
			}
			if sh != nil {
				if !sh.shapeAND(kb, and) {
					continue // culled (contradiction)
				}
			}
			for _, a := range and.Body {
				and.Subgoals = append(and.Subgoals, build(a, path, depth+1))
			}
			node.Rules = append(node.Rules, and)
		}
		return node
	}
	g.Root = build(query, map[logic.PredRef]bool{}, 1)
	return g, nil
}

// applyRule unifies c's head with goal, whose variables goalVars names, and
// returns c's body under the unifier: constants propagate into it. A free
// variable is named after its root, the goal's variable or c's own; one of
// c's that shares a name with a goal variable is renamed apart with the
// suffix "#depth".
func applyRule(b *logic.Bindings, c logic.Clause, goal logic.NumAtom, goalVars logic.Numbering, depth int) ([]logic.Atom, bool) {
	m := b.Mark()
	defer b.Undo(m)
	var vars logic.Numbering
	head := vars.Number(c.Head)
	var nums []int32
	for _, a := range c.Body {
		nums = vars.AppendNums(nums, a)
	}
	gbase := b.Push(len(goalVars))
	cbase := b.Push(len(vars))
	if !b.Unify(head, cbase, goal, gbase) {
		return nil, false
	}
	body := make([]logic.Atom, len(c.Body))
	for i, a := range c.Body {
		args := make([]logic.Term, len(a.Args))
		for j, t := range a.Args {
			if n := nums[j]; n >= 0 {
				switch root, v, ok := b.Resolve(cbase + int(n)); {
				case ok:
					t = logic.C(v)
				case root < cbase:
					t = logic.V(goalVars[root-gbase])
				case slices.Contains(goalVars, vars[root-cbase]):
					t = logic.V(vars[root-cbase] + "#" + strconv.Itoa(depth))
				default:
					t = logic.V(vars[root-cbase])
				}
			}
			args[j] = t
		}
		nums = nums[len(a.Args):]
		body[i] = logic.Atom{Pred: a.Pred, Args: args}
	}
	return body, true
}

// Walk visits every OR node of the graph depth-first.
func (g *Graph) Walk(visit func(*ORNode)) {
	var rec func(*ORNode)
	seen := make(map[*ORNode]bool)
	rec = func(n *ORNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		visit(n)
		for _, and := range n.Rules {
			for _, sub := range and.Subgoals {
				rec(sub)
			}
		}
	}
	rec(g.Root)
}
