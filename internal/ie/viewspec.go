package ie

import (
	"fmt"
	"slices"

	"repro/internal/advice"
	"repro/internal/caql"
	"repro/internal/logic"
)

// The view specifier (Section 4.2.1): clause bodies are segmented into
// maximal runs of base and evaluable atoms (bounded by MaxConjSize, 1 being
// the fully-interpreted extreme), each segment becoming a view specification
// d_i whose argument set is the minimal set A = (H ∪ B) ∩ D — the variables
// the rest of the deduction actually needs from the segment.

type itemKind uint8

const (
	itemSegment itemKind = iota
	itemCall
	itemCmp
)

// bodyItem is one execution step of a compiled clause body.
type bodyItem struct {
	kind itemKind
	seg  *viewTemplate // itemSegment
	atom logic.NumAtom // itemCall / itemCmp, numbered in the clause
}

// viewTemplate is a view specification in clause-variable space; execution
// instantiates it in the clause's frame and advice renders it with binding
// annotations.
type viewTemplate struct {
	name  string
	query *caql.Query
	// nums numbers the variables of the query's head, relational and
	// comparison arguments, in that order, in the clause.
	nums     []int32
	bindings []advice.Binding
	ruleID   string
	// annotated marks that the first-occurrence bound-set analysis has
	// filled in the bindings.
	annotated bool
}

// compiledClause is a shaped, segmented clause whose variables are numbered:
// applying it pushes a frame of nvars cells.
type compiledClause struct {
	key   ClauseKey
	head  logic.NumAtom
	nvars int
	items []bodyItem
}

// program is a compiled knowledge base slice for one AI query.
type program struct {
	kb      *logic.KB
	clauses map[logic.PredRef][]*compiledClause
	views   []*viewTemplate
	// goal execution: pseudo-clause items for the AI query, whose variable
	// i is goalVars[i].
	goalItems []bodyItem
	goalVars  []string
	goal      logic.Atom
	graph     *Graph
}

// compile builds the program for an AI query: extract and shape the problem
// graph, shape and segment every reachable clause, and name the views in
// first-reachable order.
func compile(kb *logic.KB, goal logic.Atom, opts Options, ds StatsSource) (*program, error) {
	sh := &Shaper{Reorder: opts.Reorder, Stats: ds}
	graph, err := Extract(kb, goal, sh)
	if err != nil {
		return nil, err
	}
	p := &program{
		kb:      kb,
		clauses: make(map[logic.PredRef][]*compiledClause),
		goal:    goal,
		graph:   graph,
	}

	maxConj := opts.MaxConjSize
	if maxConj <= 0 {
		maxConj = 1 << 30
	}

	// consumedCmps tracks comparisons folded into segments per clause.
	consumedCmps := make(map[ClauseKey][]logic.Atom)
	cmpConsumed := func(key ClauseKey, a logic.Atom) bool {
		for _, c := range consumedCmps[key] {
			if c.Equal(a) {
				return true
			}
		}
		return false
	}

	var compilePred func(ref logic.PredRef)
	nameCounter := 0
	newName := func() string {
		nameCounter++
		return fmt.Sprintf("d%d", nameCounter)
	}

	var segmentBody func(key ClauseKey, ruleID string, vars *logic.Numbering, head logic.Atom, body []logic.Atom) []bodyItem
	segmentBody = func(key ClauseKey, ruleID string, vars *logic.Numbering, head logic.Atom, body []logic.Atom) []bodyItem {
		var items []bodyItem
		var run []logic.Atom // current base-atom run
		flush := func(after []logic.Atom) {
			if len(run) == 0 {
				return
			}
			// Attach trailing comparisons whose variables all occur in the
			// run (the CMS evaluates them more cheaply than the IE); in
			// fully-interpreted mode (maxConj 1) comparisons stay in the IE.
			segAtoms := append([]logic.Atom(nil), run...)
			var segCmps []logic.Atom
			if maxConj > 1 {
				runVars := logic.VarsOf(run)
				for _, a := range after {
					if !a.IsComparison() {
						break
					}
					ok := true
					for _, t := range a.Args {
						if t.IsVar() && !runVars[t.Var] {
							ok = false
						}
					}
					if !ok {
						break
					}
					segCmps = append(segCmps, a)
				}
			}
			headVars := minimalArgSet(head, body, segAtoms)
			q := caql.NewQuery(logic.A(newName(), headVars...), append(segAtoms, segCmps...))
			vt := &viewTemplate{
				name:     q.Name(),
				query:    q,
				bindings: make([]advice.Binding, len(headVars)),
				ruleID:   ruleID,
			}
			vt.nums = vars.AppendNums(vt.nums, q.Head)
			for _, a := range q.Rels {
				vt.nums = vars.AppendNums(vt.nums, a)
			}
			for _, a := range q.Cmps {
				vt.nums = vars.AppendNums(vt.nums, a)
			}
			p.views = append(p.views, vt)
			items = append(items, bodyItem{kind: itemSegment, seg: vt})
			// Comparisons folded into the segment are consumed.
			run = nil
			consumedCmps[key] = append(consumedCmps[key], segCmps...)
		}
		for i := 0; i < len(body); i++ {
			a := body[i]
			switch {
			case a.IsComparison():
				// Handled either by segment attachment (above) or as an IE
				// item; defer the decision to flush by checking consumption.
				flush(body[i:])
				if !cmpConsumed(key, a) {
					items = append(items, bodyItem{kind: itemCmp, atom: vars.Number(a)})
				}
			case kb.IsBase(a.Ref()):
				run = append(run, a)
				if len(run) >= maxConj {
					flush(body[i+1:])
				}
			default:
				flush(body[i:])
				items = append(items, bodyItem{kind: itemCall, atom: vars.Number(a)})
				compilePred(a.Ref())
			}
		}
		flush(nil)
		return items
	}

	compiledSet := make(map[logic.PredRef]bool)
	compilePred = func(ref logic.PredRef) {
		if compiledSet[ref] || kb.IsBase(ref) {
			return
		}
		compiledSet[ref] = true
		for idx, clause := range kb.Rules(ref) {
			shaped, ok := shapeClause(kb, sh, clause)
			if !ok {
				continue // statically culled
			}
			var vars logic.Numbering
			cc := &compiledClause{
				key:  ClauseKey{Pred: ref, Index: idx},
				head: vars.Number(shaped.Head),
			}
			consumedCmps[cc.key] = nil
			cc.items = segmentBody(cc.key, fmt.Sprintf("r%d", idx+1), &vars, shaped.Head, shaped.Body)
			cc.nvars = len(vars)
			p.clauses[ref] = append(p.clauses[ref], cc)
		}
	}

	// Compile the goal as a pseudo-clause __goal__(vars) :- goal.
	var goalVars []string
	seen := make(map[string]bool)
	for _, t := range goal.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			goalVars = append(goalVars, t.Var)
		}
	}
	p.goalVars = goalVars
	headTerms := make([]logic.Term, len(goalVars))
	for i, v := range goalVars {
		headTerms[i] = logic.V(v)
	}
	goalKey := ClauseKey{Pred: logic.PredRef{Name: "__goal__", Arity: len(goalVars)}}
	consumedCmps[goalKey] = nil
	vars := logic.Numbering(slices.Clip(goalVars))
	p.goalItems = segmentBody(goalKey, "q", &vars, logic.A("__goal__", headTerms...), []logic.Atom{goal})

	p.annotate(opts)
	return p, nil
}

// shapeClause applies the shaper to a bare clause.
func shapeClause(kb *logic.KB, sh *Shaper, c logic.Clause) (logic.Clause, bool) {
	and := &ANDNode{Body: append([]logic.Atom(nil), c.Body...)}
	for i := range and.Body {
		and.Order = append(and.Order, i)
	}
	if !sh.shapeAND(kb, and) {
		return logic.Clause{}, false
	}
	return logic.Clause{Head: c.Head, Body: and.Body}, true
}

// minimalArgSet computes A = (H ∪ B) ∩ D: head variables union remaining
// body variables, intersected with the segment's variables (Section 4.2.1).
func minimalArgSet(head logic.Atom, body []logic.Atom, segment []logic.Atom) []logic.Term {
	segVars := logic.VarsOf(segment)
	hb := head.VarSet()
	// B: body variables after deleting the segment atoms (each atom once).
	used := make(map[int]bool)
	for _, a := range body {
		skip := false
		for j, s := range segment {
			if !used[j] && a.Equal(s) {
				used[j] = true
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		for _, t := range a.Args {
			if t.IsVar() {
				hb[t.Var] = true
			}
		}
	}
	// Argument order: first occurrence within the segment, for readability.
	var ordered []string
	seen := make(map[string]bool)
	for _, a := range segment {
		for _, t := range a.Args {
			if t.IsVar() && segVars[t.Var] && hb[t.Var] && !seen[t.Var] {
				seen[t.Var] = true
				ordered = append(ordered, t.Var)
			}
		}
	}
	out := make([]logic.Term, len(ordered))
	for i, v := range ordered {
		out[i] = logic.V(v)
	}
	if len(out) == 0 {
		// Fully ground segment: the paper's smallest view arity is 0; keep a
		// 0-ary head (existence test).
		return nil
	}
	return out
}

// annotate runs the bound-set analysis from the AI query, filling producer
// ("^") and consumer ("?") annotations on each view's first occurrence.
func (p *program) annotate(opts Options) {
	type visitKey struct {
		ref     logic.PredRef
		pattern string
	}
	visited := make(map[visitKey]bool)

	var visitItems func(items []bodyItem, bound map[string]bool)
	var visitPred func(ref logic.PredRef, boundPos []bool)

	visitItems = func(items []bodyItem, bound map[string]bool) {
		for _, it := range items {
			switch it.kind {
			case itemSegment:
				vt := it.seg
				if !vt.annotated {
					vt.annotated = true
					for i, t := range vt.query.Head.Args {
						if t.IsVar() && bound[t.Var] {
							vt.bindings[i] = advice.BindConsumer
						} else {
							vt.bindings[i] = advice.BindProducer
						}
					}
				}
				for _, t := range vt.query.Head.Args {
					if t.IsVar() {
						bound[t.Var] = true
					}
				}
			case itemCall:
				pos := make([]bool, len(it.atom.Args))
				for i, t := range it.atom.Args {
					pos[i] = t.IsConst() || (t.IsVar() && bound[t.Var])
				}
				visitPred(it.atom.Ref(), pos)
				for _, t := range it.atom.Args {
					if t.IsVar() {
						bound[t.Var] = true
					}
				}
			case itemCmp:
				// comparisons bind nothing
			}
		}
	}

	visitPred = func(ref logic.PredRef, boundPos []bool) {
		key := visitKey{ref: ref, pattern: fmt.Sprint(boundPos)}
		if visited[key] {
			return
		}
		visited[key] = true
		for _, cc := range p.clauses[ref] {
			bound := make(map[string]bool)
			for i, t := range cc.head.Args {
				if i < len(boundPos) && boundPos[i] && t.IsVar() {
					bound[t.Var] = true
				}
			}
			visitItems(cc.items, bound)
		}
	}

	// Goal: constants in the AI query are already constants in the pseudo-
	// clause; no variables start bound.
	visitItems(p.goalItems, make(map[string]bool))

	// Any view never reached by the analysis (dead code) defaults to
	// producers.
	for _, vt := range p.views {
		if !vt.annotated {
			for i := range vt.bindings {
				vt.bindings[i] = advice.BindProducer
			}
		}
	}
}

// adviceBundle assembles the session advice: view specifications, the path
// expression, and the base relation list.
func (p *program) adviceBundle(opts Options) *advice.Advice {
	a := &advice.Advice{BaseRels: append([]logic.PredRef(nil), p.graph.BaseRels...)}
	for _, vt := range p.views {
		a.Views = append(a.Views, &advice.ViewSpec{
			Query:    vt.query,
			Bindings: append([]advice.Binding(nil), vt.bindings...),
			Rules:    []string{vt.ruleID},
		})
	}
	if opts.PathExpression {
		a.Path = p.pathExpression()
	}
	return a
}
