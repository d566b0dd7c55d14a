package ie

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/logic"
)

// runner executes the interpreted and conjunction-compiled strategies:
// depth-first SLD resolution with chronological backtracking (Section 4's
// "well-known depth-first with chronological backtracking strategy of
// Prolog"), where base-atom segments become CAQL queries whose result
// streams are consumed tuple-at-a-time. Variant-ancestor pruning guards
// against rule-level loops (like Prolog, cyclic *data* under recursive rules
// is the fully-compiled strategy's territory).
type runner struct {
	engine  *Engine
	prog    *program
	session bridge.Session
	sol     *Solutions
}

// emit delivers a solution; false stops the whole search (consumer closed).
func (r *runner) emit(s logic.Subst, proofs []*Proof) bool {
	var root *Proof
	if r.engine.opts.Explain {
		root = ProofRoot(r.prog.goal.String(), proofs)
	}
	return r.sol.deliver(answer{sub: s.Restrict(r.sol.vars), proof: root})
}

func (r *runner) stopRequested() bool {
	select {
	case <-r.sol.stop:
		return true
	default:
		return false
	}
}

// runAll runs the goal items and emits every solution. Errors raised inside
// continuation callbacks tunnel out as searchError panics recovered here.
func (r *runner) runAll() error {
	_, err := r.runSafe(r.prog.goalItems, nil, logic.NewSubst(), 0, nil, nil, r.emit)
	return err
}

// run solves items left to right under s, calling k for each solution of the
// whole list. ren maps clause variables to their renamed instances (nil at
// the goal level). The bool result is false when the search was aborted by
// the consumer. anc carries canonical forms of the open ancestor goals for
// variant pruning.
func (r *runner) run(items []bodyItem, ren map[string]string, s logic.Subst, depth int, anc []string, acc []*Proof, k func(logic.Subst, []*Proof) bool) (bool, error) {
	if r.stopRequested() {
		return false, nil
	}
	if depth > r.engine.opts.MaxDepth {
		return false, fmt.Errorf("ie: SLD depth limit %d exceeded (non-terminating recursion?)", r.engine.opts.MaxDepth)
	}
	if len(items) == 0 {
		return k(s, acc), nil
	}
	head, rest := items[0], items[1:]
	explain := r.engine.opts.Explain
	cont := func(s2 logic.Subst, acc2 []*Proof) (bool, error) {
		return r.run(rest, ren, s2, depth, anc, acc2, k)
	}
	switch head.kind {
	case itemCmp:
		_, a := instAtom(nil, head.atom, ren, s)
		if !a.IsGround() {
			return false, fmt.Errorf("ie: comparison %s not ground at evaluation time (ordering bug?)", a)
		}
		if a.CmpOp().Eval(a.Args[0].Const, a.Args[1].Const) {
			acc2 := acc
			if explain {
				acc2 = appendProof(acc, &Proof{Kind: "cmp", Detail: a.String()})
			}
			return cont(s, acc2)
		}
		return true, nil

	case itemSegment:
		inst := r.instantiate(head.seg, ren, s)
		stream, err := r.session.Query(inst)
		if err != nil {
			return false, err
		}
		headArgs := inst.Head.Args
		for {
			if r.stopRequested() {
				return false, nil
			}
			tu, ok := stream.Next()
			if !ok {
				return true, nil
			}
			s2 := s
			bindOK := true
			for i, t := range headArgs {
				if t.IsVar() {
					bound := s2.Walk(t)
					if bound.IsConst() {
						if !bound.Const.Equal(tu[i]) {
							bindOK = false
							break
						}
						continue
					}
					s2 = s2.Bind(bound.Var, logic.C(tu[i]))
				}
			}
			if !bindOK {
				continue
			}
			acc2 := acc
			if explain {
				acc2 = appendProof(acc, &Proof{Kind: "query", Detail: inst.String(), Tuple: tu})
			}
			alive, err := cont(s2, acc2)
			if err != nil || !alive {
				return alive, err
			}
		}

	case itemCall:
		_, goal := instAtom(nil, head.atom, ren, s)
		key := canonicalGoal(goal)
		for _, a := range anc {
			if a == key {
				return true, nil // variant ancestor: prune this branch
			}
		}
		anc2 := append(anc, key)
		clauses := r.prog.clauses[goal.Ref()]
		for _, cc := range clauses {
			cc := cc
			renamed, mapping := renameClause(cc.clause)
			s2, ok := logic.Unify(renamed.Head, goal, s)
			if !ok {
				continue
			}
			alive, err := r.run(cc.items, mapping, s2, depth+1, anc2, nil, func(s3 logic.Subst, sub []*Proof) bool {
				acc2 := acc
				if explain {
					node := &Proof{
						Kind:     "rule",
						Detail:   fmt.Sprintf("%s by rule %s of %s", s3.ApplyAtom(goal), ruleIDOf(cc), cc.key.Pred),
						Children: sub,
					}
					acc2 = appendProof(acc, node)
				}
				ok, err := cont(s3, acc2)
				if err != nil {
					panic(searchError{err})
				}
				return ok
			})
			if err != nil || !alive {
				return alive, err
			}
		}
		return true, nil

	default:
		return false, fmt.Errorf("ie: unknown body item kind")
	}
}

// searchError tunnels an error out of a continuation callback.
type searchError struct{ err error }

// runAllSafe wraps run to convert tunneled errors (used by runAll's caller).
func (r *runner) runSafe(items []bodyItem, ren map[string]string, s logic.Subst, depth int, anc []string, acc []*Proof, k func(logic.Subst, []*Proof) bool) (alive bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if se, ok := rec.(searchError); ok {
				alive, err = false, se.err
				return
			}
			panic(rec)
		}
	}()
	return r.run(items, ren, s, depth, anc, acc, k)
}

// appendProof appends without aliasing the accumulated slice across
// backtracking branches (full slice expression forces copy-on-append).
func appendProof(acc []*Proof, p *Proof) []*Proof {
	return append(acc[:len(acc):len(acc)], p)
}

// ruleIDOf renders the clause's rule identifier ("r1", "r2", ... in program
// order of the head predicate).
func ruleIDOf(cc *compiledClause) string {
	return fmt.Sprintf("r%d", cc.key.Index+1)
}

// instantiate builds the CAQL query for a segment occurrence: the template
// renamed into the current clause instance and closed under the current
// substitution, in one pass. The body atoms share one slice and every
// argument one block of terms.
func (r *runner) instantiate(vt *viewTemplate, ren map[string]string, s logic.Subst) *caql.Query {
	tq := vt.query
	n := len(tq.Head.Args)
	for _, a := range tq.Rels {
		n += len(a.Args)
	}
	for _, a := range tq.Cmps {
		n += len(a.Args)
	}
	terms := make([]logic.Term, 0, n)
	body := make([]logic.Atom, len(tq.Rels)+len(tq.Cmps))
	q := &caql.Query{Rels: body[:len(tq.Rels):len(tq.Rels)], Cmps: body[len(tq.Rels):]}
	terms, q.Head = instAtom(terms, tq.Head, ren, s)
	for i, a := range tq.Rels {
		terms, q.Rels[i] = instAtom(terms, a, ren, s)
	}
	for i, a := range tq.Cmps {
		terms, q.Cmps[i] = instAtom(terms, a, ren, s)
	}
	return q
}

// instAtom renames a into the current clause instance and closes it under s.
// The arguments are appended to terms, which is returned, and the atom's
// arguments are that window of it.
func instAtom(terms []logic.Term, a logic.Atom, ren map[string]string, s logic.Subst) ([]logic.Term, logic.Atom) {
	start := len(terms)
	for _, t := range a.Args {
		if t.IsVar() {
			if n, ok := ren[t.Var]; ok {
				t = logic.V(n)
			}
		}
		terms = append(terms, s.Walk(t))
	}
	return terms, logic.Atom{Pred: a.Pred, Args: terms[start:len(terms):len(terms)]}
}

// renameClause renames a clause apart and returns the original→fresh
// variable mapping so segment templates can be instantiated consistently.
func renameClause(c logic.Clause) (logic.Clause, map[string]string) {
	renamed := logic.RenameApart(c)
	mapping := make(map[string]string)
	// Recover the mapping positionally.
	var walk func(orig, fresh logic.Atom)
	walk = func(orig, fresh logic.Atom) {
		for i := range orig.Args {
			if orig.Args[i].IsVar() {
				mapping[orig.Args[i].Var] = fresh.Args[i].Var
			}
		}
	}
	walk(c.Head, renamed.Head)
	for i := range c.Body {
		walk(c.Body[i], renamed.Body[i])
	}
	return renamed, mapping
}

// canonicalGoal renders a goal with variables numbered by first occurrence,
// for variant-ancestor pruning: "p(V0,sa,V0)". It is built in one pass on the
// stack and allocates only the string.
func canonicalGoal(a logic.Atom) string {
	var buf [64]byte
	var names [8]string
	vars := names[:0]
	out := append(append(buf[:0], a.Pred...), '(')
	for i, t := range a.Args {
		if i > 0 {
			out = append(out, ',')
		}
		if !t.IsVar() {
			out = t.Const.AppendKey(out)
			continue
		}
		n := slices.Index(vars, t.Var)
		if n < 0 {
			n = len(vars)
			vars = append(vars, t.Var)
		}
		out = strconv.AppendInt(append(out, 'V'), int64(n), 10)
	}
	return string(append(out, ')'))
}
