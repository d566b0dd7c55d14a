package ie

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

// runner executes the interpreted and conjunction-compiled strategies:
// depth-first SLD resolution with chronological backtracking (Section 4's
// "well-known depth-first with chronological backtracking strategy of
// Prolog"), where base-atom segments become CAQL queries whose result
// streams are consumed tuple-at-a-time. Variant-ancestor pruning guards
// against rule-level loops (like Prolog, cyclic *data* under recursive rules
// is the fully-compiled strategy's territory).
//
// A search binds in one logic.Bindings: applying a clause pushes its frame,
// and everything it bound is undone when the search backtracks past it. What
// runs after a called clause's body succeeds is a cont on a stack, and the
// open calls' variant keys are entries of one byte arena, each linked to its
// caller's; both stacks are cut back when a call has tried its last clause.
type runner struct {
	engine  *Engine
	prog    *program
	session bridge.Session
	sol     *Solutions

	b     logic.Bindings
	conts []cont
	anc   []ancestor
	keys  []byte
	roots []rootName // scratch: free roots in order of first occurrence
}

// rootName is a free root and the variable that reached it first.
type rootName struct {
	root int
	v    logic.Term
}

// cont is the rest of a caller's body, run each time the clause it called
// succeeds: its items in the caller's frame at base, under the caller's
// ancestors, depth and own continuation. With Options.Explain it also keeps
// what the rule step cites: the call, the clause being tried and the
// caller's proof steps so far.
type cont struct {
	items                  []bodyItem
	base, anc, depth, next int
	call                   *logic.NumAtom
	cc                     *compiledClause
	acc                    []*Proof
}

// ancestor is an open call: its variant key is keys[start:end], and parent is
// the index of its caller's entry (-1 at the goal).
type ancestor struct{ start, end, parent int }

// emit delivers a solution; false stops the whole search (consumer closed).
// The answer is the goal variables' constants, the goal's frame being the
// first.
func (r *runner) emit(proofs []*Proof) bool {
	var root *Proof
	if r.engine.opts.Explain {
		root = ProofRoot(r.prog.goal.String(), proofs)
	}
	sub := make(logic.Subst, len(r.sol.vars))
	for i, v := range r.sol.vars {
		if _, c, ok := r.b.Resolve(i); ok {
			sub[v] = logic.C(c)
		}
	}
	return r.sol.deliver(answer{sub: sub, proof: root})
}

func (r *runner) stopRequested() bool {
	select {
	case <-r.sol.stop:
		return true
	default:
		return false
	}
}

// runAll runs the goal items and emits every solution.
func (r *runner) runAll() error {
	base := r.b.Push(len(r.prog.goalVars))
	_, err := r.run(r.prog.goalItems, base, -1, 0, -1, nil)
	return err
}

// run solves items left to right in the clause frame at base, then continues
// with conts[next] (emitting a solution when next is -1). anc is the
// innermost open call's ancestor entry and acc the proof steps of the
// current clause so far. The bool result is false when the search was
// aborted by the consumer.
func (r *runner) run(items []bodyItem, base, anc, depth, next int, acc []*Proof) (bool, error) {
	if r.stopRequested() {
		return false, nil
	}
	if depth > r.engine.opts.MaxDepth {
		return false, fmt.Errorf("ie: SLD depth limit %d exceeded (non-terminating recursion?)", r.engine.opts.MaxDepth)
	}
	explain := r.engine.opts.Explain
	for len(items) == 0 {
		if next < 0 {
			return r.emit(acc), nil
		}
		k := &r.conts[next]
		if explain {
			acc = appendProof(k.acc, &Proof{
				Kind:     "rule",
				Detail:   fmt.Sprintf("%s by rule %s of %s", r.resolveAtom(k.call, k.base), ruleIDOf(k.cc), k.cc.key.Pred),
				Children: acc,
			})
		}
		items, base, anc, depth, next = k.items, k.base, k.anc, k.depth, k.next
	}
	it, rest := &items[0], items[1:]
	switch it.kind {
	case itemCmp:
		l, lok := r.value(&it.atom, 0, base)
		rv, rok := r.value(&it.atom, 1, base)
		if !lok || !rok {
			return false, fmt.Errorf("ie: comparison %s not ground at evaluation time (ordering bug?)", r.resolveAtom(&it.atom, base))
		}
		if !it.atom.CmpOp().Eval(l, rv) {
			return true, nil
		}
		if explain {
			acc = appendProof(acc, &Proof{Kind: "cmp", Detail: r.resolveAtom(&it.atom, base).String()})
		}
		return r.run(rest, base, anc, depth, next, acc)

	case itemSegment:
		q := r.instantiate(it.seg, base)
		stream, err := r.session.Query(q)
		if err != nil {
			return false, err
		}
		head := it.seg.nums[:len(q.Head.Args)]
		m := r.b.Mark()
		for {
			if r.stopRequested() {
				return false, nil
			}
			tu, ok := stream.Next()
			if !ok {
				return true, nil
			}
			bound := true
			for i, n := range head {
				if n >= 0 && !r.b.UnifyConst(base+int(n), tu[i]) {
					bound = false
					break
				}
			}
			if bound {
				acc2 := acc
				if explain {
					acc2 = appendProof(acc, &Proof{Kind: "query", Detail: q.String(), Tuple: tu})
				}
				alive, err := r.run(rest, base, anc, depth, next, acc2)
				if err != nil || !alive {
					return alive, err
				}
			}
			r.b.Undo(m)
		}

	case itemCall:
		start := len(r.keys)
		r.keys = r.appendKey(r.keys, &it.atom, base)
		for a := anc; a >= 0; a = r.anc[a].parent {
			if bytes.Equal(r.keys[r.anc[a].start:r.anc[a].end], r.keys[start:]) {
				r.keys = r.keys[:start]
				return true, nil // variant ancestor: prune this branch
			}
		}
		self, k := len(r.anc), len(r.conts)
		r.anc = append(r.anc, ancestor{start: start, end: len(r.keys), parent: anc})
		r.conts = append(r.conts, cont{items: rest, base: base, anc: anc, depth: depth, next: next, call: &it.atom, acc: acc})
		for _, cc := range r.prog.clauses[it.atom.Ref()] {
			m := r.b.Mark()
			callee := r.b.Push(cc.nvars)
			if r.b.Unify(cc.head, callee, it.atom, base) {
				r.conts[k].cc = cc
				alive, err := r.run(cc.items, callee, self, depth+1, k, nil)
				if err != nil || !alive {
					return alive, err
				}
			}
			r.b.Undo(m)
		}
		r.conts, r.anc, r.keys = r.conts[:k], r.anc[:self], r.keys[:start]
		return true, nil

	default:
		return false, fmt.Errorf("ie: unknown body item kind")
	}
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

// value is argument i of a in the frame at base: its constant, or false
// while the variable is free.
func (r *runner) value(a *logic.NumAtom, i, base int) (c relation.Value, ok bool) {
	if n := a.Nums[i]; n >= 0 {
		_, c, ok = r.b.Resolve(base + int(n))
		return c, ok
	}
	return a.Args[i].Const, true
}

// instantiate builds the CAQL query for a segment occurrence in the clause
// frame at base: a bound variable becomes its constant, and each free root is
// named after the first template variable that reaches it. The body atoms
// share one slice and every argument one block of terms.
func (r *runner) instantiate(vt *viewTemplate, base int) *caql.Query {
	tq := vt.query
	terms := make([]logic.Term, len(vt.nums))
	body := make([]logic.Atom, len(tq.Rels)+len(tq.Cmps))
	q := &caql.Query{Rels: body[:len(tq.Rels):len(tq.Rels)], Cmps: body[len(tq.Rels):]}
	r.roots = r.roots[:0]
	var at int
	q.Head, at = r.resolveArgs(terms, at, tq.Head, vt.nums, base)
	for i, a := range tq.Rels {
		q.Rels[i], at = r.resolveArgs(terms, at, a, vt.nums, base)
	}
	for i, a := range tq.Cmps {
		q.Cmps[i], at = r.resolveArgs(terms, at, a, vt.nums, base)
	}
	return q
}

// resolveAtom is a in the frame at base, named as instantiate names a query.
func (r *runner) resolveAtom(a *logic.NumAtom, base int) logic.Atom {
	r.roots = r.roots[:0]
	out, _ := r.resolveArgs(make([]logic.Term, len(a.Args)), 0, a.Atom, a.Nums, base)
	return out
}

// resolveArgs resolves a's arguments, numbered by nums[at:], in the frame at
// base into terms[at:], and returns the resolved atom and the offset past it.
// A free root is named after the first variable r.roots has seen reach it.
func (r *runner) resolveArgs(terms []logic.Term, at int, a logic.Atom, nums []int32, base int) (logic.Atom, int) {
	end := at + len(a.Args)
	out := terms[at:end:end]
	for i, t := range a.Args {
		if n := nums[at+i]; n >= 0 {
			if root, c, ok := r.b.Resolve(base + int(n)); ok {
				t = logic.C(c)
			} else {
				t = r.roots[r.rootIndex(root, t)].v
			}
		}
		out[i] = t
	}
	return logic.Atom{Pred: a.Pred, Args: out}, end
}

// rootIndex is the position of root in r.roots, which records it with v when
// it is new.
func (r *runner) rootIndex(root int, v logic.Term) int {
	for k, rn := range r.roots {
		if rn.root == root {
			return k
		}
	}
	r.roots = append(r.roots, rootName{root, v})
	return len(r.roots) - 1
}

// appendKey appends the variant key of the call a in the frame at base: its
// predicate and arguments, constants by their keys and free roots numbered
// by first occurrence, as in "p(V0,sa,V0)".
func (r *runner) appendKey(dst []byte, a *logic.NumAtom, base int) []byte {
	r.roots = r.roots[:0]
	dst = append(append(dst, a.Pred...), '(')
	for i, n := range a.Nums {
		if i > 0 {
			dst = append(dst, ',')
		}
		if n < 0 {
			dst = a.Args[i].Const.AppendKey(dst)
			continue
		}
		root, c, ok := r.b.Resolve(base + int(n))
		if ok {
			dst = c.AppendKey(dst)
			continue
		}
		dst = strconv.AppendInt(append(dst, 'V'), int64(r.rootIndex(root, logic.Term{})), 10)
	}
	return append(dst, ')')
}
