package ie

import (
	"context"
	"fmt"
	"runtime/metrics"
	"strconv"

	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

// maxDepth bounds SLD call depth as a runaway guard.
const maxDepth = 4096

// runner is an ask's search, run one answer at a time on the consumer's
// goroutine. The interpreted and conjunction-compiled strategies are
// depth-first SLD resolution with chronological backtracking (Section 4's
// "well-known depth-first with chronological backtracking strategy of
// Prolog"), where base-atom segments become CAQL queries whose result
// streams are consumed tuple-at-a-time. Every call to a derived predicate is
// tabled (table.go), so left-linear, non-linear and mutual recursion, and
// cyclic data, end with every answer the fixpoint derives, each answer is
// passed on once, and a repeated variant reads its table instead of running
// its clauses again.
//
// The search resumes from a stack of choices, its open alternatives: a
// segment's open stream, or a call's next answer or next clause. It binds in
// one logic.Bindings: applying a clause pushes its frame, and everything
// bound since a choice was pushed is undone when the search backtracks into
// it. What runs after a called clause's body succeeds is a cont on a stack,
// and the open pioneers are entries of an ancestor stack, each linked to its
// caller's; backtracking cuts both back to the choice's heights.
//
// A runner outlives its ask: close resets it and gives it back to its engine,
// which hands it to a later ask, unless a collection finished in between,
// with every stack's capacity, its free query blocks and its tables' storage,
// so a warm ask grows none of them again.
type runner struct {
	engine   *Engine
	ctx      context.Context // the ask's: every query runs under it
	sh       *shape
	goal     [1]bodyItem   // the goal pseudo-clause's body
	goalAtom logic.NumAtom // the ask's goal, a derived goal's call atom
	vars     []string      // the goal's variables: variable i of its frame
	session  bridge.Session

	g       cont // the goal: what is left of a clause, then conts[g.next]
	live    bool // false once g failed or was answered: next backtracks first
	choices []choice
	buf     [8]choice // choices' first backing: most searches are shallower
	// free holds the query blocks of segments whose choices have popped, for
	// instantiate to reuse; freeBuf is its first backing.
	free    []*queryBlock
	freeBuf [8]*queryBlock

	b     logic.Bindings
	conts []cont
	anc   []ancestor
	roots []rootName // scratch: free roots in order of first occurrence
	tabs  tables     // the ask's answer tables

	// sub is the ask's answer substitution, made at its first answer and
	// written over by each later one; close drops it, so that an answer its
	// caller holds once the ask has ended is never written again.
	sub logic.Subst

	rows  []relation.Tuple // the compiled strategy's answers not yet handed out
	built bool             // whether the compiled strategy derived them

	adv adviceBlock // the ask's advice, built at AskCtx, emptied by close

	gcs      gcCount
	closedAt uint64 // the collections finished when close gave it back
}

// gcCount reads how many garbage collections have finished, into a sample
// of its own, so that a read allocates nothing.
type gcCount [1]metrics.Sample

func (s *gcCount) read() uint64 {
	if s[0].Name == "" {
		s[0].Name = "/gc/cycles/total:gc-cycles"
	}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// choice is an open alternative. A segment's is its open stream for the
// query in blk: each further tuple binds the head of seg and resumes goal,
// the rest of the clause. A call's is its table tab, the newest of its
// answers it has delivered, at (-1: none), and its clauses not yet tried;
// the call is conts[conts-1]. A pioneer's clauses are its predicate's, pc,
// its ancestor entry is anc[anc-1] and its entry on the tables' SCC stack
// scc; a follower, or a call whose table is complete, has no clauses and
// only reads. reads is, for a follower, its entry in the tables' reads, and
// for a pioneer how many reads there were when it started (-1: neither).
// The bindings mark and the stack heights are the search's state when the
// choice was pushed, restored by every retry.
type choice struct {
	goal    cont
	stream  *bridge.Stream
	blk     *queryBlock
	seg     *viewTemplate
	clauses []*compiledClause

	pc                  *predCode
	tab, at, scc, reads int32

	mark       logic.Mark
	conts, anc int
}

// rootName is a free root and the variable that reached it first.
type rootName struct {
	root int
	v    logic.Term
}

// cont is the rest of a clause: its items in the frame at base, under the
// ancestors anc, at depth, continued by conts[next] when they succeed (-1:
// the goal is answered), with the clause's proof steps so far in acc. On the
// conts stack it is what runs each time a called clause succeeds, and keeps
// what the rule step cites: the call and the clause being tried, and the
// call's choice, choices[ch].
type cont struct {
	items                      []bodyItem
	base, anc, depth, next, ch int
	call                       *logic.NumAtom
	cc                         *compiledClause
	acc                        []*Proof
}

// ancestor is an open pioneer: its table, its entry on the tables' SCC
// stack, the index of the nearest pioneer it was called under (-1: none),
// and the round before which its clauses last ran in full (0: none).
type ancestor struct {
	tab, scc, round int32
	parent          int
}

// next produces the search's next answer in depth-first order: it backtracks
// into the newest choice while the goal is spent, and proves the goal's items
// until none is left. ok is false once no choice is left, or once the ask's
// context is done.
func (r *runner) next() (a answer, ok bool, err error) {
	if err := bridge.CtxError(r.ctx); err != nil {
		return answer{}, false, err
	}
	if r.engine.opts.Strategy == StrategyCompiled {
		return r.nextCompiled()
	}
	for {
		switch {
		case !r.live:
			if len(r.choices) == 0 {
				return answer{}, false, nil
			}
			r.live, err = r.retry()
		case len(r.g.items) == 0 && r.g.next < 0:
			r.live = false
			if r.goal[0].kind == itemSegment {
				// A base goal's rows may repeat, so its answers go through
				// table 0, and a repeat backtracks.
				fresh, err := r.tabs.add(0, &r.b, &r.goalAtom, r.g.base, nil)
				if err != nil {
					return answer{}, false, err
				}
				if !fresh {
					continue
				}
			}
			return r.emit(), true, nil
		default:
			r.live, err = r.step()
		}
		if err != nil {
			return answer{}, false, err
		}
	}
}

// emit is the answer the goal reached: the goal variables' constants, the
// goal's frame being the first, written into the ask's substitution.
func (r *runner) emit() answer {
	var root *Proof
	if r.engine.opts.Explain {
		root = ProofRoot(r.goalAtom.String(), r.g.acc)
	}
	sub := r.answerSub()
	for i, v := range r.vars {
		if _, c, ok := r.b.Resolve(i); ok {
			sub[v] = logic.C(c)
		}
	}
	return answer{sub: sub, proof: root}
}

// answerSub is the ask's answer substitution, emptied for the next answer:
// made at the ask's first.
func (r *runner) answerSub() logic.Subst {
	if r.sub == nil {
		r.sub = make(logic.Subst, len(r.vars))
	} else {
		clear(r.sub)
	}
	return r.sub
}

// close closes the streams still open on the choice stack, newest first,
// ends the session, and gives the runner back to its engine, emptied: its
// stacks keep their capacity and its query blocks, and nothing of the ask,
// not even its answer substitution.
func (r *runner) close() {
	for i := len(r.choices) - 1; i >= 0; i-- {
		if c := &r.choices[i]; c.stream != nil {
			c.stream.Close()
			r.free = append(r.free, c.blk)
		}
	}
	r.session.End()
	r.adv.empty()
	r.tabs.reset()
	clear(r.choices)
	clear(r.conts)
	r.choices, r.conts, r.anc = r.choices[:0], r.conts[:0], r.anc[:0]
	r.b.Undo(logic.Mark{})
	r.sub, r.rows, r.built = nil, nil, false
	r.ctx, r.sh, r.vars, r.session = nil, nil, nil, nil
	r.g, r.goal, r.goalAtom = cont{}, [1]bodyItem{}, logic.NumAtom{}
	r.closedAt = r.gcs.read()
	r.engine.runners.Put(r)
}

// push records c with the search's state, which every retry of c restores.
func (r *runner) push(c choice) {
	c.mark = r.b.Mark()
	c.conts, c.anc = len(r.conts), len(r.anc)
	r.choices = append(r.choices, c)
}

// retry backtracks into the newest choice and makes its next alternative the
// goal; a choice with none left is popped (false). A segment's choice pops
// once its stream has ended and its Err is read: the stream is closed, and
// its query block goes back on the free list.
func (r *runner) retry() (ok bool, err error) {
	c := &r.choices[len(r.choices)-1]
	r.conts, r.anc = r.conts[:c.conts], r.anc[:c.anc]
	if c.stream != nil {
		ok, err = r.nextTuple(c)
	} else {
		ok, err = r.nextAnswer(c)
	}
	if !ok {
		if c.stream != nil {
			c.stream.Close()
			r.free = append(r.free, c.blk)
		}
		r.choices = r.choices[:len(r.choices)-1]
	}
	return ok, err
}

// nextTuple resumes a segment's goal with the next tuple that binds its head.
// A stream that stopped on an error fails the search.
func (r *runner) nextTuple(c *choice) (bool, error) {
	q := &c.blk.q
	for {
		r.b.Undo(c.mark)
		tu, ok := c.stream.Next()
		if !ok {
			return false, c.stream.Err()
		}
		bound := true
		for i, n := range c.seg.nums[:len(q.Head.Args)] {
			if n >= 0 && !r.b.UnifyConst(c.goal.base+int(n), tu[i]) {
				bound = false
				break
			}
		}
		if bound {
			r.g = c.goal
			if r.engine.opts.Explain {
				// A copy: a hit's block of values goes back to its pool on Close.
				r.g.acc = appendProof(c.goal.acc, &Proof{Kind: "query", Detail: q.String(), Tuple: append(relation.Tuple(nil), tu...)})
			}
			return true, nil
		}
	}
}

// nextClause makes the goal the body of pioneer c's next clause whose head
// unifies the call, run under the pioneer's ancestor entry.
func (r *runner) nextClause(c *choice) (bool, error) {
	k := c.conts - 1
	call := &r.conts[k]
	rerun := r.tabs.fresh(r.anc[c.anc-1].round)
	for len(c.clauses) > 0 {
		r.b.Undo(c.mark)
		cc := c.clauses[0]
		c.clauses = c.clauses[1:]
		if rerun && !cc.calls {
			continue // its answers are in the table since the round that ran it
		}
		callee := r.b.Push(cc.nvars)
		if !r.b.Unify(cc.head, callee, *call.call, call.base) {
			continue
		}
		if call.depth+1 > maxDepth {
			return false, fmt.Errorf("ie: SLD depth limit %d exceeded (non-terminating recursion?)", maxDepth)
		}
		call.cc = cc
		r.g = cont{items: cc.items, base: callee, anc: c.anc - 1, depth: call.depth + 1, next: k}
		return true, nil
	}
	return false, nil
}

// nextAnswer makes the goal the caller of a call, with the call bound
// to the next answer of its table it has not delivered; once it has
// delivered them all, a pioneer runs its next clause, and a pioneer whose
// clauses are spent settles its SCC, which may run them again. A call that
// only reads records, when it stops, the last answer it read.
func (r *runner) nextAnswer(c *choice) (bool, error) {
	for {
		t := &r.tabs.tabs[c.tab]
		if c.at != t.last {
			r.b.Undo(c.mark)
			c.at = r.tabs.after(t, c.at)
			if r.deliver(c, c.at) {
				return true, nil
			}
			continue
		}
		if c.pc == nil {
			t.stop = min(t.stop, c.at)
			if c.reads >= 0 {
				r.tabs.reads[c.reads].at = c.at
			}
			return false, nil
		}
		if ok, err := r.nextClause(c); ok || err != nil {
			return ok, err
		}
		if !r.tabs.settle(c) {
			return false, nil
		}
		r.anc[c.anc-1].round = r.tabs.rounds
	}
}

// deliver binds the call of choice c to answer rec of its table and
// makes the goal the call's caller.
func (r *runner) deliver(c *choice, rec int32) bool {
	k := &r.conts[c.conts-1]
	vals := r.tabs.answer(rec)
	for j, n := range k.call.Nums {
		if n >= 0 && !r.b.UnifyConst(k.base+int(n), vals[j]) {
			return false
		}
	}
	acc := k.acc
	if r.engine.opts.Explain {
		acc = appendProof(k.acc, r.tabs.proofs[rec])
	}
	r.g = cont{items: k.items, base: k.base, anc: k.anc, depth: k.depth, next: k.next, acc: acc}
	return true
}

// call makes a call's choice on its table, as tabling has it. A call whose
// table is complete reads it. A call with an open ancestor pioneer of its
// table follows that pioneer. A call whose table has an entry on the SCC
// stack, waiting or open, follows the nearest of its ancestors that started
// no later than that entry: it reads the table, and that ancestor's SCC,
// whose re-run would run the call again, completes no sooner than the
// table's. Any other call pioneers its table, starting an entry on the SCC
// stack and an ancestor entry. A follower marks the newest entry on the SCC
// stack with the ancestor it follows. A call from a pioneer's clause of a
// table that is not complete is recorded in the tables' reads. In the round
// after the one the clause's pioneer last ran in full, the clause's only
// call starts after its table's mark, if the table was marked then: what
// came before, that round read with the same bindings.
func (r *runner) call(k *cont, it *bodyItem) choice {
	ts := &r.tabs
	start := len(ts.keys)
	ts.keys = r.appendKey(ts.keys, k.call, k.base)
	id := ts.find(start, len(k.call.Args))
	k.ch = len(r.choices)
	c := choice{tab: id, at: -1, reads: -1}
	t := &ts.tabs[id]
	if it.only && k.anc >= 0 && ts.fresh(r.anc[k.anc].round) && ts.fresh(t.marked) {
		c.at = t.mark
	}
	if t.complete {
		return c
	}
	if k.anc >= 0 {
		c.reads = int32(len(ts.reads))
		ts.reads = append(ts.reads, read{from: r.anc[k.anc].tab, to: id, at: noStop})
	}
	follow := int32(-1)
	for a := k.anc; a >= 0; a = r.anc[a].parent {
		an := r.anc[a]
		if an.tab == id {
			follow = an.scc
			break
		}
		if follow < 0 && an.scc <= t.sp {
			follow = an.scc
		}
	}
	if follow >= 0 {
		e := &ts.scc[len(ts.scc)-1]
		e.low = min(e.low, follow)
		return c
	}
	c.clauses, c.pc, c.scc, c.reads = it.callee.clauses, it.callee, int32(len(ts.scc)), int32(len(ts.reads))
	t.sp = c.scc
	ts.scc = append(ts.scc, sccEntry{tab: id, low: c.scc})
	r.anc = append(r.anc, ancestor{tab: id, scc: c.scc, round: t.marked, parent: k.anc})
	return c
}

// step proves the goal's first item, or continues its caller when the
// clause has none left; false when the goal failed. A segment or a call
// pushes a choice and takes its first alternative.
func (r *runner) step() (bool, error) {
	g := &r.g
	explain := r.engine.opts.Explain
	if len(g.items) == 0 {
		k := &r.conts[g.next]
		acc := g.acc
		var p *Proof
		if explain {
			p = &Proof{
				Kind:     "rule",
				Detail:   fmt.Sprintf("%s by rule %s of %s", r.resolveAtom(k.call, k.base), ruleIDOf(k.cc), k.cc.key.Pred),
				Children: g.acc,
			}
			acc = appendProof(k.acc, p)
		}
		// The call's answer goes on at once only when it is new and the call
		// has delivered every answer before it; its choice delivers the rest
		// in table order.
		c := &r.choices[k.ch]
		last := r.tabs.tabs[c.tab].last
		fresh, err := r.tabs.add(c.tab, &r.b, k.call, k.base, p)
		if !fresh || c.at != last {
			return false, err
		}
		c.at = r.tabs.tabs[c.tab].last
		*g = cont{items: k.items, base: k.base, anc: k.anc, depth: k.depth, next: k.next, acc: acc}
		return true, nil
	}
	it := &g.items[0]
	g.items = g.items[1:]
	switch it.kind {
	case itemCmp:
		l, lok := r.value(it.atom, 0, g.base)
		rv, rok := r.value(it.atom, 1, g.base)
		if !lok || !rok {
			return false, fmt.Errorf("ie: comparison %s not ground at evaluation time (ordering bug?)", r.resolveAtom(it.atom, g.base))
		}
		if !it.atom.CmpOp().Eval(l, rv) {
			return false, nil
		}
		if explain {
			g.acc = appendProof(g.acc, &Proof{Kind: "cmp", Detail: r.resolveAtom(it.atom, g.base).String()})
		}
		return true, nil

	case itemSegment:
		blk := r.instantiate(it.seg, g.base)
		stream, err := r.session.QueryCtx(r.ctx, &blk.q)
		if err != nil {
			r.free = append(r.free, blk)
			return false, err
		}
		r.push(choice{goal: *g, stream: stream, blk: blk, seg: it.seg})
		return r.retry()

	case itemCall:
		k := *g
		k.call = it.atom
		c := r.call(&k, it)
		r.conts = append(r.conts, k)
		r.push(c)
		return r.retry()

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
// frame at base: the view is named as the shape names it, a bound variable
// becomes its constant, and each free root is named after the first template
// variable that reaches it. The query, its body atoms and its terms are one
// queryBlock while the template fits: one from the free list, or a new one
// when the list is empty.
func (r *runner) instantiate(vt *viewTemplate, base int) *queryBlock {
	tq := &vt.query
	var blk *queryBlock
	if n := len(r.free); n > 0 {
		blk, r.free = r.free[n-1], r.free[:n-1]
	} else {
		blk = new(queryBlock)
	}
	terms := carve(blk.terms[:], len(vt.nums))
	nrels := len(tq.Rels)
	body := carve(blk.atoms[:], nrels+len(tq.Cmps))
	q := &blk.q
	q.Rels, q.Cmps = body[:nrels:nrels], body[nrels:]
	r.roots = r.roots[:0]
	var at int
	q.Head, at = r.resolveArgs(terms, at, tq.Head, vt.nums, base)
	q.Head.Pred = r.sh.name(vt)
	for i, a := range tq.Rels {
		q.Rels[i], at = r.resolveArgs(terms, at, a, vt.nums, base)
	}
	for i, a := range tq.Cmps {
		q.Cmps[i], at = r.resolveArgs(terms, at, a, vt.nums, base)
	}
	return blk
}

// queryBlock is an instantiated query and the atoms and terms its slices are
// carved from, in one allocation. The arrays fit the common segment, one
// binary atom under a head of at most two columns (every query of the ie_ask
// benchmark), and no more, so the block costs no more bytes than the three
// allocations it replaces; a larger template takes an allocation more for
// each array it overflows. A block is reused once its segment's choice has
// popped, which bridge.Session allows: a session keeps no reference into a
// query once it has answered it.
type queryBlock struct {
	q     caql.Query
	atoms [1]logic.Atom
	terms [4]logic.Term
}

// carve returns n zeroed elements, from buf when it is large enough, with
// the capacity cut to n.
func carve[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n:n]
	}
	return make([]T, n)
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
