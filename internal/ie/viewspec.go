package ie

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/advice"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/remotedb"
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
	kind   itemKind
	seg    *viewTemplate  // itemSegment
	atom   *logic.NumAtom // itemCall / itemCmp (and a base goal), numbered in the clause
	callee *predCode      // itemCall
	only   bool           // itemCall: the clause's only call
}

// viewTemplate is a view specification in clause-variable space; execution
// instantiates it in the clause's frame and advice renders it with binding
// annotations. It has no name: a view is named by its place in what an ask
// reaches (shape.names), and its query's head predicate is empty.
type viewTemplate struct {
	id    int // its number among the compiled KB's views
	query caql.Query
	// nums numbers the variables of the query's head, relational and
	// comparison arguments, in that order, in the clause.
	nums  []int32
	rules []string // the rule it comes from, as advice cites it
}

// ClauseKey identifies a clause in the KB.
type ClauseKey struct {
	Pred  logic.PredRef
	Index int
}

// compiledClause is a shaped, segmented clause whose variables are numbered:
// applying it pushes a frame of nvars cells.
type compiledClause struct {
	key   ClauseKey
	head  logic.NumAtom
	nvars int
	items []bodyItem
	calls bool // some item is a call
}

// predCode is a derived predicate's compiled clauses, in program order.
type predCode struct {
	clauses []*compiledClause
}

// compiledKB is an engine's compile state for one generation of its KB and
// one reading of the catalog statistics its shaper consulted: every derived
// predicate an ask has reached, its clauses shaped bare (without the goal's
// constants) and segmented once, and a shape record for each goal shape
// asked. The engine's lock guards its maps and counters; what it hands out
// (a predCode once filled, a shape, the views) is never written again, so
// searches read it without the lock.
type compiledKB struct {
	gen     uint64
	kb      *logic.KB
	ds      StatsSource
	sh      Shaper
	maxConj int
	preds   map[logic.PredRef]*predCode
	nviews  int
	stats   []statsRead
	shapes  map[string]*shape
	names   []string // "d1", "d2", ...: the view names every shape shares
}

// statsRead is one relation's statistics as the shaper read them.
type statsRead struct {
	name string
	st   remotedb.TableStats
	err  error
}

func newCompiledKB(kb *logic.KB, ds StatsSource, opts Options) *compiledKB {
	ck := &compiledKB{
		gen:     kb.Generation(),
		kb:      kb,
		ds:      ds,
		maxConj: opts.MaxConjSize,
		preds:   make(map[logic.PredRef]*predCode),
		shapes:  make(map[string]*shape),
	}
	if ck.maxConj <= 0 {
		ck.maxConj = 1 << 30
	}
	ck.sh.Reorder = opts.Reorder
	if ds != nil {
		ck.sh.Stats = ck
	}
	return ck
}

// RelationStats gives the shaper the statistics this compile state first
// read for name, so everything compiled under it agrees on one reading.
func (ck *compiledKB) RelationStats(name string) (remotedb.TableStats, error) {
	for _, s := range ck.stats {
		if s.name == name {
			return s.st, s.err
		}
	}
	st, err := ck.ds.RelationStats(name)
	ck.stats = append(ck.stats, statsRead{name: name, st: st, err: err})
	return st, err
}

// statsCurrent reports whether every statistic in reads still reads the
// same from ds.
func statsCurrent(ds StatsSource, reads []statsRead) bool {
	for _, s := range reads {
		st, err := ds.RelationStats(s.name)
		if (err == nil) != (s.err == nil) || st.Rows != s.st.Rows || !slices.Equal(st.Distinct, s.st.Distinct) {
			return false
		}
	}
	return true
}

// pred compiles ref's clauses the first time an ask reaches it: each clause
// is shaped bare, and its body segmented.
func (ck *compiledKB) pred(ref logic.PredRef) *predCode {
	if pc := ck.preds[ref]; pc != nil {
		return pc
	}
	rules := ck.kb.Rules(ref)
	pc := &predCode{clauses: make([]*compiledClause, 0, len(rules))}
	ck.preds[ref] = pc // before its clauses, which may call it
	for idx, clause := range rules {
		shaped, ok := shapeClause(ck.kb, &ck.sh, clause)
		if !ok {
			continue // statically culled
		}
		var vars logic.Numbering
		cc := &compiledClause{
			key:  ClauseKey{Pred: ref, Index: idx},
			head: vars.Number(shaped.Head),
		}
		cc.items = ck.segmentBody([]string{fmt.Sprintf("r%d", idx+1)}, &vars, shaped.Head, shaped.Body)
		cc.nvars = len(vars)
		cc.calls = slices.ContainsFunc(cc.items, isCall)
		pc.clauses = append(pc.clauses, cc)
	}
	return pc
}

// segmentBody compiles a clause body into items: maximal runs of base atoms
// (at most maxConj of them) become view templates, derived atoms calls and
// comparisons IE steps, unless a segment takes them.
func (ck *compiledKB) segmentBody(rules []string, vars *logic.Numbering, head logic.Atom, body []logic.Atom) []bodyItem {
	items := make([]bodyItem, 0, len(body))
	var run []logic.Atom      // current base-atom run
	var consumed []logic.Atom // comparisons folded into segments
	flush := func(after []logic.Atom) {
		if len(run) == 0 {
			return
		}
		// Attach trailing comparisons whose variables all occur in the
		// run (the CMS evaluates them more cheaply than the IE); in
		// fully-interpreted mode (maxConj 1) comparisons stay in the IE.
		segAtoms := append([]logic.Atom(nil), run...)
		var segCmps []logic.Atom
		if ck.maxConj > 1 {
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
		vt := &viewTemplate{id: ck.nviews, query: *caql.NewQuery(logic.Atom{Args: headVars}, append(segAtoms, segCmps...)), rules: rules}
		ck.nviews++
		q := &vt.query
		n := len(q.Head.Args)
		for _, a := range q.Body() {
			n += len(a.Args)
		}
		vt.nums = vars.AppendNums(make([]int32, 0, n), q.Head)
		for _, a := range q.Rels {
			vt.nums = vars.AppendNums(vt.nums, a)
		}
		for _, a := range q.Cmps {
			vt.nums = vars.AppendNums(vt.nums, a)
		}
		items = append(items, bodyItem{kind: itemSegment, seg: vt})
		run = nil
		consumed = append(consumed, segCmps...)
	}
	for i := 0; i < len(body); i++ {
		a := body[i]
		switch {
		case a.IsComparison():
			// Handled either by segment attachment (above) or as an IE
			// item; defer the decision to flush by checking consumption.
			flush(body[i:])
			if !slices.ContainsFunc(consumed, a.Equal) {
				items = append(items, bodyItem{kind: itemCmp, atom: numbered(vars, a)})
			}
		case ck.kb.IsBase(a.Ref()):
			run = append(run, a)
			if len(run) >= ck.maxConj {
				flush(body[i+1:])
			}
		default:
			flush(body[i:])
			items = append(items, bodyItem{kind: itemCall, atom: numbered(vars, a), callee: ck.pred(a.Ref())})
		}
	}
	flush(nil)
	if i := slices.IndexFunc(items, isCall); i >= 0 && !slices.ContainsFunc(items[i+1:], isCall) {
		items[i].only = true
	}
	return items
}

func isCall(it bodyItem) bool { return it.kind == itemCall }

// numbered is a, numbered in the clause whose variables vars numbers.
func numbered(vars *logic.Numbering, a logic.Atom) *logic.NumAtom {
	na := vars.Number(a)
	return &na
}

// shape is what every ask of one goal shape shares: the goal pseudo-clause
// __goal__(vars) :- goal, and the names, bindings and base relations of
// the views an ask of it can reach. The goal shape is the goal's predicate
// and, per argument, a constant's kind or the first position of a variable
// (appendShapeKey); the goal's constants are bound when an ask runs.
type shape struct {
	// goal is the pseudo-clause's one item, whose variable i is the goal's
	// i-th distinct variable: a derived goal's call, whose atom each ask
	// replaces by its own goal, or a base goal's segment, built from the
	// goal itself and never shared, with the goal, numbered, as its atom.
	goal bodyItem
	// views are the reachable views in first-reachable order, views[i]
	// named names[i], and num[vt.id] is 1 + vt's index in views.
	views []*viewTemplate
	names []string
	num   []int32
	// binds holds the views' head bindings one after another, in views
	// order.
	binds    []advice.Binding
	baseRels []logic.PredRef
	// clauses are the clauses the goal reaches, in the order number
	// visits them: the compiled strategy's program sends their KB clauses.
	clauses []*compiledClause
	// path sizes the path expression an ask's advice block is grown for.
	path pathSize
}

// name is vt's view name in the shape.
func (sh *shape) name(vt *viewTemplate) string { return sh.names[sh.num[vt.id]-1] }

// appendShapeKey appends goal's shape: its predicate, then per argument the
// kind of a constant, a variable's first occurrence, or the position of the
// first occurrence of a variable that repeats.
func appendShapeKey(dst []byte, goal logic.Atom) []byte {
	dst = strconv.AppendInt(dst, int64(len(goal.Pred)), 10)
	dst = append(append(dst, goal.Pred...), '(')
	for i, t := range goal.Args {
		first := 0
		for t.IsVar() && (!goal.Args[first].IsVar() || goal.Args[first].Var != t.Var) {
			first++
		}
		switch {
		case t.IsConst():
			dst = append(dst, 'c', byte(t.Const.Kind()))
		case first == i:
			dst = append(dst, 'v')
		default:
			dst = strconv.AppendInt(append(dst, 'r'), int64(first), 10)
		}
		dst = append(dst, ',')
	}
	return dst
}

// compileShape compiles the goal pseudo-clause, and the clauses it reaches
// that are not compiled yet, and names and annotates the views it reaches.
func (ck *compiledKB) compileShape(goal logic.Atom) *shape {
	var vars logic.Numbering
	var head []logic.Term
	for _, t := range goal.Args {
		if t.IsVar() && !slices.Contains(vars, t.Var) {
			vars = append(vars, t.Var)
			head = append(head, t)
		}
	}
	sh := &shape{}
	items := ck.segmentBody([]string{"q"}, &vars, logic.A("__goal__", head...), []logic.Atom{goal})
	sh.goal = items[0]
	sh.number(items, map[*predCode]bool{})
	sh.views, sh.num, sh.baseRels, sh.clauses = slices.Clone(sh.views), slices.Clone(sh.num), slices.Clone(sh.baseRels), slices.Clone(sh.clauses)
	for len(ck.names) < len(sh.views) {
		ck.names = append(ck.names, fmt.Sprintf("d%d", len(ck.names)+1))
	}
	sh.names = ck.names[:len(sh.views):len(sh.views)]
	sh.annotate()
	if sh.goal.kind == itemCall {
		sh.goal.atom.Args = nil // each ask puts its own goal here
	} else {
		sh.goal.atom = numbered(&vars, goal) // numbers the answers of table 0
	}
	return sh
}

// number lists the views items reach in first-reachable order, a called
// predicate's at its first call, and their base relations and clauses in
// the same order.
func (sh *shape) number(items []bodyItem, seen map[*predCode]bool) {
	for _, it := range items {
		switch it.kind {
		case itemSegment:
			vt := it.seg
			for len(sh.num) <= vt.id {
				sh.num = append(sh.num, 0)
			}
			sh.views = append(sh.views, vt)
			sh.num[vt.id] = int32(len(sh.views))
			for _, a := range vt.query.Rels {
				if ref := a.Ref(); !slices.Contains(sh.baseRels, ref) {
					sh.baseRels = append(sh.baseRels, ref)
				}
			}
		case itemCall:
			if !seen[it.callee] {
				seen[it.callee] = true
				for _, cc := range it.callee.clauses {
					sh.clauses = append(sh.clauses, cc)
					sh.number(cc.items, seen)
				}
			}
		}
	}
}

// shapeClause applies the shaper to a bare clause.
func shapeClause(kb *logic.KB, sh *Shaper, c logic.Clause) (logic.Clause, bool) {
	body, ok := sh.shapeAND(kb, c.Body)
	return logic.Clause{Head: c.Head, Body: body}, ok
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
func (sh *shape) annotate() {
	type visitKey struct {
		pc      *predCode
		pattern string
	}
	visited := make(map[visitKey]bool)
	at := make([]int, len(sh.views)+1) // view i's bindings are binds[at[i]:at[i+1]]
	for i, vt := range sh.views {
		at[i+1] = at[i] + len(vt.query.Head.Args)
	}
	sh.binds = make([]advice.Binding, at[len(sh.views)])

	var visitItems func(items []bodyItem, bound map[string]bool)
	var visitPred func(pc *predCode, boundPos []bool)

	visitItems = func(items []bodyItem, bound map[string]bool) {
		for _, it := range items {
			switch it.kind {
			case itemSegment:
				vt := it.seg
				i := sh.num[vt.id] - 1
				if binds := sh.binds[at[i]:at[i+1]]; len(binds) > 0 && binds[0] == advice.BindNone {
					for i, t := range vt.query.Head.Args {
						if t.IsVar() && bound[t.Var] {
							binds[i] = advice.BindConsumer
						} else {
							binds[i] = advice.BindProducer
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
				visitPred(it.callee, pos)
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

	visitPred = func(pc *predCode, boundPos []bool) {
		key := visitKey{pc: pc, pattern: fmt.Sprint(boundPos)}
		if visited[key] {
			return
		}
		visited[key] = true
		for _, cc := range pc.clauses {
			bound := make(map[string]bool)
			for i, t := range cc.head.Args {
				if i < len(boundPos) && boundPos[i] && t.IsVar() {
					bound[t.Var] = true
				}
			}
			visitItems(cc.items, bound)
		}
	}

	// Goal: constants in the AI query are constants in the pseudo-clause;
	// no variables start bound.
	visitItems([]bodyItem{sh.goal}, make(map[string]bool))

	// Any view never reached by the analysis (dead code) defaults to
	// producers.
	for i, b := range sh.binds {
		if b == advice.BindNone {
			sh.binds[i] = advice.BindProducer
		}
	}
}
