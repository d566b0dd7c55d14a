package ie

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// fixpoint runs caql.Fixpoint over the clauses reachable from roots.
func fixpoint(kb *logic.KB, base caql.RelationSource, roots ...logic.PredRef) (map[logic.PredRef]*relation.Relation, error) {
	var rules []*caql.Query
	for _, c := range reachable(kb, roots...) {
		rules = append(rules, caql.NewQuery(c.Head, c.Body))
	}
	derived, _, err := caql.Fixpoint(context.Background(), rules, base)
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

// distinctTuples is the answers of sol as a relation, once it has checked
// that no answer came twice.
func distinctTuples(t *testing.T, sol *Solutions) *relation.Relation {
	t.Helper()
	ans := sol.Tuples()
	if d := relation.DistinctRel(ans); d.Len() != ans.Len() {
		t.Fatalf("%d solutions hold %d distinct answers: %v", ans.Len(), d.Len(), ans.Sort())
	}
	return ans
}

// naiveBottomUp is the reference caql.Fixpoint and every strategy are held
// to: bottom-up evaluation of the clauses reachable from roots, written here
// without caql. It is semi-naive: the first round runs every rule over the
// base relations, and each later round runs a rule once for each body atom
// over a predicate that grew in the round before, that atom reading only the
// tuples new in that round and the others their extensions so far, until no
// extension grows. A body is joined atom by atom, the atom reading new
// tuples first, each atom probed through a hash index on the columns its
// constants and the atoms before it bind, and each comparison checked once
// its variables are bound. It returns the derived extensions.
func naiveBottomUp(kb *logic.KB, base caql.RelationSource, roots []logic.PredRef) (map[logic.PredRef]*relation.Relation, error) {
	reach := make(map[logic.PredRef]bool)
	var rules []logic.Clause
	var visit func(ref logic.PredRef)
	visit = func(ref logic.PredRef) {
		if reach[ref] || kb.IsBase(ref) {
			return
		}
		reach[ref] = true
		for _, c := range kb.Rules(ref) {
			rules = append(rules, c)
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

	derived := make(map[logic.PredRef]*relation.Relation)
	seen := make(map[logic.PredRef]*relation.TupleSet)
	for ref := range reach {
		attrs := make([]relation.Attr, ref.Arity)
		for i := range attrs {
			attrs[i].Name = fmt.Sprintf("a%d", i)
		}
		derived[ref] = relation.New(ref.Name, relation.NewSchema(attrs...))
		seen[ref] = relation.NewTupleSet(0)
	}
	ev := &bottomUp{derived: derived, base: base, indexes: map[indexKey]map[uint64][]relation.Tuple{}}
	for round := 0; round == 0 || len(ev.delta) > 0; round++ {
		next := make(map[logic.PredRef][]relation.Tuple)
		emit := func(ref logic.PredRef, t relation.Tuple) {
			if !seen[ref].Contains(t) {
				t = t.Clone()
				seen[ref].Add(t)
				next[ref] = append(next[ref], t)
			}
		}
		for _, c := range rules {
			if round == 0 {
				if err := ev.run(c, -1, emit); err != nil {
					return nil, err
				}
				continue
			}
			for i, a := range c.Body {
				if !a.IsComparison() && len(ev.delta[a.Ref()]) > 0 {
					if err := ev.run(c, i, emit); err != nil {
						return nil, err
					}
				}
			}
		}
		for ref, ts := range next {
			for _, t := range ts {
				derived[ref].MustAppend(t)
			}
		}
		ev.delta, ev.indexes = next, map[indexKey]map[uint64][]relation.Tuple{}
	}
	return derived, nil
}

// bottomUp is naiveBottomUp's state within a round: the extensions so far,
// the tuples the round before added, and the indexes built in the round.
type bottomUp struct {
	derived map[logic.PredRef]*relation.Relation
	delta   map[logic.PredRef][]relation.Tuple
	base    caql.RelationSource
	indexes map[indexKey]map[uint64][]relation.Tuple
}

// indexKey names an index: a relation's extension or its new tuples, on a
// set of columns.
type indexKey struct {
	ref   logic.PredRef
	delta bool
	cols  string
}

// run joins c's body, the atom at position from reading only the new tuples
// of its predicate (none when from < 0), and emits the head of every match,
// in a tuple it reuses.
func (ev *bottomUp) run(c logic.Clause, from int, emit func(logic.PredRef, relation.Tuple)) error {
	order := make([]int, 0, len(c.Body))
	if from >= 0 {
		order = append(order, from)
	}
	for i, a := range c.Body {
		if i != from && !a.IsComparison() {
			order = append(order, i)
		}
	}
	// Each variable gets a slot in env as the join first binds it; an
	// operand reads a slot, or is a constant when its slot is -1.
	slot := map[string]int{}
	operand := func(t logic.Term) bottomUpOperand {
		if t.IsConst() {
			return bottomUpOperand{slot: -1, c: t.Const}
		}
		return bottomUpOperand{slot: slot[t.Var]}
	}
	done := make([]bool, len(c.Body))
	tests := func() []bottomUpTest { // the comparisons bound by now, not yet checked
		var out []bottomUpTest
	cmps:
		for j, b := range c.Body {
			if !b.IsComparison() || done[j] {
				continue
			}
			for _, t := range b.Args {
				if _, ok := slot[t.Var]; t.IsVar() && !ok {
					continue cmps
				}
			}
			done[j] = true
			out = append(out, bottomUpTest{op: b.CmpOp(), l: operand(b.Args[0]), r: operand(b.Args[1])})
		}
		return out
	}
	pre := tests()
	var steps []bottomUpStep
	for _, i := range order {
		a := c.Body[i]
		var st bottomUpStep
		var cols []int
		for p, t := range a.Args {
			if _, ok := slot[t.Var]; t.IsConst() || ok {
				cols, st.key = append(cols, p), append(st.key, operand(t))
			}
		}
		for p, t := range a.Args {
			if t.IsConst() || slices.Contains(cols, p) {
				continue
			}
			if first := slices.IndexFunc(a.Args, t.Equal); first < p {
				st.repeats = append(st.repeats, [2]int{p, first})
				continue
			}
			slot[t.Var] = len(slot)
			st.binds = append(st.binds, [2]int{p, slot[t.Var]})
		}
		st.cols = cols
		rows, err := ev.index(a.Ref(), i == from, cols)
		if err != nil {
			return fmt.Errorf("ie: rule %s: %w", c, err)
		}
		st.rows, st.tests = rows, tests()
		steps = append(steps, st)
	}
	head := make([]bottomUpOperand, len(c.Head.Args))
	for i, t := range c.Head.Args {
		head[i] = operand(t)
	}

	env := make([]relation.Value, len(slot))
	if !holds(pre, env) {
		return nil
	}
	key, out := make(relation.Tuple, 0, 8), make(relation.Tuple, len(head))
	var join func(k int)
	join = func(k int) {
		if k == len(steps) {
			for i, o := range head {
				out[i] = o.value(env)
			}
			emit(c.Head.Ref(), out) // a new answer is copied
			return
		}
		st := &steps[k]
		key = key[:0]
		for _, o := range st.key {
			key = append(key, o.value(env))
		}
	rows:
		for _, row := range st.rows[key.Hash64()] {
			for i, col := range st.cols {
				if !row[col].Equal(key[i]) {
					continue rows
				}
			}
			for _, r := range st.repeats {
				if !row[r[0]].Equal(row[r[1]]) {
					continue rows
				}
			}
			for _, b := range st.binds {
				env[b[1]] = row[b[0]]
			}
			if holds(st.tests, env) {
				join(k + 1)
			}
		}
	}
	join(0)
	return nil
}

// bottomUpStep is one atom of a join: its rows by the hash of the columns
// cols, which must equal key; the positions whose values bind a slot, the
// positions that repeat an earlier one, and the comparisons bound once it
// is.
type bottomUpStep struct {
	rows    map[uint64][]relation.Tuple
	cols    []int
	key     []bottomUpOperand
	binds   [][2]int // position, slot
	repeats [][2]int // position, the earlier position it repeats
	tests   []bottomUpTest
}

// bottomUpOperand is a variable's slot in the join's environment, or a
// constant when slot is -1.
type bottomUpOperand struct {
	slot int
	c    relation.Value
}

func (o bottomUpOperand) value(env []relation.Value) relation.Value {
	if o.slot < 0 {
		return o.c
	}
	return env[o.slot]
}

type bottomUpTest struct {
	op   relation.CmpOp
	l, r bottomUpOperand
}

// holds reports whether every comparison holds in env.
func holds(tests []bottomUpTest, env []relation.Value) bool {
	for _, t := range tests {
		if !t.op.Eval(t.l.value(env), t.r.value(env)) {
			return false
		}
	}
	return true
}

// index returns the rows of ref's extension so far, or with delta its new
// tuples, by the hash of their values at cols.
func (ev *bottomUp) index(ref logic.PredRef, delta bool, cols []int) (map[uint64][]relation.Tuple, error) {
	k := indexKey{ref: ref, delta: delta, cols: fmt.Sprint(cols)}
	if ix, ok := ev.indexes[k]; ok {
		return ix, nil
	}
	var rows []relation.Tuple
	switch r, ok := ev.derived[ref]; {
	case delta:
		rows = ev.delta[ref]
	case ok:
		rows = r.Tuples()
	default:
		r, err := ev.base.RelationExtension(ref.Name, ref.Arity)
		if err != nil {
			return nil, err
		}
		rows = r.Tuples()
	}
	ix := make(map[uint64][]relation.Tuple)
	for _, t := range rows {
		h := t.Hash64On(cols)
		ix[h] = append(ix[h], t)
	}
	ev.indexes[k] = ix
	return ix, nil
}

// FuzzFixpoint holds every strategy to the naive reference: caql.Fixpoint
// over the reachable clauses must derive every reachable extension
// naiveBottomUp derives, and each of the interpreted, conjunction and
// compiled strategies must answer the goal with the reference's answers,
// each once. The compiled one answers over the test's map source and, on
// inputs of at most 31 edges, through the program door of a CMS session and
// of the single-relation baseline's, both over an in-process engine. A
// strategy may stop with an error, but never with a short answer. The low
// two bits of form pick anc's recursion (left-linear, right-linear,
// non-linear, or through odd and even, which call each other); bit 2 adds
// comparisons, bit 3 adds random rules over anc, odd and even, and bit 4 asks
// q, which is not recursive and calls two of them, so that its second call
// runs while the first call's table is open. data picks a chain 0 → 1 → … →
// size, or random acyclic or cyclic edges over up to 16 nodes; pick chooses
// the goal and whether it binds arguments.
func FuzzFixpoint(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(200), uint8(0))  // 200-edge chain, left-linear anc
	f.Add(int64(1), uint8(2), uint8(0), uint8(200), uint8(0))  // the same chain, non-linear anc
	f.Add(int64(5), uint8(3), uint8(2), uint8(9), uint8(5))    // odd and even over cyclic data, even(c, Y)
	f.Add(int64(6), uint8(11), uint8(2), uint8(12), uint8(0))  // and random rules, two derived atoms a body
	f.Add(int64(6), uint8(14), uint8(2), uint8(12), uint8(0))  // non-linear anc, comparisons, random rules
	f.Add(int64(7), uint8(15), uint8(1), uint8(12), uint8(14)) // acyclic data, a goal with both arguments bound

	// Inputs that tabling gets wrong without its leaders' re-runs, or when a
	// call reads a table that no SCC on its own ancestor chain waits for.
	f.Add(int64(2), uint8(16), uint8(2), uint8(9), uint8(4))     // q over left-linear anc and cyclic data, q(c, Y)
	f.Add(int64(65), uint8(5), uint8(71), uint8(47), uint8(18))  // right-linear anc with a comparison over cycles
	f.Add(int64(-94), uint8(23), uint8(0), uint8(62), uint8(64)) // q over odd and even on a chain, q(X, Y)
	f.Fuzz(func(t *testing.T, seed int64, form, data, size, pick uint8) {
		program, kb, src, goal := fixpointAsk(t, seed, form, data, size, pick)
		want, err := naiveBottomUp(kb, src, []logic.PredRef{goal.Ref()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := fixpoint(kb, src, goal.Ref())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("caql.Fixpoint derived %d predicates, the reference %d\n%s", len(got), len(want), program)
		}
		for ref, w := range want {
			if g := got[ref]; g == nil || !g.EqualAsSet(w) {
				t.Fatalf("%s: caql.Fixpoint derived %v, the reference %v\n%s", ref, g, w.Sort(), program)
			}
		}
		wantAnswers := answerRel(goal, want[goal.Ref()])
		type leg struct {
			strat Strategy
			ds    bridge.DataSource
		}
		legs := []leg{
			{StrategyInterpreted, &mapDS{src: src}},
			{StrategyConjunction, &mapDS{src: src}},
			{StrategyCompiled, &mapDS{src: src}},
		}
		// The compiled strategy's program also runs through a CMS session and
		// the single-relation baseline's, over an engine holding e, when e
		// has at most 31 edges, as every input but the long chains has: on
		// the seeds' 200-edge chains the two legs take an input past 10 s.
		if src["e"].Len() <= 31 {
			w := remotedb.NewEngine()
			w.LoadTable(src["e"])
			client := remotedb.NewInProcClient(w, remotedb.DefaultCosts())
			legs = append(legs,
				leg{StrategyCompiled, cache.New(client, cache.Options{Features: cache.AllFeatures()})},
				leg{StrategyCompiled, baseline.NewSingleRelationCache(client, 0, remotedb.DefaultCosts())})
		}
		for _, leg := range legs {
			sol, err := New(kb, leg.ds, Options{Strategy: leg.strat}).Ask(goal)
			if err != nil {
				t.Fatal(err)
			}
			ans := distinctTuples(t, sol)
			if err := sol.Err(); err != nil {
				t.Logf("%s: %s over %T stopped with %v", goal, leg.strat, leg.ds, err)
				continue
			}
			if !ans.EqualAsSet(wantAnswers) {
				t.Fatalf("%s: %s over %T answered %v, the reference %v\n%s", goal, leg.strat, leg.ds, ans.Sort(), wantAnswers.Sort(), program)
			}
		}
	})
}

// TestTabledSearchWork asks the first 2 000 of a fixed draw of FuzzFixpoint's
// inputs, random rules over cyclic data with a free or bound goal, under
// both SLD strategies. Every ask answers the naive reference's set, each
// answer once, and the CAQL queries the asks issue are capped, in total and
// in the largest ask, at what the search issued with every derived call
// tabled, plus 10 %: a repeated variant reads its table instead of running
// its clauses again.
func TestTabledSearchWork(t *testing.T) {
	const asks = 2000
	caps := []struct {
		strat        Strategy
		total, worst int
	}{
		{StrategyInterpreted, 56074, 724},
		{StrategyConjunction, 54875, 724},
	}
	total, worst := make([]int, len(caps)), make([]int, len(caps))
	rng := rand.New(rand.NewSource(42))
	for range asks {
		seed, form, size, pick := rng.Int63(), uint8(8+rng.Intn(24)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
		program, kb, src, goal := fixpointAsk(t, seed, form, 2, size, pick)
		want, err := naiveBottomUp(kb, src, []logic.PredRef{goal.Ref()})
		if err != nil {
			t.Fatal(err)
		}
		wantAnswers := answerRel(goal, want[goal.Ref()])
		for i, c := range caps {
			ds := &mapDS{src: src}
			sol, err := New(kb, ds, Options{Strategy: c.strat}).Ask(goal)
			if err != nil {
				t.Fatal(err)
			}
			if ans := distinctTuples(t, sol); sol.Err() != nil || !ans.EqualAsSet(wantAnswers) {
				t.Fatalf("%s, %s: answered %v (%v), the reference %v\n%s", goal, c.strat, ans.Sort(), sol.Err(), wantAnswers.Sort(), program)
			}
			total[i] += len(ds.queries)
			worst[i] = max(worst[i], len(ds.queries))
		}
	}
	for i, c := range caps {
		if total[i] > c.total*11/10 || worst[i] > c.worst*11/10 {
			t.Errorf("%s: %d asks issued %d CAQL queries, the largest %d; want at most %d and %d", c.strat, asks, total[i], worst[i], c.total*11/10, c.worst*11/10)
		}
		t.Logf("%s: %d asks issued %d CAQL queries, the largest %d", c.strat, asks, total[i], worst[i])
	}
}

// fixpointAsk is FuzzFixpoint's input decoded: the program, its KB, e and
// the goal.
func fixpointAsk(t *testing.T, seed int64, form, data, size, pick uint8) (string, *logic.KB, caql.MapSource, logic.Atom) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	program := fixpointProgram(rng, form)
	kb := mustKB(t, program)
	// The naive reference is cubic in a chain's length, and the fuzzer
	// stops an input after 10 s: only data 0 and the fixed rules get
	// chains longer than 31 edges, up to the seeds' 200.
	if data != 0 || form&24 != 0 {
		size %= 32
	}
	src, nodes := fixpointData(rng, data, size)
	pred := []string{"anc", "odd", "even"}[int(pick)%3]
	if form&16 != 0 {
		pred = "q"
	}
	args := []string{"X", "Y"}
	for i := range args {
		if pick>>(2+i)&1 == 1 {
			args[i] = fmt.Sprint(rng.Intn(nodes + 1))
		}
	}
	goal, err := logic.ParseAtom(fmt.Sprintf("%s(%s, %s)", pred, args[0], args[1]))
	if err != nil {
		t.Fatal(err)
	}
	return program, kb, src, goal
}

// fixpointProgram builds FuzzFixpoint's program over the base relation e.
func fixpointProgram(rng *rand.Rand, form uint8) string {
	var b strings.Builder
	b.WriteString(":- base(e/2).\nanc(X, Y) :- e(X, Y).\nodd(X, Y) :- e(X, Y).\neven(X, Y) :- e(X, Z), odd(Z, Y).\n")
	b.WriteString([]string{
		"anc(X, Y) :- anc(X, Z), e(Z, Y)",
		"anc(X, Y) :- e(X, Z), anc(Z, Y)",
		"anc(X, Y) :- anc(X, Z), anc(Z, Y)",
		"odd(X, Y) :- e(X, Z), even(Z, Y).\nanc(X, Y) :- even(X, Y)",
	}[form&3])
	cmps := []string{"X < Y", "X != Y", "Y >= 2", "X <= 5", "Z != 3", "Z > X"}
	if form&4 != 0 {
		fmt.Fprintf(&b, ", %s", cmps[rng.Intn(len(cmps)-2)])
	}
	b.WriteString(".\n")
	if form&16 != 0 {
		preds := []string{"anc", "odd", "even"}
		p := func() string { return preds[rng.Intn(len(preds))] }
		fmt.Fprintf(&b, "q(X, Y) :- %s(X, Z), %s(X, Y).\nq(X, Y) :- %s(X, Z), %s(Z, Y).\n", p(), p(), p(), p())
	}
	if form&8 != 0 {
		preds := []string{"anc", "odd", "even", "e"}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			p := func() string { return preds[rng.Intn(len(preds))] }
			fmt.Fprintf(&b, "%s(X, Y) :- %s(X, Z), %s(Z, Y)", preds[rng.Intn(3)], p(), p())
			if form&4 != 0 {
				fmt.Fprintf(&b, ", %s", cmps[rng.Intn(len(cmps))])
			}
			b.WriteString(".\n")
		}
	}
	return b.String()
}

// fixpointData builds e and returns it with its largest node: a chain of
// size edges, at most 200, for data%3 == 0, otherwise random edges over at
// most 16 nodes, only from lower to higher nodes for data%3 == 1.
func fixpointData(rng *rand.Rand, data, size uint8) (caql.MapSource, int) {
	e := relation.New("e", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindInt}))
	nodes := int(size)
	if data%3 == 0 {
		nodes = min(nodes, 200)
		for i := 0; i < nodes; i++ {
			e.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i + 1))})
		}
		return caql.MapSource{"e": e}, nodes
	}
	nodes = nodes%16 + 1
	for n := rng.Intn(2 * nodes); n >= 0; n-- {
		a, b := rng.Intn(nodes+1), rng.Intn(nodes+1)
		if data%3 == 1 && a >= b {
			continue
		}
		e.MustAppend(relation.Tuple{relation.Int(int64(a)), relation.Int(int64(b))})
	}
	return caql.MapSource{"e": e}, nodes
}

// TestFixpointBodyTuples counts the tuples rule bodies produce for anc on a
// 200-edge chain, which has 20 100 anc tuples. Semi-naive evaluation derives
// each of them once when anc is linear, left or right; naive evaluation made
// 2 666 800. The non-linear form joins anc with itself, which derives a pair
// once per midpoint; its count is logged, not gated.
func TestFixpointBodyTuples(t *testing.T) {
	src, _ := fixpointData(nil, 0, 200)
	for _, form := range []struct {
		name string
		rec  string
		max  int
	}{
		{"left-linear", "anc(X, Y) :- anc(X, Z), e(Z, Y).", 2 * 20100},
		{"right-linear", "anc(X, Y) :- e(X, Z), anc(Z, Y).", 2 * 20100},
		{"non-linear", "anc(X, Y) :- anc(X, Z), anc(Z, Y).", -1},
	} {
		kb := mustKB(t, ":- base(e/2).\nanc(X, Y) :- e(X, Y).\n"+form.rec)
		anc := logic.PredRef{Name: "anc", Arity: 2}
		var rules []*caql.Query
		for _, c := range kb.Rules(anc) {
			rules = append(rules, caql.NewQuery(c.Head, c.Body))
		}
		derived, produced, err := caql.Fixpoint(context.Background(), rules, src)
		if err != nil {
			t.Fatal(err)
		}
		if n := derived[anc].Len(); n != 20100 {
			t.Fatalf("%s: %d anc tuples, want 20100", form.name, n)
		}
		if form.max >= 0 && produced > form.max {
			t.Errorf("%s anc: %d body tuples, want at most %d", form.name, produced, form.max)
		}
		t.Logf("%s anc: %d body tuples for 20100 answers", form.name, produced)
	}
}
