package ie

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// A call's ancestors must stay its ancestors while the caller's continuation
// runs from inside it. g's second clause calls g(X), a variant of the open
// call, which follows g(X)'s table; before it runs, the continuation of g's
// first clause has called h(X) twice. When those calls shared the ancestor
// list's spare slot with g's, h(10) overwrote g(V0), the recursive g(X) ran,
// and p0(X)? answered X=20 twice from 7 CAQL queries. The follower reads
// g(X)'s answers, 10 and 20, and runs e(10, 3) and e(20, 3) for them, so the
// ask issues 5 queries; the variant-ancestor pruning tabling replaced issued
// 3, because it failed the recursive call instead.
func TestVariantAncestorsSurviveContinuations(t *testing.T) {
	kb := mustKB(t, `
		:- base(e/2).
		p0(X) :- p1(X).
		p1(X) :- p2(X).
		p2(X) :- g(X), h(X).
		g(X) :- e(X, 1).
		g(X) :- g(X), e(X, 3).
		h(X) :- e(X, 2).
	`)
	e := relationOfPairs("e", [][2]int64{{10, 1}, {10, 2}, {20, 1}, {20, 2}, {20, 3}, {30, 3}})
	for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction} {
		ds := &mapDS{src: caql.MapSource{"e": e}}
		got := New(kb, ds, Options{Strategy: strat}).mustAsk(t, "p0(X)?")
		if got.Len() != 2 || relation.DistinctRel(got).Len() != 2 || len(ds.queries) != 5 {
			t.Errorf("%s: answers %v from %d CAQL queries, want X=10 and X=20 from 5:\n%s",
				strat, got.Tuples(), len(ds.queries), strings.Join(ds.queries, "\n"))
		}
	}
}

// replayDS first records the answer to every CAQL query a search issues, in
// order, evaluated over its relations; once replay is set it answers the
// same sequence with streams built beforehand.
type replayDS struct {
	*mapDS
	answers []*relation.Relation
	replay  bool
	streams []*bridge.Stream
}

func (d *replayDS) BeginSession(*advice.Advice) bridge.Session { return d }

func (d *replayDS) Query(q *caql.Query) (*bridge.Stream, error) {
	if !d.replay {
		rel, err := caql.Eval(q, d.src)
		if err != nil {
			return nil, err
		}
		d.answers = append(d.answers, rel)
		return bridge.NewEagerStream(rel), nil
	}
	if len(d.streams) == 0 {
		return nil, fmt.Errorf("replay: more queries than recorded")
	}
	st := d.streams[0]
	d.streams = d.streams[1:]
	return st, nil
}

func (d *replayDS) QueryCtx(_ context.Context, q *caql.Query) (*bridge.Stream, error) {
	return d.Query(q)
}

func (d *replayDS) QueryText(src string) (*bridge.Stream, error) {
	return d.QueryTextCtx(context.Background(), src)
}

func (d *replayDS) QueryTextCtx(ctx context.Context, src string) (*bridge.Stream, error) {
	return queryText(ctx, d, src)
}

func (d *replayDS) End() {}

// TestInterpretedSearchAllocs holds the interpreted strategy to what it
// allocates per CAQL query it issues: less than one, since a query's block
// (the query with its body atoms and terms) is reused once its segment's
// choice has popped, as are the binding frames, the continuation stack and
// the storage of the answer tables, one for each of the 201 path calls. The
// data source replays streams built beforehand, so the count is the IE's
// own, and a search of 402 queries for one answer makes the ask's fixed cost
// (the session, the answer) small beside it.
func TestInterpretedSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 200
	kb := mustKB(t, `
		:- base(e/2).
		path(X, Y) :- e(X, Y).
		path(X, Y) :- e(X, Z), path(Z, Y).
	`)
	chain := make([][2]int64, n)
	for i := range chain {
		chain[i] = [2]int64{int64(i), int64(i + 1)}
	}
	src := caql.MapSource{"e": relationOfPairs("e", chain)}
	goal := logic.A("path", logic.CInt(0), logic.CInt(n))

	ds := &replayDS{mapDS: &mapDS{src: src}}
	eng := New(kb, ds, Options{Strategy: StrategyInterpreted})
	if got := eng.askAll(t, goal); got != 1 {
		t.Fatalf("path(0, %d) has %d answers, want 1", n, got)
	}
	queries := len(ds.answers)
	if queries != 2*n+2 {
		t.Fatalf("the search issued %d queries, want %d", queries, 2*n+2)
	}

	const runs = 20
	ds.replay = true
	for i := 0; i < (runs+1)*queries; i++ {
		ds.streams = append(ds.streams, bridge.NewEagerStream(ds.answers[i%queries]))
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if got := eng.askAll(t, goal); got != 1 {
			t.Fatalf("replayed search found %d answers, want 1", got)
		}
	})
	if len(ds.streams) != 0 {
		t.Fatalf("%d recorded streams left unasked", len(ds.streams))
	}
	perQuery := allocs / float64(queries)
	t.Logf("%v allocations per ask of %d queries, %.2f per query", allocs, queries, perQuery)
	if perQuery > 1 {
		t.Errorf("interpreted search allocates %.2f objects per CAQL query, budget 1", perQuery)
	}
}

// askAll asks goal and counts its answers.
func (e *Engine) askAll(t *testing.T, goal logic.Atom) int {
	sol, err := e.Ask(goal)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := sol.Next(); ok; _, ok = sol.Next() {
		n++
	}
	if err := sol.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestInstantiateMatchesTemplate: a segment's query, built in one block while
// its template fits (one atom, up to four arguments) and with what overflows
// allocated apart when it does not (more arguments, two atoms, a three-atom
// join with two comparisons), is the template with the frame's bindings
// applied: the same canonical form, whichever variables are bound. Two
// queries from one template share no storage, so writing to one leaves the
// other as it was.
func TestInstantiateMatchesTemplate(t *testing.T) {
	kb := mustKB(t, `
		:- base(e/2).
		:- base(f/3).
		all(X, W) :- p(X, W), u(X), w(X, W), q(X, W), r(X, W).
		p(X, Y) :- e(X, Y).
		u(X) :- e(X, 5).
		w(X, Z) :- f(X, Y, Z).
		q(X, W) :- e(X, Y), f(Y, 3, W).
		r(X, W) :- e(X, Y), e(Y, Z), f(Z, V, W), X < W, Y != V.
	`)
	ck := newCompiledKB(kb, nil, Options{Strategy: StrategyConjunction})
	sh := ck.compileShape(logic.A("all", logic.V("X"), logic.V("W")))
	for _, tc := range []struct {
		ref logic.PredRef
		fit bool
	}{
		{logic.PredRef{Name: "p", Arity: 2}, true},
		{logic.PredRef{Name: "u", Arity: 1}, true},
		{logic.PredRef{Name: "w", Arity: 2}, false}, // five arguments
		{logic.PredRef{Name: "q", Arity: 2}, false}, // two atoms, seven arguments
		{logic.PredRef{Name: "r", Arity: 2}, false}, // five atoms
	} {
		name, fit := tc.ref.Name, tc.fit
		cc := ck.preds[tc.ref].clauses[0]
		if len(cc.items) != 1 || cc.items[0].kind != itemSegment {
			t.Fatalf("%s: body compiled to %d items, want one segment", name, len(cc.items))
		}
		vt := cc.items[0].seg
		tq := &vt.query
		if n := len(tq.Rels) + len(tq.Cmps); (n <= 1 && len(vt.nums) <= 4) != fit {
			t.Fatalf("%s: %d atoms and %d arguments; the test expects it to fit the block: %v", name, n, len(vt.nums), fit)
		}
		r := &runner{engine: New(kb, nil, Options{}), sh: sh}
		base := r.b.Push(cc.nvars)
		// instantiateWith binds every template variable numbered n with
		// n%2 == parity (none for parity < 0) and instantiates vt; it also
		// returns the template with the same bindings applied.
		instantiateWith := func(parity int) (got, want *caql.Query) {
			mark := r.b.Mark()
			defer r.b.Undo(mark)
			binds := map[string]relation.Value{}
			for i, a := range templateTerms(tq) {
				if n := vt.nums[i]; a.IsVar() && int(n)%2 == parity {
					v := relation.Int(100 + int64(n))
					if !r.b.UnifyConst(base+int(n), v) {
						t.Fatalf("%s: cannot bind %s", name, a.Var)
					}
					binds[a.Var] = v
				}
			}
			return &r.instantiate(vt, base).q, tq.Instantiate(binds)
		}
		var kept []*caql.Query
		var canons []string
		for _, parity := range []int{-1, 0, 1} {
			got, want := instantiateWith(parity)
			if got.Canonical() != want.Canonical() {
				t.Fatalf("%s, parity %d: instantiated %s, template with bindings %s", name, parity, got, want)
			}
			kept, canons = append(kept, got), append(canons, got.Canonical())
		}
		// Appending to the relational atoms must not reach the comparisons.
		cmps := fmt.Sprint(kept[2].Cmps)
		_ = append(kept[2].Rels, logic.A("zz"))
		if fmt.Sprint(kept[2].Cmps) != cmps {
			t.Fatalf("%s: appending to Rels overwrote Cmps", name)
		}
		// Overwrite every atom and term of the first query.
		for _, a := range append(append([]*logic.Atom{&kept[0].Head}, atomPtrs(kept[0].Rels)...), atomPtrs(kept[0].Cmps)...) {
			a.Pred = "zz"
			for i := range a.Args {
				a.Args[i] = logic.CInt(-1)
			}
		}
		for i := 1; i < len(kept); i++ {
			if c := kept[i].Canonical(); c != canons[i] {
				t.Fatalf("%s: writing to one query changed another: %s, was %s", name, c, canons[i])
			}
		}
		if !raceEnabled {
			want := 1.0 // the block, and an allocation for each array it overflows
			if len(tq.Rels)+len(tq.Cmps) > 1 {
				want++
			}
			if len(vt.nums) > 4 {
				want++
			}
			if allocs := testing.AllocsPerRun(20, func() { r.instantiate(vt, base) }); allocs != want {
				t.Errorf("%s: instantiate makes %v allocations, want %v", name, allocs, want)
			}
		}
	}
}

// templateTerms is tq's terms in the order viewTemplate.nums numbers them:
// head, relational atoms, comparisons.
func templateTerms(tq *caql.Query) []logic.Term {
	out := append([]logic.Term(nil), tq.Head.Args...)
	for _, a := range append(append([]logic.Atom(nil), tq.Rels...), tq.Cmps...) {
		out = append(out, a.Args...)
	}
	return out
}

// atomPtrs points at each atom of as.
func atomPtrs(as []logic.Atom) []*logic.Atom {
	out := make([]*logic.Atom, len(as))
	for i := range as {
		out[i] = &as[i]
	}
	return out
}

// TestPooledRunnerKeepsNoTable: an ask's answer tables go with its runner
// only as storage. An ask of left-linear anc(0, Y) closed after its first
// answer leaves its tables incomplete; its runner, back with the engine,
// holds no table, key or answer value, and no answer substitution, nor does
// it after a base goal's ask
// or after an ask whose leader ran its clauses again, with no read or round
// mark left, and after an edge is inserted the
// next ask on the engine answers what the fixpoint derives over the new
// data, as it does after a drained ask and a second insert. Then four
// goroutines ask left-linear, right-linear and non-linear goals, bound and
// free, on one engine at once, on the runners the others give back, and
// each answers what a serial ask answered.
func TestPooledRunnerKeepsNoTable(t *testing.T) {
	const n = 30
	kb := mustKB(t, `
		:- base(e/2).
		lanc(X, Y) :- e(X, Y).
		lanc(X, Y) :- lanc(X, Z), e(Z, Y).
		ranc(X, Y) :- e(X, Y).
		ranc(X, Y) :- e(X, Z), ranc(Z, Y).
		nanc(X, Y) :- e(X, Y).
		nanc(X, Y) :- nanc(X, Z), nanc(Z, Y).
	`)
	chain := make([][2]int64, n)
	for i := range chain {
		chain[i] = [2]int64{int64(i), int64(i + 1)}
	}
	src := caql.MapSource{"e": relationOfPairs("e", chain)}
	eng := New(kb, &mapDS{src: src}, Options{Strategy: StrategyInterpreted})
	sol, err := eng.AskText("lanc(0, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	r := sol.search
	if _, ok := sol.Next(); !ok {
		t.Fatalf("lanc(0, Y) has no answer: %v", sol.Err())
	}
	if len(r.tabs.tabs) == 0 || r.tabs.tabs[0].complete {
		t.Fatalf("the ask closed after one answer left %d tables, the first complete: the test needs an incomplete one", len(r.tabs.tabs))
	}
	sol.Close()
	keepsNothing := func(goal string) {
		t.Helper()
		if len(r.tabs.tabs) != 0 || len(r.tabs.keys) != 0 || len(r.tabs.scc) != 0 || len(r.tabs.recs) != 0 ||
			len(r.tabs.reads) != 0 || r.tabs.rounds != 0 {
			t.Fatalf("%s: a closed runner keeps %d tables, %d key bytes, %d SCC entries, %d answers, %d reads and %d rounds",
				goal, len(r.tabs.tabs), len(r.tabs.keys), len(r.tabs.scc), len(r.tabs.recs), len(r.tabs.reads), r.tabs.rounds)
		}
		for _, v := range r.tabs.vals[:cap(r.tabs.vals)] {
			if !v.IsNull() {
				t.Fatalf("%s: a closed runner's table storage keeps the value %v", goal, v)
			}
		}
		if r.sub != nil {
			t.Fatalf("%s: a closed runner keeps its answer substitution %v", goal, r.sub)
		}
	}
	keepsNothing("lanc(0, Y)?")
	// A base goal's answers go through a table of their own, which close
	// empties too.
	if sol, err = eng.AskText("e(X, Y)?"); err != nil {
		t.Fatal(err)
	}
	r = sol.search
	if _, ok := sol.Next(); !ok || len(r.tabs.recs) != 1 {
		t.Fatalf("e(X, Y) after one answer: %d answers tabled (%v), want 1", len(r.tabs.recs), sol.Err())
	}
	sol.Close()
	keepsNothing("e(X, Y)?")
	// A leader that runs its clauses again marks its tables' rounds and
	// records their reads, and close empties those too: q's second call
	// reads an odd table that the first one's SCC is still filling.
	mutual := New(mustKB(t, `
		:- base(e/2).
		odd(X, Y) :- e(X, Y).
		odd(X, Y) :- e(X, Z), even(Z, Y).
		even(X, Y) :- e(X, Z), odd(Z, Y).
		q(X, Y) :- even(X, Z), odd(X, Y).
	`), &mapDS{src: caql.MapSource{"e": relationOfPairs("e", [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 1}})}},
		Options{Strategy: StrategyInterpreted})
	if sol, err = mutual.AskText("q(X, Y)?"); err != nil {
		t.Fatal(err)
	}
	r = sol.search
	for _, ok := sol.Next(); ok && r.tabs.rounds == 0; _, ok = sol.Next() {
	}
	if r.tabs.rounds == 0 || len(r.tabs.reads) == 0 {
		t.Fatalf("q(X, Y) ran %d rounds again with %d reads recorded: the test needs a re-run", r.tabs.rounds, len(r.tabs.reads))
	}
	sol.Close()
	keepsNothing("q(X, Y)?")
	// The drained asks leave complete tables behind them; the next insert
	// must show in the asks after it all the same.
	for i := int64(0); i < 2; i++ {
		src["e"].MustAppend(relation.Tuple{relation.Int(n + i), relation.Int(n + i + 1)})
		for _, goal := range []string{"lanc(0, Y)?", "lanc(X, Y)?"} {
			if got, want := answersOf(t, eng, goal), bottomUpAnswers(t, kb, src, goal); !got.EqualAsSet(want) {
				t.Fatalf("%s after insert %d: %d answers, the fixpoint %d", goal, i+1, got.Len(), want.Len())
			}
		}
	}

	var goals []string
	for _, p := range []string{"lanc", "ranc", "nanc"} {
		goals = append(goals, p+"(X, Y)?")
		for _, c := range []int{0, 7, 19} {
			goals = append(goals, fmt.Sprintf("%s(%d, Y)?", p, c), fmt.Sprintf("%s(X, %d)?", p, c))
		}
	}
	w := remotedb.NewEngine()
	w.LoadTable(src["e"])
	newCMS := func() *cache.CMS {
		return cache.New(remotedb.NewInProcClient(w, remotedb.DefaultCosts()),
			cache.Options{Features: cache.AllFeatures(), Costs: remotedb.DefaultCosts()})
	}
	serial := New(kb, newCMS(), DefaultOptions())
	want := make(map[string]string, len(goals))
	for _, g := range goals {
		want[g] = answerSet(t, serial, g)
	}
	shared := New(kb, newCMS(), DefaultOptions())
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := range goals {
				g := goals[(i+k*5)%len(goals)]
				if got := answerSet(t, shared, g); got != want[g] {
					t.Errorf("goroutine %d, %s: %s, serially %s", k, g, got, want[g])
				}
			}
		}(k)
	}
	wg.Wait()
}
