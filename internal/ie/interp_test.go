package ie

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

// A call's variant key must stay among its ancestors while the caller's
// continuation runs from inside it. g's second clause calls g(X), a variant
// of the open call, and is pruned; before it runs, the continuation of g's
// first clause has called h(X) twice. When those calls shared the ancestor
// list's spare slot with g's, h(10) overwrote g(V0), the recursive g(X) ran,
// and p0(X)? answered X=20 twice from 7 CAQL queries.
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
		if got.Len() != 2 || relation.DistinctRel(got).Len() != 2 || len(ds.queries) != 3 {
			t.Errorf("%s: answers %v from %d CAQL queries, want X=10 and X=20 from 3:\n%s",
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

func (d *replayDS) QueryText(string) (*bridge.Stream, error) {
	return nil, fmt.Errorf("replay: no text queries")
}

func (d *replayDS) QueryTextCtx(context.Context, string) (*bridge.Stream, error) {
	return nil, fmt.Errorf("replay: no text queries")
}

func (d *replayDS) End() {}

// TestInterpretedSearchAllocs holds the interpreted strategy to what it
// allocates per CAQL query it issues: less than one, since a query's block
// (the query with its body atoms and terms) is reused once its segment's
// choice has popped, as are the binding frames, the continuation stack and
// the ancestor keys. The data source replays streams built beforehand, so
// the count is the IE's own, and a search of 402 queries for one answer
// makes the ask's fixed cost (the session, the answer) small beside it.
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
