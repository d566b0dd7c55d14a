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
// allocates per CAQL query it issues: the query (its struct, its body atoms
// and one block of terms), with the binding frames, the continuation stack
// and the ancestor keys reused across the search. The data source replays
// streams built beforehand, so the count is the IE's own, and a search of
// 402 queries for one answer makes the ask's fixed cost (compiling the
// program, the session, the answer) small beside it.
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
	if perQuery > 4 {
		t.Errorf("interpreted search allocates %.2f objects per CAQL query, budget 4", perQuery)
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
