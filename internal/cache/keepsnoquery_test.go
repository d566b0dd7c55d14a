package cache_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/advice"
	"repro/internal/baseline"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// scramble overwrites every atom and term of q with another predicate and
// another constant.
func scramble(q *caql.Query) {
	atoms := []*logic.Atom{&q.Head}
	for i := range q.Rels {
		atoms = append(atoms, &q.Rels[i])
	}
	for i := range q.Cmps {
		atoms = append(atoms, &q.Cmps[i])
	}
	for _, a := range atoms {
		a.Pred = "zz"
		for i := range a.Args {
			a.Args[i] = logic.CInt(-7)
		}
	}
}

// TestSessionKeepsNoQuery holds every data source the IE can run against to
// bridge.Session's contract: a session keeps no reference into a query once
// it has answered it. After each QueryCtx returns, every atom and term of the
// query is overwritten with other predicates and constants. The answers of
// the kinds named, half read and left open, and the same queries asked again
// afterwards must all be caql.Eval's answer to the text as it was asked.
func TestSessionKeepsNoQuery(t *testing.T) {
	const (
		all2 = `a(X, Y) :- b2(X, Y)`
		join = `j(X, W) :- b2(X, Z) & b3(Z, "a", W)`
	)
	type ask struct {
		kind, query string
		took        func(b, a bridge.SourceStats) bool
	}
	hit := func(b, a bridge.SourceStats) bool {
		return a.CacheHits == b.CacheHits+1 && a.RemoteRequests == b.RemoteRequests
	}
	eagerHit := func(b, a bridge.SourceStats) bool { return hit(b, a) && a.LazyAnswers == b.LazyAnswers }
	miss := func(b, a bridge.SourceStats) bool {
		return a.RemoteRequests == b.RemoteRequests+1 && a.CacheHits == b.CacheHits
	}
	partial := func(b, a bridge.SourceStats) bool { return a.PartialHits == b.PartialHits+1 }
	cms := func(f cache.Features) func(remotedb.Client) bridge.DataSource {
		return func(c remotedb.Client) bridge.DataSource {
			return cache.New(c, cache.Options{Features: f, Costs: remotedb.DefaultCosts(), ThinkTimeMS: 1000})
		}
	}
	serial := cache.AllFeatures()
	serial.Parallel = false
	for _, tc := range []struct {
		name   string
		source func(remotedb.Client) bridge.DataSource
		advice string
		warm   []string
		asks   []ask
	}{
		{
			name: "hits", source: cms(cache.AllFeatures()), advice: cache.HitPathAdvice,
			warm: []string{"dg(X, Y, Z) :- b3(X, Y, Z)", "dx(X, Y) :- b2(X, Y)",
				`di(3, Z) :- b3(3, "a", Z)`, `di(3, Z) :- b3(3, "a", Z)`, `di(3, Z) :- b3(3, "a", Z)`},
			asks: []ask{
				{"exact", "dx(X, Y) :- b2(X, Y)", func(b, a bridge.SourceStats) bool { return eagerHit(b, a) && a.ExactHits == b.ExactHits+1 }},
				{"subsumed", `s(X, Z) :- b3(X, "c", Z) & X > 1`, func(b, a bridge.SourceStats) bool { return eagerHit(b, a) && a.ExactHits == b.ExactHits }},
				{"indexed", `di(4, Z) :- b3(4, "a", Z)`, eagerHit},
				{"lazy", `dg(X, "a", Z) :- b3(X, "a", Z)`, func(b, a bridge.SourceStats) bool { return hit(b, a) && a.LazyAnswers == b.LazyAnswers+1 }},
			},
		},
		{
			name: "cached miss", source: cms(cache.AllFeatures()),
			asks: []ask{{"miss", all2, miss}, {"miss with a constant", `m(Y) :- b1("a", Y)`, miss}},
		},
		{
			name: "lazy remote", source: cms(cache.Features{Lazy: true}),
			asks: []ask{{"lazy remote", join, func(b, a bridge.SourceStats) bool { return a.LazyAnswers == b.LazyAnswers+1 }}},
		},
		{
			name: "generalized", source: cms(cache.AllFeatures()), warm: []string{`g("a", Y) :- b1("a", Y)`},
			asks: []ask{{"generalized", `g("b", Y) :- b1("b", Y)`, func(b, a bridge.SourceStats) bool { return a.Generalizations == b.Generalizations+1 }}},
		},
		{
			name: "decomposed, parallel", source: cms(cache.AllFeatures()), warm: []string{all2},
			asks: []ask{{"partial", join, partial}},
		},
		{
			name: "decomposed, serial", source: cms(serial), warm: []string{all2},
			asks: []ask{{"partial", join, partial}},
		},
		{
			// d2 is fetched generalized and prefetches its follower d3, which
			// then answers d3 (with no rows: b1 joins on a string column).
			name: "prefetch followers", source: cms(cache.AllFeatures()), advice: cache.Example1Advice,
			warm: []string{`d1(Y) :- b1("a", Y)`},
			asks: []ask{
				{"generalized", `d2(X, 3) :- b2(X, Z) & b3(Z, "a", 3)`, func(b, a bridge.SourceStats) bool { return a.Generalizations == b.Generalizations+1 }},
				{"prefetched", `d3(X, 3) :- b3(X, "b", Z) & b1(Z, 3)`, func(b, a bridge.SourceStats) bool { return a.PrefetchHits == b.PrefetchHits+1 }},
			},
		},
		{
			name:   "exact-match baseline",
			source: func(c remotedb.Client) bridge.DataSource { return baseline.NewExactMatchCache(c, 0) },
			asks: []ask{
				{"miss", all2, miss},
				{"exact", all2, func(b, a bridge.SourceStats) bool { return hit(b, a) && a.ExactHits == b.ExactHits+1 }},
			},
		},
		{
			name:   "single-relation baseline",
			source: func(c remotedb.Client) bridge.DataSource { return baseline.NewSingleRelationCache(c, 0) },
			asks:   []ask{{"loaded", join, func(b, a bridge.SourceStats) bool { return a.CacheHits == b.CacheHits+1 }}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, src := cache.FixtureEngine(t, 21, 60)
			ds := tc.source(remotedb.NewInProcClient(e, remotedb.DefaultCosts()))
			var adv *advice.Advice
			if tc.advice != "" {
				adv = advice.MustParse(tc.advice)
			}
			s := ds.BeginSession(adv)
			defer s.End()
			// query asks text and scrambles the query it asked as soon as the
			// session has answered it.
			query := func(text string) *bridge.Stream {
				t.Helper()
				q := caql.MustParse(text)
				st, err := s.QueryCtx(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				scramble(q)
				return st
			}
			answer := func(text string) *relation.Relation {
				t.Helper()
				want, err := caql.Eval(caql.MustParse(text), src)
				if err != nil {
					t.Fatal(err)
				}
				return want
			}
			for _, text := range tc.warm {
				query(text).Drain("warm")
			}

			type open struct {
				query        string
				st           *bridge.Stream
				kept, copies []relation.Tuple
			}
			var answers []*open
			for _, a := range tc.asks {
				before := ds.Stats()
				st := query(a.query)
				if !a.took(before, ds.Stats()) {
					t.Fatalf("%s: %s did not take its path: %+v", a.kind, a.query, ds.Stats())
				}
				o := &open{query: a.query, st: st}
				for len(o.kept) < answer(a.query).Len()/2 {
					tu, ok := st.Next()
					if !ok {
						t.Fatalf("%s: stream ended after %d tuples", a.query, len(o.kept))
					}
					o.kept, o.copies = append(o.kept, tu), append(o.copies, slices.Clone(tu))
				}
				answers = append(answers, o)
			}
			for _, text := range append(append([]string(nil), tc.warm...), tc.asks[len(tc.asks)-1].query) {
				st := query(text)
				got := st.Drain("again")
				if want := answer(text); !got.EqualAsBag(want) {
					t.Fatalf("%s asked again: got %v, want %v", text, got.Tuples(), want.Tuples())
				}
				st.Close()
			}
			for _, o := range answers {
				for i, tu := range o.kept {
					if !tu.Equal(o.copies[i]) {
						t.Fatalf("%s: kept tuple %d is %v, was %v", o.query, i, tu, o.copies[i])
					}
				}
				got := relation.FromTuples("out", o.st.Schema(), append(o.kept, o.st.Drain("rest").Tuples()...))
				if err := o.st.Err(); err != nil {
					t.Fatal(err)
				}
				if want := answer(o.query); !got.EqualAsBag(want) {
					t.Fatalf("%s: kept and drained %v, want %v", o.query, got.Tuples(), want.Tuples())
				}
			}
		})
	}
}
