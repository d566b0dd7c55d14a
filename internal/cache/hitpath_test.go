package cache

import (
	"math"
	"testing"

	"repro/internal/advice"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// hitPathAdvice lets every query of TestHitPathAllocs through the tracker (an
// alternation repeats in any order) and gives di a sequence follower, dn,
// whose consumer no di query binds: the follower is looked up and skipped.
const hitPathAdvice = `
	view dg(X^, Y^, Z^) :- b3(X, Y, Z).
	view di(X?, Z^) :- b3(X, "a", Z).
	view dn(W?, Z^) :- b3(W, "b", Z).
	view dx(X?, Y^) :- b2(X, Y).
	path [dg(X^, Y^, Z^), dx(X?, Y^), (di(X?, Z^), dn(W?, Z^))<0,*>].
`

// TestHitPathAllocs holds the CMS's hit path to the allocations it makes for
// the answer it returns, on a warm cache: an indexed subsumed eager hit, an
// exact hit, and a lazy hit, each answered without a remote request and as
// caql.Eval answers it. The budgets are what the path measures today; a
// change that allocates more per hit has to say why here.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, src := fixtureEngine(t, 21, 60)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()

	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)") // the element the di and lazy hits derive from
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")       // the element the exact hit matches
	for _, tc := range []struct {
		name, query string
		budget      float64
	}{
		// The prepared query, the derivation, the output schema (struct and
		// attributes), the index lookup's rows, the slice of rows that pass
		// the other selection, their one block of values, the answer
		// relation and its stream.
		{"indexed subsumed eager", `di(3, Z) :- b3(3, "a", Z)`, 9},
		// As above, less the index lookup: every row passes.
		{"exact eager", "dx(X, Y) :- b2(X, Y)", 8},
		// The prepared query, the derivation, the output schema, and the
		// stream with its iterators: the element's, the cost charger and its
		// callback, the selection, the projection, the guard and its check.
		{"subsumed lazy", `dg(X, "a", Z) :- b3(X, "a", Z)`, 12},
	} {
		q := caql.MustParse(tc.query)
		for i := 0; i < 3; i++ { // build the index, grow the session's scratch
			if _, err := s.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		want, err := caql.Eval(q, src)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainQ(t, s, tc.query); !got.EqualAsBag(want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got.Tuples(), want.Tuples())
		}
		before := cms.Stats()
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Query(q); err != nil {
				t.Fatal(err)
			}
		})
		after := cms.Stats()
		if after.RemoteRequests != before.RemoteRequests || after.CacheHits-before.CacheHits != 51 {
			t.Fatalf("%s: not a cache hit every time: %d remote requests, %d hits in 51 queries",
				tc.name, after.RemoteRequests-before.RemoteRequests, after.CacheHits-before.CacheHits)
		}
		t.Logf("%s: %v allocations per hit", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %v allocations per hit, budget %v", tc.name, allocs, tc.budget)
		}
	}
	if st := cms.Stats(); st.ExactHits == 0 || st.LazyAnswers == 0 || st.IndexBuilds == 0 {
		t.Errorf("the cases did not take the paths they name: %+v", st)
	}
}

// TestNegativeZeroIndexedHit: −0.0 and 0 are Equal, so a subsumed hit that
// reads an element through an attribute index must return the rows holding
// −0.0 for the constant 0, as caql.Eval does.
func TestNegativeZeroIndexedHit(t *testing.T) {
	fz := relation.New("fz", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindFloat},
		relation.Attr{Name: "y", Kind: relation.KindInt}))
	fz.MustAppend(relation.Tuple{relation.Float(math.Copysign(0, -1)), relation.Int(1)})
	fz.MustAppend(relation.Tuple{relation.Float(0), relation.Int(2)})
	fz.MustAppend(relation.Tuple{relation.Float(1), relation.Int(3)})
	e := remotedb.NewEngine()
	e.LoadTable(fz)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	drainQ(t, s, "all(X, Y) :- fz(X, Y)")
	q := "zero(Y) :- fz(0, Y)"
	want, err := caql.Eval(caql.MustParse(q), caql.MapSource{"fz": fz})
	if err != nil {
		t.Fatal(err)
	}
	// The third equality selection on the column earns it an index.
	for i := 0; i < 3; i++ {
		if got := drainQ(t, s, q); !got.EqualAsBag(want) {
			t.Fatalf("query %d: got %v, want %v", i+1, got.Tuples(), want.Tuples())
		}
	}
	if st := cms.Stats(); st.IndexBuilds != 1 || st.RemoteRequests != 1 {
		t.Fatalf("want one index build and every query after the first a hit: %+v", st)
	}
}
