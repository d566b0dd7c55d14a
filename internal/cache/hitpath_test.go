package cache

import (
	"fmt"
	"math"
	"slices"
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
		// The prepared query, the derivation, the index lookup's rows, the
		// slice of rows that pass the other selection, their one block of
		// values, the answer relation and its stream. The output schema is
		// one the element served before.
		{"indexed subsumed eager", `di(3, Z) :- b3(3, "a", Z)`, 7},
		// As above, less the index lookup: every row passes.
		{"exact eager", "dx(X, Y) :- b2(X, Y)", 6},
		// The prepared query, the derivation, and the stream with its
		// iterators: the element's, the cost charger and its callback, the
		// selection, the projection, the guard and its check.
		{"subsumed lazy", `dg(X, "a", Z) :- b3(X, "a", Z)`, 10},
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

// TestHitSchemaParity: a hit's output schema comes from its derivation and
// the element, not from the catalog, and is the schema caql's OutputSchema
// gives the query — names, kinds and order — on every kind of hit: exact,
// subsumed, indexed eager and lazy, with repeated head variables, head
// constants, an int column joined with a float one, and more shapes from one
// element than it remembers. A shape asked twice in a row is served the
// schema it was served before.
func TestHitSchemaParity(t *testing.T) {
	e, src := fixtureEngine(t, 21, 60)
	fl := relation.New("fl", relation.NewSchema(
		relation.Attr{Name: "f", Kind: relation.KindFloat}, relation.Attr{Name: "g", Kind: relation.KindInt}))
	for i := 0; i < 8; i++ {
		fl.MustAppend(relation.Tuple{relation.Float(float64(i)), relation.Int(int64(10 * i))})
	}
	e.LoadTable(fl)
	src["fl"] = fl
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()

	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)")
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")
	drainQ(t, s, "j(X, Y, G) :- b2(X, Y) & fl(Y, G)")
	remote := cms.Stats().RemoteRequests

	corpus := []string{
		"dx(X, Y) :- b2(X, Y)", // exact
		"dx(A, B) :- b2(A, B)", // exact, other names
		`i(X, Z) :- b3(X, "a", Z)`,
		`di(3, Z) :- b3(3, "a", Z)`,      // indexed eager from its third ask on
		`dg(X, "a", Z) :- b3(X, "a", Z)`, // lazy
		"h(X, X_, X) :- b2(X, X_)",       // X, X_, X__
		"h(Y, X, Y, X) :- b2(X, Y)",      // Y, X, Y_, X_
		"dx(Y, X_) :- b2(Y, X_)",         // Y, X_ ...
		"dx(Y, X) :- b2(Y, X)",           // ... which does not fit Y, X
		`k(3, Z, "a") :- b3(3, "a", Z)`,  // c0, Z, c2
		`m(X) :- b3(X, "c", Z)`,          // X is an int ...
		`m(X) :- b3(Z, X, 3)`,            // ... and here a string
		"j(X, Y, G) :- b2(X, Y) & fl(Y, G)",
		"jy(Y, G) :- b2(X, Y) & fl(Y, G)",
	}
	// Six namings of one shape from dg: more than the element remembers.
	for _, v := range []string{"A", "B", "C", "D", "E", "F"} {
		corpus = append(corpus, fmt.Sprintf(`n(%s1, %s2) :- b3(%s1, "b", %s2)`, v, v, v, v))
	}
	for round := 0; round < 3; round++ {
		for _, text := range corpus {
			q := caql.MustParse(text)
			hits := cms.Stats().CacheHits
			st, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got := st.Drain("out")
			if cms.Stats().CacheHits != hits+1 {
				t.Fatalf("%s: not a hit", text)
			}
			want, err := q.OutputSchema(cms)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(st.Schema().Attrs(), want.Attrs()) {
				t.Fatalf("%s: served schema %v, OutputSchema %v", text, st.Schema().Attrs(), want.Attrs())
			}
			wantRows, err := caql.Eval(q, src)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualAsBag(wantRows) {
				t.Fatalf("%s: got %v, want %v", text, got.Tuples(), wantRows.Tuples())
			}
			again, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if again.Schema() != st.Schema() {
				t.Fatalf("%s: asked twice in a row, served two schemas", text)
			}
			again.Drain("out")
		}
	}
	if st := cms.Stats(); st.RemoteRequests != remote || st.ExactHits == 0 || st.LazyAnswers == 0 || st.IndexBuilds == 0 {
		t.Fatalf("the corpus did not take the paths it names: %+v", st)
	}

	// The one place the two rules part: a join variable typed by its first
	// occurrence, which is an int column in the element and a float one in
	// the query. The hit types it by the column its values are read from.
	q := caql.MustParse("jr(X, Y, G) :- fl(Y, G) & b2(X, Y)")
	st, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if k := st.Schema().Attr(1).Kind; k != relation.KindInt {
		t.Fatalf("Y served as %v, want int, the kind of the element column", k)
	}
	for _, tu := range st.Drain("out").Tuples() {
		if tu[1].Kind() != relation.KindInt {
			t.Fatalf("Y holds %v, of kind %v", tu[1], tu[1].Kind())
		}
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
