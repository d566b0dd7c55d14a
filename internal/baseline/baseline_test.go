package baseline

import (
	"testing"

	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

func fixtureClient(t *testing.T) remotedb.Client {
	t.Helper()
	e := remotedb.NewEngine()
	b2 := relation.New("b2", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindInt},
		relation.Attr{Name: "y", Kind: relation.KindInt}))
	for i := int64(0); i < 20; i++ {
		b2.MustAppend(relation.Tuple{relation.Int(i % 5), relation.Int(i)})
	}
	e.LoadTable(b2)
	return remotedb.NewInProcClient(e, remotedb.DefaultCosts())
}

func TestLooseCouplingAlwaysRemote(t *testing.T) {
	ds := NewLooseCoupling(fixtureClient(t), remotedb.DefaultCosts())
	s := ds.BeginSession(nil)
	defer s.End()
	for i := 0; i < 3; i++ {
		st, err := s.QueryText("q(Y) :- b2(1, Y)")
		if err != nil {
			t.Fatal(err)
		}
		st.Drain("out")
	}
	if got := ds.Stats().RemoteRequests; got != 3 {
		t.Fatalf("loose coupling remote requests = %d, want 3", got)
	}
}

func TestExactMatchCacheReuse(t *testing.T) {
	ds := NewExactMatchCache(fixtureClient(t), 0, remotedb.DefaultCosts())
	s := ds.BeginSession(nil)
	defer s.End()
	for i := 0; i < 3; i++ {
		st, err := s.QueryText("q(Y) :- b2(1, Y)")
		if err != nil {
			t.Fatal(err)
		}
		st.Drain("out")
	}
	// A specialization is NOT reused (no subsumption).
	st, err := s.QueryText("q(Y) :- b2(1, Y) & Y > 3")
	if err != nil {
		t.Fatal(err)
	}
	st.Drain("out")
	stats := ds.Stats()
	if stats.RemoteRequests != 2 {
		t.Fatalf("exact-match remote requests = %d, want 2", stats.RemoteRequests)
	}
	if stats.ExactHits != 2 {
		t.Fatalf("exact hits = %d, want 2", stats.ExactHits)
	}
}

func TestSingleRelationCache(t *testing.T) {
	ds := NewSingleRelationCache(fixtureClient(t), 0, remotedb.DefaultCosts())
	s := ds.BeginSession(nil)
	defer s.End()
	// First query loads all of b2 (one remote request), then answers
	// locally; subsequent selections are all local.
	queries := []string{
		"q(Y) :- b2(1, Y)",
		"q(Y) :- b2(2, Y)",
		"q(X, Y) :- b2(X, Y) & Y < 10",
	}
	var results []*relation.Relation
	for _, q := range queries {
		st, err := s.QueryText(q)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, st.Drain("out"))
	}
	if got := ds.Stats().RemoteRequests; got != 1 {
		t.Fatalf("single-relation remote requests = %d, want 1 (the full load)", got)
	}
	// Correctness vs direct evaluation.
	e := remotedb.NewEngine()
	b2full, _, err := fixtureClient(t).(*remotedb.InProcClient).Engine().ExecuteSQL("SELECT * FROM b2")
	if err != nil {
		t.Fatal(err)
	}
	_ = e
	b2full.Name = "b2"
	src := caql.MapSource{"b2": b2full}
	for i, q := range queries {
		want, err := caql.Eval(caql.MustParse(q), src)
		if err != nil {
			t.Fatal(err)
		}
		if !results[i].EqualAsSet(want) {
			t.Fatalf("query %q wrong:\ngot %v\nwant %v", q, results[i], want)
		}
	}
	if _, err := ds.RelationSchema("b2", 2); err != nil {
		t.Fatal(err)
	}
	if st, err := ds.RelationStats("b2"); err != nil || st.Rows != 20 {
		t.Fatalf("stats: %+v %v", st, err)
	}
}

func TestSingleRelationCacheParseError(t *testing.T) {
	ds := NewSingleRelationCache(fixtureClient(t), 0, remotedb.DefaultCosts())
	s := ds.BeginSession(nil)
	defer s.End()
	if _, err := s.QueryText("q(Y :-"); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := s.QueryText("q(Y) :- nosuch(Y)"); err == nil {
		t.Fatal("unknown relation error expected")
	}
}
