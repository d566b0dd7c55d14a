package cache

import (
	"testing"

	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

func TestQueryUnion(t *testing.T) {
	e, src := fixtureEngine(t, 61, 40)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	u, err := caql.ParseUnion(`
		d(X, Y) :- b2(X, Y) & Y < 3.
		d(X, Y) :- b2(X, Y) & Y > 5.
	`)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := s.QueryUnion(u)
	if err != nil {
		t.Fatal(err)
	}
	got := stream.Drain("got")
	want, err := caql.EvalUnion(u, src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("union wrong:\ngot %v\nwant %v", got.Sort(), want.Sort())
	}
	// Branches are cached individually: re-running the union is local.
	before := cms.Stats().RemoteRequests
	stream, _ = s.QueryUnion(u)
	stream.Drain("again")
	if cms.Stats().RemoteRequests != before {
		t.Fatal("union re-run should be cache-served")
	}
	// Invalid unions propagate errors.
	if _, err := s.QueryUnion(&caql.Union{}); err == nil {
		t.Fatal("empty union should error")
	}
}

func TestQueryAgg(t *testing.T) {
	e, src := fixtureEngine(t, 62, 40)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	a := &caql.AggQuery{
		Inner:   caql.MustParse("d(X, Y) :- b2(X, Y)"),
		GroupBy: []int{0},
		Specs:   []relation.AggSpec{{Op: relation.AggCount, Col: -1}, {Op: relation.AggMax, Col: 1}},
	}
	stream, err := s.QueryAgg(a)
	if err != nil {
		t.Fatal(err)
	}
	got := stream.Drain("got")
	want, err := caql.EvalAgg(a, src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("agg wrong:\ngot %v\nwant %v", got.Sort(), want.Sort())
	}
	bad := &caql.AggQuery{Inner: a.Inner, GroupBy: []int{9}}
	if _, err := s.QueryAgg(bad); err == nil {
		t.Fatal("out-of-range group-by should error")
	}
}

func TestQueryFixpoint(t *testing.T) {
	// A small graph with a cycle: edges 1->2->3->1, 3->4.
	e := newEngineWithEdges(t, [][2]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}})
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	q := caql.MustParse("r(X, Y) :- edge(X, Y)")
	stream, err := s.QueryFixpoint(q)
	if err != nil {
		t.Fatal(err)
	}
	got := stream.Drain("tc")
	// TC: from each of 1,2,3 you reach {1,2,3,4} = 12 pairs; from 4 nothing.
	if got.Len() != 12 {
		t.Fatalf("closure size = %d, want 12: %v", got.Len(), got.Sort())
	}
	// Memoized: second call adds no remote requests and is a cache hit.
	before := cms.Stats()
	stream, _ = s.QueryFixpoint(q.Clone())
	stream.Drain("tc2")
	after := cms.Stats()
	if after.RemoteRequests != before.RemoteRequests {
		t.Fatal("memoized fixpoint should not refetch")
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Fatal("memoized fixpoint should count as a hit")
	}
	// Non-binary views are rejected.
	if _, err := s.QueryFixpoint(caql.MustParse("r(X) :- edge(X, Y)")); err == nil {
		t.Fatal("non-binary fixpoint should error")
	}
}

func TestQueryFixpointRestricted(t *testing.T) {
	// The closure of a *view* (not just a base relation): only edges with
	// weight under 10 participate.
	e := newEngineWithWeightedEdges(t, [][3]int64{
		{1, 2, 5}, {2, 3, 5}, {3, 4, 50}, // heavy edge breaks the chain
	})
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()
	q := caql.MustParse("r(X, Y) :- wedge(X, Y, W) & W < 10")
	stream, err := s.QueryFixpoint(q)
	if err != nil {
		t.Fatal(err)
	}
	got := stream.Drain("tc")
	// 1->2, 2->3, 1->3 only.
	if got.Len() != 3 {
		t.Fatalf("restricted closure = %v", got.Sort())
	}
}

func newEngineWithEdges(t *testing.T, edges [][2]int64) *remotedb.Engine {
	t.Helper()
	e := remotedb.NewEngine()
	rel := relation.New("edge", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindInt}))
	for _, ed := range edges {
		rel.MustAppend(relation.Tuple{relation.Int(ed[0]), relation.Int(ed[1])})
	}
	e.LoadTable(rel)
	return e
}

func newEngineWithWeightedEdges(t *testing.T, edges [][3]int64) *remotedb.Engine {
	t.Helper()
	e := remotedb.NewEngine()
	rel := relation.New("wedge", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindInt},
		relation.Attr{Name: "w", Kind: relation.KindInt}))
	for _, ed := range edges {
		rel.MustAppend(relation.Tuple{relation.Int(ed[0]), relation.Int(ed[1]), relation.Int(ed[2])})
	}
	e.LoadTable(rel)
	return e
}
