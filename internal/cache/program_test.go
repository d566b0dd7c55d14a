package cache

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// TestQueryTextUnion: a text of two clauses over base relations is their union,
// answered as caql.RunProgram answers it over the same rows.
func TestQueryTextUnion(t *testing.T) {
	e, src := fixtureEngine(t, 61, 40)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	const text = `
		d(X, Y) :- b2(X, Y) & Y < 3.
		d(X, Y) :- b2(X, Y) & Y > 5.
	`
	stream, err := s.QueryText(text)
	if err != nil {
		t.Fatal(err)
	}
	got := stream.Drain("got")
	prog, err := caql.ParseProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := caql.RunProgram(context.Background(), prog, func(q *caql.Query) (*relation.Relation, error) {
		return caql.Eval(q, src)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("union wrong:\ngot %v\nwant %v", got.Sort(), want.Sort())
	}
	// Branches are cached individually: re-running the union is local.
	before := cms.Stats().RemoteRequests
	stream, _ = s.QueryText(text)
	stream.Drain("again")
	if cms.Stats().RemoteRequests != before {
		t.Fatal("union re-run should be cache-served")
	}
	// Invalid unions propagate errors.
	if _, err := s.QueryText(""); err == nil {
		t.Fatal("empty union should error")
	}
}

// closureOf is the program whose answer is tc, the transitive closure of
// view, a view named r: the least fixpoint of r ∪ (tc ∘ r).
func closureOf(view string) string {
	return view + ".\ntc(X, Y) :- r(X, Y).\ntc(X, Y) :- tc(X, Z) & r(Z, Y)."
}

// TestQueryTextClosure: the closure of a view is a program of three clauses,
// the view asked as a query and the closure run on caql.Fixpoint.
func TestQueryTextClosure(t *testing.T) {
	// A small graph with a cycle: edges 1->2->3->1, 3->4.
	e := newEngineWithEdges(t, [][2]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}})
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	text := closureOf("r(X, Y) :- edge(X, Y)")
	stream, err := s.QueryText(text)
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
	stream, _ = s.QueryText(text)
	stream.Drain("tc2")
	after := cms.Stats()
	if after.RemoteRequests != before.RemoteRequests {
		t.Fatal("memoized fixpoint should not refetch")
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Fatal("memoized fixpoint should count as a hit")
	}
	// Non-binary views are rejected: the rules read r/2, which the program
	// does not define, so they would read a base relation. Nothing is asked.
	_, err = s.QueryText(closureOf("r(X) :- edge(X, Y)"))
	if err == nil || !strings.Contains(err.Error(), "base relation r/2") {
		t.Fatalf("non-binary fixpoint: got %v, want an error naming r/2", err)
	}
	if cms.Stats().Queries != after.Queries {
		t.Fatal("a program whose rule reads a base relation should ask nothing")
	}
}

func TestQueryTextClosureRestricted(t *testing.T) {
	// The closure of a *view* (not just a base relation): only edges with
	// weight under 10 participate.
	e := newEngineWithWeightedEdges(t, [][3]int64{
		{1, 2, 5}, {2, 3, 5}, {3, 4, 50}, // heavy edge breaks the chain
	})
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()
	stream, err := s.QueryText(closureOf("r(X, Y) :- wedge(X, Y, W) & W < 10"))
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

// TestQueryTextClosureChecksContext: the closure checks its context every
// round, after its base view has answered. A context canceled or expired
// there fails the closure with the typed error; an error the evaluator
// returns that is no context error comes back as it is.
func TestQueryTextClosureChecksContext(t *testing.T) {
	var chain [][2]int64
	for i := int64(0); i < 20; i++ {
		chain = append(chain, [2]int64{i, i + 1})
	}
	const r = "r(X, Y) :- edge(X, Y)"
	q, text := caql.MustParse(r), closureOf(r)
	fresh := func() *Session {
		return newCMS(t, newEngineWithEdges(t, chain), Options{Features: AllFeatures()}).BeginSession(nil).(*Session)
	}

	// How often the base view's query reads the context, and the closure.
	bg := context.Background()
	view, all := &flipCtx{Context: bg}, &flipCtx{Context: bg}
	s := fresh()
	if st, err := s.QueryCtx(view, q); err != nil {
		t.Fatal(err)
	} else if _, err := st.DrainErr("view"); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh().QueryTextCtx(all, text); err != nil {
		t.Fatal(err)
	}
	if rounds := all.calls.Load() - view.calls.Load(); rounds < 20 {
		t.Fatalf("the closure of a 20-edge chain read its context %d times past its base view, want once a round", rounds)
	}

	errBroken := errors.New("broken evaluator")
	for _, c := range []struct {
		after int64
		fail  error
		want  error
	}{
		{0, context.Canceled, bridge.ErrCanceled},
		{10, context.Canceled, bridge.ErrCanceled},
		{0, context.DeadlineExceeded, bridge.ErrDeadlineExceeded},
		{5, errBroken, errBroken},
	} {
		ctx := &flipCtx{Context: bg, after: view.calls.Load() + c.after, err: c.fail}
		stream, err := fresh().QueryTextCtx(ctx, text)
		if stream != nil || !errors.Is(err, c.want) {
			t.Fatalf("%v after %d rounds: got %v, %v; want %v", c.fail, c.after, stream, err, c.want)
		}
		if c.fail == errBroken && errors.Is(err, bridge.ErrCanceled) {
			t.Fatalf("an evaluator error came back as a cancellation: %v", err)
		}
	}
}

// flipCtx is a context whose Err returns nil for its first after calls and
// err from then on; it counts the calls.
type flipCtx struct {
	context.Context
	after int64
	err   error
	calls atomic.Int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after && c.err != nil {
		return c.err
	}
	return nil
}
