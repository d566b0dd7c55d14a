package cache

import (
	"testing"
	"time"

	"repro/internal/caql"
	"repro/internal/remotedb"
)

// killServer starts a server for the fixture engine whose listener severs
// every streamed result after two response frames: every remote fetch is
// truncated mid-relation unless the client repairs it.
func killServer(t *testing.T, seed int64) (*remotedb.Server, string, caql.MapSource) {
	t.Helper()
	engine, src := fixtureEngine(t, seed, 25)
	srv := remotedb.NewServerWithOptions(engine, remotedb.ServerOptions{
		FrameTuples: 4,
		Faults:      &remotedb.ListenerFaults{Seed: seed, StreamKillRate: 1.0, StreamKillAfter: 2},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, src
}

// TestStreamKillNeverCachesTruncatedResult: a fetch whose stream dies
// mid-flight must fail the QUERY — never install the delivered prefix as a
// cache element. A truncated relation in the cache would silently answer
// every later exact match and subsumption probe with missing tuples, which is
// strictly worse than the failure it hides.
func TestStreamKillNeverCachesTruncatedResult(t *testing.T) {
	srv, addr, src := killServer(t, 83)
	// A plain pooled client: no ResilientClient, so a dead stream stays dead
	// and the fetch error must propagate through the cache layer.
	pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:        1,
		FrameTuples: 4,
		Costs:       remotedb.DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cms := New(pool, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	const q = `q(X, Y) :- b2(X, Y)`
	if _, err := s.QueryText(q); err == nil {
		t.Fatal("query over a killed stream must fail, not answer from a truncated fetch")
	}
	if st := cms.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("dispatch accounting after truncated fetch: %+v", st)
	}

	// Swap the hostile listener for a healthy one on the same address (the
	// pool redials) and re-issue the SAME query: it must go remote and return
	// the full relation. If the truncated prefix had been cached, this would
	// be an exact cache hit with missing tuples instead.
	srv.Close()
	engineBack, _ := fixtureEngineFromSource(t, src)
	srv2 := remotedb.NewServer(engineBack)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	time.Sleep(20 * time.Millisecond)

	got := drainQ(t, s, q)
	want, err := caql.Eval(caql.MustParse(q), src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("post-recovery answer wrong: got %d tuples, want %d (truncated result cached?)",
			got.Len(), want.Len())
	}
	if st := cms.Stats(); st.CacheHits != 0 || st.ExactHits != 0 {
		t.Fatalf("the re-query hit the cache — a failed fetch left an element behind: %+v", st)
	}
}

// TestStreamKillRepairedFetchIsCacheable is the positive control: the SAME
// hostile listener, but with the resilient layer in place — the fetch is
// repaired mid-flight, the query answers correctly, and the (complete) result
// is cached like any other.
func TestStreamKillRepairedFetchIsCacheable(t *testing.T) {
	_, addr, src := killServer(t, 83)
	pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:        2,
		FrameTuples: 4,
		Costs:       remotedb.DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := remotedb.NewResilientClient(pool, remotedb.Resilience{
		JitterSeed:      83,
		MaxRetries:      50,
		BreakerFailures: -1,
		BaseBackoff:     200 * time.Microsecond,
		MaxBackoff:      2 * time.Millisecond,
	})
	cms := New(rc, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	const q = `q(X, Y) :- b2(X, Y)`
	got := drainQ(t, s, q)
	want, err := caql.Eval(caql.MustParse(q), src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("repaired fetch answer wrong: got %d tuples, want %d", got.Len(), want.Len())
	}
	st := cms.Stats()
	if st.StreamResumes == 0 {
		t.Fatalf("kill-everything listener but no resumes recorded: %+v", st)
	}
	// The repeat is an exact cache hit: the repaired result was complete and
	// cacheable.
	again := drainQ(t, s, q)
	if !again.EqualAsSet(want) {
		t.Fatal("cached repeat answer wrong")
	}
	if st := cms.Stats(); st.CacheHits == 0 {
		t.Fatalf("repeat did not hit the cache: %+v", st)
	}
}
