package cache

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// newResilientTCPCMS builds a CMS over ResilientClient(PoolClient-with-redial)
// against a live server for the fixture engine, returning the CMS and the
// server's address for restarts.
func newResilientTCPCMS(t *testing.T, seed int64) (*CMS, *remotedb.Server, string, caql.MapSource) {
	t.Helper()
	engine, src := fixtureEngine(t, seed, 25)
	srv := remotedb.NewServer(engine)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	costs := remotedb.DefaultCosts()
	tcp, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:           1,
		Costs:          costs,
		DialTimeout:    500 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := remotedb.NewResilientClient(tcp, remotedb.Resilience{
		MaxRetries:      1,
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      5 * time.Millisecond,
		BreakerFailures: 1,
		BreakerCooldown: 100 * time.Millisecond,
	})
	cms := New(rc, Options{Features: AllFeatures(), Costs: costs})
	return cms, srv, addr, src
}

// TestDegradedCacheOnlyThenRecovery is the end-to-end fault story: kill the
// server mid-session, verify cached/subsumable queries still answer
// (degraded mode), verify remote-needing queries fail fast with the typed
// ErrRemoteUnavailable, then restart the server and verify the SAME session
// recovers without a new BeginSession.
func TestDegradedCacheOnlyThenRecovery(t *testing.T) {
	cms, srv, addr, src := newResilientTCPCMS(t, 81)
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	// Warm the cache over the live server.
	warm := `q(X, Y) :- b2(X, Y)`
	got := drainQ(t, s, warm)
	want, err := caql.Eval(caql.MustParse(warm), src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatal("warm answer wrong")
	}
	// Also warm a b3 slice so a subsumable variant is answerable later, and
	// so b3's schema is in the RDI schema cache.
	warm3 := `r(X, Z) :- b3(X, "a", Z)`
	drainQ(t, s, warm3)

	// ---- Kill the server mid-session. ----
	srv.Close()

	// A query that truly needs the remote fails fast with the typed error.
	start := time.Now()
	_, err = s.QueryText(`miss(X, Z) :- b3(X, "b", Z)`)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("remote-needing query should fail with the server down")
	}
	if !errors.Is(err, remotedb.ErrRemoteUnavailable) {
		t.Fatalf("want ErrRemoteUnavailable, got %v", err)
	}
	if elapsed > 8*time.Second {
		t.Fatalf("failure took %v; deadlines did not bound it", elapsed)
	}
	if cms.rdi.Available() {
		t.Fatal("CMS should report degraded after the remote failure")
	}

	// Previously cached queries still answer, from the cache, while down.
	remoteBefore := cms.Stats().RemoteRequests
	got = drainQ(t, s, warm) // exact repeat
	if !got.EqualAsSet(want) {
		t.Fatal("degraded exact-hit answer wrong")
	}
	// A strictly narrower query is served via subsumption from the cached
	// b3 slice — no remote round trip.
	sub := drainQ(t, s, `rs(Z) :- b3(1, "a", Z)`)
	wantSub, err := caql.Eval(caql.MustParse(`rs(Z) :- b3(1, "a", Z)`), src)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.EqualAsSet(wantSub) {
		t.Fatal("degraded subsumption answer wrong")
	}
	st := cms.Stats()
	if st.RemoteRequests != remoteBefore {
		t.Fatal("degraded hits must not issue remote requests")
	}
	if st.DegradedHits < 2 {
		t.Fatalf("DegradedHits = %d, want >= 2", st.DegradedHits)
	}
	if st.RemoteFailures == 0 {
		t.Fatal("RemoteFailures should count the failed fetch")
	}
	if st.BreakerOpens == 0 {
		t.Fatal("breaker should have opened")
	}

	// Fail-fast: with the breaker open, a remote-needing query errors
	// immediately (no dial/deadline wait).
	start = time.Now()
	if _, err := s.QueryText(`miss2(X, Z) :- b3(X, "c", Z)`); !errors.Is(err, remotedb.ErrRemoteUnavailable) {
		t.Fatalf("want fail-fast ErrRemoteUnavailable, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("open breaker did not fail fast")
	}

	// ---- Restart the server on the same address. ----
	engineBack, _ := fixtureEngineFromSource(t, src)
	srv2 := remotedb.NewServer(engineBack)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	time.Sleep(150 * time.Millisecond) // let the breaker cooldown elapse

	// The SAME session recovers: the half-open probe redials and succeeds.
	rec := drainQ(t, s, `miss(X, Z) :- b3(X, "b", Z)`)
	wantRec, err := caql.Eval(caql.MustParse(`miss(X, Z) :- b3(X, "b", Z)`), src)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.EqualAsSet(wantRec) {
		t.Fatal("post-recovery answer wrong")
	}
	if !cms.rdi.Available() {
		t.Fatal("CMS should leave degraded mode after recovery")
	}
}

// fixtureEngineFromSource loads the fixture relations into a fresh engine
// (the "restarted server" has the same database).
func fixtureEngineFromSource(t *testing.T, src caql.MapSource) (*remotedb.Engine, caql.MapSource) {
	t.Helper()
	e := remotedb.NewEngine()
	for _, r := range src {
		e.LoadTable(r)
	}
	return e, src
}

// opCountingClient counts how many times each remote op reaches the wrapped
// client (placed between ResilientClient and the transport, it sees exactly
// the requests the CMS actually issued past the breaker).
type opCountingClient struct {
	remotedb.Client
	mu    sync.Mutex
	calls map[string]int
}

func (c *opCountingClient) note(op string) {
	c.mu.Lock()
	if c.calls == nil {
		c.calls = make(map[string]int)
	}
	c.calls[op]++
	c.mu.Unlock()
}

func (c *opCountingClient) count(op string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[op]
}

func (c *opCountingClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	c.note("schema:" + name)
	return c.Client.RelationSchema(name, arity)
}

// TestDegradedSuppressesSpeculativeWork: while the remote is down, the CMS
// must not burn breaker probes on speculative work — prefetch of follower
// views and eager query generalization are suppressed; only demand queries
// touch the remote path (and fail fast there).
func TestDegradedSuppressesSpeculativeWork(t *testing.T) {
	engine, _ := fixtureEngine(t, 82, 20)
	costs := remotedb.DefaultCosts()
	fc := remotedb.NewFaultClient(remotedb.NewInProcClient(engine, costs), remotedb.FaultConfig{Seed: 3})
	counter := &opCountingClient{Client: fc}
	rc := remotedb.NewResilientClient(counter, remotedb.Resilience{
		MaxRetries:      -1,
		BreakerFailures: 1,
		BreakerCooldown: time.Minute,
		Sleep:           func(time.Duration) {},
	})
	cms := New(rc, Options{Features: AllFeatures(), Costs: costs, ThinkTimeMS: 10})
	// d3's base relation does not exist, so its prefetch is attempted on
	// every d2 answer (nothing ever gets cached for it) — a per-query probe
	// of whether the CMS still speculates.
	adv := advice.MustParse(`
		view d2(X^, Y?) :- b2(X, Y).
		view d3(Z^, Y?) :- nosuch(Y, Z).
		path (d2(X^, Y?), d3(Z^, Y?))<1,1>.
	`)
	s := cms.BeginSession(adv).(*Session)
	defer s.End()

	// Healthy: each d2 answer attempts the follower prefetch (visible as a
	// schema lookup for the missing base relation).
	drainQ(t, s, `d2(X, 1) :- b2(X, 1)`)
	s.waitPrefetches() // prefetches are asynchronous; let the probe land
	if counter.count("schema:nosuch") == 0 {
		t.Fatal("healthy session should attempt the follower prefetch")
	}
	drainQ(t, s, `d2(X, 1) :- b2(X, 1)`) // exact repeat: hit + prefetch attempt
	s.waitPrefetches()
	healthyProbes := counter.count("schema:nosuch")
	if healthyProbes < 2 {
		t.Fatalf("nosuch schema probes = %d, want >= 2", healthyProbes)
	}

	// Take the remote down and trip the breaker with a demand query.
	fc.SetDown(true)
	if _, err := s.QueryText(`nope(X, Z) :- b3(X, "zz", Z)`); err == nil {
		t.Fatal("expected failure with remote down")
	}
	if cms.rdi.Available() {
		t.Fatal("should be degraded")
	}

	// A cached query while degraded: answered as a DegradedHit, with NO
	// speculative breaker traffic (no fast-fails beyond what the demand
	// queries cause) and nothing reaching the transport.
	ff0 := rc.ResilienceStats().FastFails
	drainQ(t, s, `d2(X, 1) :- b2(X, 1)`)
	if got := rc.ResilienceStats().FastFails; got != ff0 {
		t.Fatalf("prefetch not suppressed: %d breaker fast-fails during a cache hit", got-ff0)
	}
	if counter.count("schema:nosuch") != healthyProbes {
		t.Fatal("prefetch reached the transport while degraded")
	}
	if cms.Stats().DegradedHits == 0 {
		t.Fatal("cached answer while degraded should count as DegradedHit")
	}

	// Generalization is likewise suppressed: sibling instances of the same
	// generalized form would normally trigger a wide eager fetch; while
	// degraded the second sibling costs exactly one fast-fail (the demand
	// fetch), not two (generalization + demand).
	if _, err := s.QueryText(`c1(X, Z) :- b3(X, "x", Z)`); err == nil {
		t.Fatal("demand query should fail while down")
	}
	ff1 := rc.ResilienceStats().FastFails
	if _, err := s.QueryText(`c2(X, Z) :- b3(X, "y", Z)`); err == nil {
		t.Fatal("sibling demand query should fail while down")
	}
	if got := rc.ResilienceStats().FastFails - ff1; got != 1 {
		t.Fatalf("sibling query caused %d breaker interactions, want 1 (generalization suppressed)", got)
	}
}
