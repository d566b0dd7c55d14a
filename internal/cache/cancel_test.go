package cache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// blockingClient wraps an inner client; ExecStream calls park until the
// context is canceled or release is closed, either always (arm) or only for
// context-bearing calls (blockCancelable — the shape of the prefetch path,
// which runs under the session context while demand queries may not carry a
// cancelable one).
type blockingClient struct {
	remotedb.Client
	entered chan struct{} // one token per parked call
	release chan struct{}

	mu              sync.Mutex
	armed           bool
	blockCancelable bool
}

func newBlockingClient(inner remotedb.Client) *blockingClient {
	return &blockingClient{Client: inner, entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingClient) arm() {
	b.mu.Lock()
	b.armed = true
	b.mu.Unlock()
}

func (b *blockingClient) ExecStream(ctx context.Context, sql string) (remotedb.TupleStream, error) {
	b.mu.Lock()
	block := b.armed || (b.blockCancelable && ctx.Done() != nil)
	b.mu.Unlock()
	if block {
		b.entered <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, &remotedb.TransportError{Op: "exec", Err: ctx.Err()}
		case <-b.release:
		}
	}
	return b.Client.ExecStream(ctx, sql)
}

// TestCancelMidLazyGenerator cancels the caller's context while a lazy
// (generator-backed) answer is being consumed: the stream must stop within
// one checkpoint interval and report the typed cancellation, never a silently
// truncated result.
func TestCancelMidLazyGenerator(t *testing.T) {
	e := remotedb.NewEngine()
	b2 := relation.New("b2", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindInt},
		relation.Attr{Name: "y", Kind: relation.KindInt}))
	for i := 0; i < 300; i++ {
		b2.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i))})
	}
	e.LoadTable(b2)
	adv := advice.MustParse(`view dp(X^, Y^) :- b2(X, Y).`)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(adv).(*Session)
	defer s.End()

	drainQ(t, s, "dp(X, Y) :- b2(X, Y)") // load and cache the view
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := s.QueryCtx(ctx, caql.MustParse("dp(X, Y) :- b2(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Lazy() {
		t.Fatal("strict-producer cached answer should be lazy")
	}
	if got := len(st.Take(10)); got != 10 {
		t.Fatalf("took %d tuples before cancel", got)
	}
	cancel()
	extra := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		extra++
	}
	if extra >= relation.DefaultGuardEvery {
		t.Fatalf("stream emitted %d tuples after cancel, want < %d (one checkpoint interval)",
			extra, relation.DefaultGuardEvery)
	}
	if 10+extra >= 300 {
		t.Fatal("stream ran to completion; cancellation had no effect")
	}
	if err := st.Err(); !errors.Is(err, bridge.ErrCanceled) {
		t.Fatalf("stream error = %v, want bridge.ErrCanceled", err)
	}
}

// TestSessionEndPoisonsLazyStream checks the session-lifetime half of the
// guard: ending the session stops its outstanding lazy streams with the
// typed cancellation.
func TestSessionEndPoisonsLazyStream(t *testing.T) {
	e, _ := fixtureEngine(t, 7, 200)
	adv := advice.MustParse(`view dp(X^, Y^) :- b2(X, Y).`)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(adv).(*Session)

	drainQ(t, s, "dp(X, Y) :- b2(X, Y)")
	st, err := s.QueryText("dp(X, Y) :- b2(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Lazy() {
		t.Fatal("expected a lazy stream")
	}
	s.End()
	if _, ok := st.Next(); ok {
		t.Fatal("stream yielded a tuple after the session ended")
	}
	if err := st.Err(); !errors.Is(err, bridge.ErrCanceled) {
		t.Fatalf("stream error = %v, want bridge.ErrCanceled", err)
	}
}

// TestLazyAnswersKeepTheirOwnContexts: one session holds two lazy answers,
// a cached strict-producer hit and a remote stream, each opened under its
// own caller context. Canceling one context stops that answer within one
// checkpoint interval with the typed cancellation; the other answer reads to
// its end.
func TestLazyAnswersKeepTheirOwnContexts(t *testing.T) {
	const rows = 300
	e := remotedb.NewEngine()
	for _, name := range []string{"b1", "b2"} {
		r := relation.New(name, relation.NewSchema(
			relation.Attr{Name: "x", Kind: relation.KindInt},
			relation.Attr{Name: "y", Kind: relation.KindInt}))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i))})
		}
		e.LoadTable(r)
	}
	const hitQ, remoteQ = "dp(X, Y) :- b2(X, Y)", "dr(X, Y) :- b1(X, Y)"
	// The path ends at dr, so dr predicts no reuse and is not cached: its
	// answer is a lazy remote stream.
	const adv = `
		view dp(X^, Y^) :- b2(X, Y).
		view dr(X^, Y^) :- b1(X, Y).
		path (dp(X^, Y^), dr(X^, Y^))<1,1>.
	`
	count := func(st *bridge.Stream) (n int) {
		for ; ; n++ {
			if _, ok := st.Next(); !ok {
				return n
			}
		}
	}
	for _, cancelHit := range []bool{true, false} {
		f := AllFeatures()
		f.Prefetch = false // dr must reach the remote, not a prefetched element
		cms := newCMS(t, e, Options{Features: f})
		warm := cms.BeginSession(advice.MustParse(`view dp(X^, Y^) :- b2(X, Y).`)).(*Session)
		drainQ(t, warm, hitQ) // cache dp for the next session
		warm.End()

		s := cms.BeginSession(advice.MustParse(adv)).(*Session)
		hitCtx, stopHit := context.WithCancel(context.Background())
		remoteCtx, stopRemote := context.WithCancel(context.Background())
		hits := cms.Stats().CacheHits
		hit, err := s.QueryCtx(hitCtx, caql.MustParse(hitQ))
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Lazy() || cms.Stats().CacheHits != hits+1 {
			t.Fatalf("dp: lazy %v, cache hits %d → %d; want a lazy cache hit", hit.Lazy(), hits, cms.Stats().CacheHits)
		}
		remote, err := s.QueryCtx(remoteCtx, caql.MustParse(remoteQ))
		if err != nil {
			t.Fatal(err)
		}
		if !remote.Lazy() || cms.Stats().CacheHits != hits+1 {
			t.Fatalf("dr: lazy %v, cache hits %d; want a lazy remote answer", remote.Lazy(), cms.Stats().CacheHits)
		}
		for _, st := range []*bridge.Stream{hit, remote} {
			if got := len(st.Take(10)); got != 10 {
				t.Fatalf("took %d tuples before cancel", got)
			}
		}
		canceled, other := hit, remote
		if cancelHit {
			stopHit()
		} else {
			stopRemote()
			canceled, other = remote, hit
		}
		if extra := count(canceled); extra >= relation.DefaultGuardEvery {
			t.Fatalf("hit canceled %v: the canceled answer emitted %d tuples after cancel, want < %d",
				cancelHit, extra, relation.DefaultGuardEvery)
		}
		if err := canceled.Err(); !errors.Is(err, bridge.ErrCanceled) {
			t.Fatalf("hit canceled %v: canceled answer error = %v, want bridge.ErrCanceled", cancelHit, err)
		}
		if rest := count(other); other.Err() != nil || 10+rest != rows {
			t.Fatalf("hit canceled %v: the other answer read %d of %d tuples, err %v", cancelHit, 10+rest, rows, other.Err())
		}
		stopHit()
		stopRemote()
		s.End()
		if st := cms.Stats(); !st.DispatchConserved() {
			t.Fatalf("conservation violated: %+v", st)
		}
	}
}

// TestDeadlineDuringRemoteKeepsBreakerClosed expires a caller deadline while
// the remote call is parked: the query must fail with the typed deadline
// error, and — critically — the cancellation must not move the circuit
// breaker, whose verdicts are about remote health, not caller patience.
func TestDeadlineDuringRemoteKeepsBreakerClosed(t *testing.T) {
	e, _ := fixtureEngine(t, 3, 20)
	costs := remotedb.DefaultCosts()
	blocking := newBlockingClient(remotedb.NewInProcClient(e, costs))
	rc := remotedb.NewResilientClient(blocking, remotedb.Resilience{})
	cms := New(rc, Options{Costs: costs})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	blocking.arm()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := s.QueryCtx(ctx, caql.MustParse("q(X, Y) :- b2(X, Y)"))
	if !errors.Is(err, bridge.ErrDeadlineExceeded) {
		t.Fatalf("query error = %v, want bridge.ErrDeadlineExceeded", err)
	}
	st := cms.Stats()
	if st.DeadlineExceeded != 1 {
		t.Fatalf("DeadlineExceeded = %d, want 1 (%+v)", st.DeadlineExceeded, st)
	}
	if st.BreakerOpens != 0 || !rc.Available() {
		t.Fatalf("caller deadline moved the breaker: opens=%d available=%v", st.BreakerOpens, rc.Available())
	}
	if !cms.rdi.Available() {
		t.Fatal("caller deadline marked the CMS degraded")
	}
	if !st.DispatchConserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
}

// TestBreakerOpenFailsFastUnderDeadline opens the breaker with real remote
// failures, then checks a deadline-bearing query fails fast as a remote
// failure — well before its deadline, and not misclassified as one.
func TestBreakerOpenFailsFastUnderDeadline(t *testing.T) {
	e, _ := fixtureEngine(t, 3, 20)
	costs := remotedb.DefaultCosts()
	fc := remotedb.NewFaultClient(remotedb.NewInProcClient(e, costs),
		remotedb.FaultConfig{Seed: 1, ErrorRate: 1})
	rc := remotedb.NewResilientClient(fc, remotedb.Resilience{
		MaxRetries:      -1,
		BreakerFailures: 1,
		BreakerCooldown: time.Hour,
		Sleep:           func(time.Duration) {},
	})
	cms := New(rc, Options{Costs: costs})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	if _, err := s.Query(caql.MustParse("q(X, Y) :- b2(X, Y)")); err == nil {
		t.Fatal("query against an always-failing remote succeeded")
	}
	if rc.Available() { // the breaker is closed or half-open, not open for its hour
		t.Fatal("breaker not open after an always-failing remote")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := s.QueryCtx(ctx, caql.MustParse("q2(X, Y) :- b2(X, Y)"))
	if err == nil || errors.Is(err, bridge.ErrDeadlineExceeded) {
		t.Fatalf("open-breaker fast-fail returned %v, want a non-deadline remote failure", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("open breaker took %v to fail, want fast", d)
	}
	st := cms.Stats()
	if st.Failed != 2 || !st.DispatchConserved() {
		t.Fatalf("outcome accounting wrong: %+v", st)
	}
}

// TestEndCancelsInflightPrefetches is the Session.End regression test: End
// must cancel the session context so a prefetch parked in a remote call
// aborts promptly, instead of End blocking on it indefinitely.
func TestEndCancelsInflightPrefetches(t *testing.T) {
	e, _ := fixtureEngine(t, 5, 40)
	costs := remotedb.DefaultCosts()
	blocking := newBlockingClient(remotedb.NewInProcClient(e, costs))
	blocking.blockCancelable = true // demand queries pass; prefetches (session ctx) park
	cms := New(blocking, Options{Features: AllFeatures(), Costs: costs, ThinkTimeMS: 1000})
	s := cms.BeginSession(advice.MustParse(example1Advice)).(*Session)

	drainQ(t, s, `d1(Y) :- b1("a", Y)`)
	drainQ(t, s, `d2(X, 3) :- b2(X, Z) & b3(Z, "a", 3)`) // enqueues the d3 prefetch
	<-blocking.entered                                   // the prefetch is parked in its remote call

	done := make(chan struct{})
	go func() {
		s.End()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("End did not return: session cancellation never reached the parked prefetch")
	}
	st := cms.Stats()
	if st.Prefetches != 0 {
		t.Fatalf("aborted prefetch was counted as issued: %+v", st)
	}
	if st.PanicsRecovered != 0 {
		t.Fatalf("prefetch abort recovered a panic: %+v", st)
	}
}

// TestQueryPanicIsolated checks panic isolation on the query path: a client
// panic fails that one query with a descriptive error, is counted, and the
// session keeps serving.
func TestQueryPanicIsolated(t *testing.T) {
	e, _ := fixtureEngine(t, 6, 20)
	costs := remotedb.DefaultCosts()
	cms := New(&panicOnceClient{Client: remotedb.NewInProcClient(e, costs)}, Options{Costs: costs})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	_, err := s.Query(caql.MustParse("q(X, Y) :- b2(X, Y)"))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking query returned %v, want a panic-describing error", err)
	}
	if _, err := s.Query(caql.MustParse("q2(X, Y) :- b2(X, Y)")); err != nil {
		t.Fatalf("session did not survive the panic: %v", err)
	}
	st := cms.Stats()
	if st.PanicsRecovered != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("panic accounting wrong: %+v", st)
	}
	if !st.DispatchConserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
}

// panicOnceClient panics on the first exec and behaves normally after.
type panicOnceClient struct {
	remotedb.Client
	panicked bool
}

func (p *panicOnceClient) ExecStream(ctx context.Context, sql string) (remotedb.TupleStream, error) {
	if !p.panicked {
		p.panicked = true
		panic("injected: exec blew up")
	}
	return p.Client.ExecStream(ctx, sql)
}

// TestDecompositionPanicIsolated: with Parallel on, a decomposed query's
// remote residual runs on a helper goroutine beside the local pieces. A panic
// in that fetch is relayed to the query's goroutine and isolated there like
// any other: the query fails, the process and the session survive.
func TestDecompositionPanicIsolated(t *testing.T) {
	e, _ := fixtureEngine(t, 8, 20)
	costs := remotedb.DefaultCosts()
	client := panicOnTableClient{Client: remotedb.NewInProcClient(e, costs), table: "b2"}
	cms := New(client, Options{Features: AllFeatures(), Costs: costs})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	drainQ(t, s, "c1(X, Y) :- b1(X, Y)") // b1 cached: the join decomposes
	_, err := s.QueryText("q2(X, Z) :- b1(X, Y) & b2(Y, Z)")
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("query whose residual fetch panicked returned %v, want a panic-describing error", err)
	}
	drainQ(t, s, "c1(X, Y) :- b1(X, Y)")
	st := cms.Stats()
	if st.PanicsRecovered != 1 || st.Failed != 1 || st.Completed != 2 {
		t.Fatalf("panic accounting wrong: %+v", st)
	}
	if !st.DispatchConserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
}

// panicOnTableClient panics on every exec whose SQL reads table.
type panicOnTableClient struct {
	remotedb.Client
	table string
}

func (p panicOnTableClient) ExecStream(ctx context.Context, sql string) (remotedb.TupleStream, error) {
	if strings.Contains(sql, p.table) {
		panic("injected: exec of " + p.table + " blew up")
	}
	return p.Client.ExecStream(ctx, sql)
}
