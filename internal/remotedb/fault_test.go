package remotedb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
)

// collectFaults runs n Execs against a freshly seeded FaultClient and
// returns which requests failed.
// breakerState is rc's breaker state, read under its lock.
func breakerState(rc *ResilientClient) BreakerState {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.state
}

func collectFaults(t *testing.T, seed int64, n int) []bool {
	t.Helper()
	e := newTestEngine(t)
	fc := NewFaultClient(NewInProcClient(e, DefaultCosts()), FaultConfig{
		Seed:      seed,
		ErrorRate: 0.3,
		DropRate:  0.1,
	})
	out := make([]bool, n)
	for i := range out {
		_, err := fc.Exec("SELECT * FROM dept")
		out[i] = err != nil
	}
	return out
}

func TestFaultClientDeterministic(t *testing.T) {
	a := collectFaults(t, 42, 200)
	b := collectFaults(t, 42, 200)
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault stream diverged at request %d", i)
		}
		if a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Fatalf("fault mix degenerate: %d/%d failed", failures, len(a))
	}
	c := collectFaults(t, 43, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestFaultClientDownAndTransience(t *testing.T) {
	e := newTestEngine(t)
	fc := NewFaultClient(NewInProcClient(e, DefaultCosts()), FaultConfig{Seed: 1})
	if _, err := fc.Exec("SELECT * FROM dept"); err != nil {
		t.Fatalf("no faults configured, exec should work: %v", err)
	}
	fc.SetDown(true)
	_, err := fc.Exec("SELECT * FROM dept")
	if err == nil {
		t.Fatal("down server should refuse")
	}
	if !IsTransient(err) || !IsUnavailable(err) {
		t.Fatalf("down error should be transient and unavailable: %v", err)
	}
	if _, err := fc.Tables(); err == nil {
		t.Fatal("all remote ops should fail while down")
	}
	fc.SetDown(false)
	if _, err := fc.Exec("SELECT * FROM dept"); err != nil {
		t.Fatalf("restart should restore service: %v", err)
	}
	if fc.Counts().Refusals != 2 {
		t.Fatalf("refusals = %d, want 2", fc.Counts().Refusals)
	}
}

func TestResilientAbsorbsTransientFaults(t *testing.T) {
	e := newTestEngine(t)
	fc := NewFaultClient(NewInProcClient(e, DefaultCosts()), FaultConfig{
		Seed:      7,
		ErrorRate: 0.25,
		DropRate:  0.05,
	})
	rc := NewResilientClient(fc, Resilience{
		MaxRetries:      6,
		BaseBackoff:     time.Microsecond,
		BreakerFailures: -1, // isolate retry behaviour
		Sleep:           func(time.Duration) {},
	})
	failed := 0
	for i := 0; i < 100; i++ {
		if _, err := rc.Exec("SELECT * FROM dept"); err != nil {
			failed++
		}
	}
	st := rc.ResilienceStats()
	if st.Retries == 0 {
		t.Fatal("expected retries under 30% fault rate")
	}
	// P(7 consecutive faults) ≈ 0.3^7; the deterministic seed yields none.
	if failed != 0 {
		t.Fatalf("%d requests failed despite 6 retries (retries=%d)", failed, st.Retries)
	}
	if got := fc.Counts(); got.Errors+got.Drops == 0 {
		t.Fatal("fault client injected nothing")
	}
}

func TestResilientSemanticErrorsPassThrough(t *testing.T) {
	e := newTestEngine(t)
	rc := NewResilientClient(NewInProcClient(e, DefaultCosts()), Resilience{
		MaxRetries: 5,
		Sleep:      func(time.Duration) {},
	})
	_, err := rc.Exec("SELECT * FROM missing")
	if err == nil {
		t.Fatal("unknown table should error")
	}
	if IsUnavailable(err) {
		t.Fatalf("semantic error misclassified as unavailability: %v", err)
	}
	st := rc.ResilienceStats()
	if st.Retries != 0 || st.Failures != 0 || st.BreakerOpens != 0 {
		t.Fatalf("semantic error should not touch retry/breaker counters: %+v", st)
	}
	if breakerState(rc) != BreakerClosed {
		t.Fatalf("breaker = %v, want closed", breakerState(rc))
	}
}

// flakyStub is a Client stub whose Exec fails with a transport error while
// failing is set, and counts calls that reach it. A call that finds hold set
// takes it, sends on it once it has arrived, and answers once it receives.
type flakyStub struct {
	mu      sync.Mutex
	failing bool
	calls   int
	hold    chan struct{}
}

func (s *flakyStub) Exec(string) (*Result, error) {
	s.mu.Lock()
	s.calls++
	hold := s.hold
	s.hold = nil
	s.mu.Unlock()
	if hold != nil {
		hold <- struct{}{}
		<-hold
	}
	s.mu.Lock()
	failing := s.failing
	s.mu.Unlock()
	if failing {
		return nil, &TransportError{Op: "exec", Err: errors.New("stub down")}
	}
	return &Result{SimMS: 1}, nil
}
func (s *flakyStub) set(failing bool) {
	s.mu.Lock()
	s.failing = failing
	s.mu.Unlock()
}

func (s *flakyStub) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func TestBreakerLifecycle(t *testing.T) {
	stub := &flakyStub{failing: true}
	now := time.Unix(0, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}
	tick := func(d time.Duration) {
		nowMu.Lock()
		now = now.Add(d)
		nowMu.Unlock()
	}
	rc := NewResilientClient(clientStub{stub}, Resilience{
		MaxRetries:      -1, // no retries: one attempt per request
		BreakerFailures: 2,
		BreakerCooldown: time.Second,
		Sleep:           func(time.Duration) {},
		Now:             clock,
	})

	// Two consecutive failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := rc.Exec("x"); !IsUnavailable(err) {
			t.Fatalf("request %d: want unavailable, got %v", i, err)
		}
	}
	if breakerState(rc) != BreakerOpen {
		t.Fatalf("breaker = %v, want open", breakerState(rc))
	}
	if rc.ResilienceStats().BreakerOpens != 1 {
		t.Fatalf("opens = %d, want 1", rc.ResilienceStats().BreakerOpens)
	}
	if rc.Available() {
		t.Fatal("open breaker inside cooldown should report unavailable")
	}

	// While open, requests fail fast without reaching the inner client.
	calls := stub.callCount()
	if _, err := rc.Exec("x"); !IsUnavailable(err) {
		t.Fatalf("want fail-fast unavailable, got %v", err)
	}
	if stub.callCount() != calls {
		t.Fatal("open breaker let a request through")
	}
	if rc.ResilienceStats().FastFails != 1 {
		t.Fatalf("fastFails = %d, want 1", rc.ResilienceStats().FastFails)
	}

	// After the cooldown a probe goes through; still failing -> reopen.
	tick(time.Second + time.Millisecond)
	if _, err := rc.Exec("x"); !IsUnavailable(err) {
		t.Fatalf("probe should fail: %v", err)
	}
	if stub.callCount() != calls+1 {
		t.Fatal("half-open should admit exactly one probe")
	}
	if breakerState(rc) != BreakerOpen || rc.ResilienceStats().BreakerOpens != 2 {
		t.Fatalf("failed probe should reopen: %v opens=%d", breakerState(rc), rc.ResilienceStats().BreakerOpens)
	}

	// Server recovers; after the next cooldown the probe closes the breaker.
	stub.set(false)
	tick(time.Second + time.Millisecond)
	if _, err := rc.Exec("x"); err != nil {
		t.Fatalf("recovered probe should succeed: %v", err)
	}
	if breakerState(rc) != BreakerClosed || !rc.Available() {
		t.Fatalf("breaker = %v, want closed and available", breakerState(rc))
	}
	if _, err := rc.Exec("x"); err != nil {
		t.Fatalf("closed breaker should serve normally: %v", err)
	}
}

// TestHalfOpenWaitsForProbe: a request that arrives while the half-open
// probe is in flight waits for the probe's verdict. It proceeds when the
// probe closes the breaker and fails fast, without reaching the remote, when
// the probe re-opens it; a request whose context ends first returns its
// context's error. Answering "probe in flight" at once failed a demand
// request beside a prefetch's probe although the server was back.
func TestHalfOpenWaitsForProbe(t *testing.T) {
	for _, recovered := range []bool{true, false} {
		stub := &flakyStub{failing: true}
		var now atomic.Int64
		rc := NewResilientClient(clientStub{stub}, Resilience{
			MaxRetries:      -1,
			BreakerFailures: 1,
			BreakerCooldown: time.Second,
			Sleep:           func(time.Duration) {},
			Now:             func() time.Time { return time.Unix(0, now.Load()) },
		})
		if _, err := rc.Exec("x"); !IsUnavailable(err) || breakerState(rc) != BreakerOpen {
			t.Fatalf("first failure: %v, breaker %v; want unavailable and open", err, breakerState(rc))
		}
		now.Store(int64(2 * time.Second))
		stub.set(!recovered)
		hold := make(chan struct{})
		stub.mu.Lock()
		stub.hold = hold
		stub.mu.Unlock()
		probe, beside := make(chan error, 1), make(chan error, 1)
		go func() { _, err := rc.Exec("x"); probe <- err }()
		<-hold // the probe has reached the remote
		go func() { _, err := rc.Exec("x"); beside <- err }()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := rc.ExecCtx(ctx, "x")
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("recovered %v: a request whose deadline passed while the probe was out returned %v", recovered, err)
		}
		select {
		case err := <-beside:
			t.Fatalf("recovered %v: a request beside the probe returned %v before the probe's verdict", recovered, err)
		case <-time.After(30 * time.Millisecond):
		}
		hold <- struct{}{}
		if err := <-probe; (err == nil) != recovered {
			t.Fatalf("recovered %v: the probe returned %v", recovered, err)
		}
		err = <-beside
		if recovered && (err != nil || stub.callCount() != 3) {
			t.Fatalf("the request beside a probe that closed the breaker returned %v after %d remote calls, want nil after 3", err, stub.callCount())
		}
		if !recovered && (!IsUnavailable(err) || stub.callCount() != 2) {
			t.Fatalf("the request beside a probe that re-opened the breaker returned %v after %d remote calls, want unavailable after 2", err, stub.callCount())
		}
	}
}

// TestResilientDeadlineCatchesHangs: a hung transport is bounded by its own
// RequestTimeout, whose transient deadline error is a remote failure — it
// opens the breaker, and the next call fails fast without touching the wire.
func TestResilientDeadlineCatchesHangs(t *testing.T) {
	srv := NewServerWithOptions(newTestEngine(t), ServerOptions{
		Faults: &ListenerFaults{Seed: 1, DelayRate: 1, Delay: 2 * time.Second},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 1, RequestTimeout: 30 * time.Millisecond})
	rc := NewResilientClient(p, Resilience{
		MaxRetries:      -1,
		BreakerFailures: 1,
		BreakerCooldown: time.Minute,
		Sleep:           func(time.Duration) {},
	})
	start := time.Now()
	_, err = rc.Exec("SELECT * FROM emp")
	elapsed := time.Since(start)
	if !IsUnavailable(err) || !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want unavailable wrapping deadline, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("RequestTimeout did not bound the hang: %v", elapsed)
	}
	st := rc.ResilienceStats()
	if st.Failures != 1 || st.BreakerOpens != 1 || breakerState(rc) != BreakerOpen {
		t.Fatalf("hang did not open the breaker: %+v", st)
	}
	// Breaker opened on the hang: the next call fails instantly.
	requests := p.Stats().Requests
	start = time.Now()
	if _, err := rc.Exec("SELECT * FROM emp"); !IsUnavailable(err) {
		t.Fatalf("want fail-fast, got %v", err)
	}
	if time.Since(start) > 10*time.Millisecond || p.Stats().Requests != requests {
		t.Fatal("fail-fast was not fast")
	}
}

// TestResilientFaultMatrix exercises the resilient client against every
// injected fault kind at once. Errors and drops are retried; latency spikes
// pass; hangs run into the caller's per-request deadline, which is the
// caller's verdict — neither retried nor counted as a remote failure.
func TestResilientFaultMatrix(t *testing.T) {
	e := newTestEngine(t)
	fc := NewFaultClient(NewInProcClient(e, DefaultCosts()), FaultConfig{
		Seed:        99,
		ErrorRate:   0.15,
		DropRate:    0.05,
		HangRate:    0.05,
		HangFor:     300 * time.Millisecond,
		LatencyRate: 0.2,
		Latency:     time.Millisecond,
	})
	rc := NewResilientClient(fc, Resilience{
		MaxRetries:      5,
		BaseBackoff:     time.Microsecond,
		BreakerFailures: -1,
		Sleep:           func(time.Duration) {},
	})
	unavailable, deadlines := 0, 0
	for i := 0; i < 60; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
		start := time.Now()
		_, err := rc.ExecCtx(ctx, "SELECT * FROM emp")
		cancel()
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded):
			deadlines++
		case IsUnavailable(err):
			unavailable++
		default:
			t.Fatalf("request %d: unexpected error class: %v", i, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("request %d took %v despite its deadline", i, d)
		}
	}
	st := rc.ResilienceStats()
	counts := fc.Counts()
	if counts.Errors == 0 || counts.Latencies == 0 || counts.Hangs == 0 {
		t.Fatalf("fault mix not exercised: %+v", counts)
	}
	if int64(deadlines) < counts.Hangs {
		t.Fatalf("%d hangs injected but only %d requests ended at their deadline", counts.Hangs, deadlines)
	}
	if st.Failures != int64(unavailable) {
		t.Fatalf("breaker failures %d, want the %d unavailable requests only (%d caller deadlines)",
			st.Failures, unavailable, deadlines)
	}
	if st.Retries == 0 {
		t.Fatal("no retries under a 25% fault rate")
	}
	if unavailable > 5 {
		t.Fatalf("%d/60 failed despite retries (stats %+v)", unavailable, st)
	}
}

// clientStub adapts flakyStub (which only implements Exec meaningfully) to
// the full Client interface.
type clientStub struct{ s *flakyStub }

func (c clientStub) Exec(sql string) (*Result, error) { return c.s.Exec(sql) }
func (c clientStub) ExecCtx(_ context.Context, sql string) (*Result, error) {
	return c.s.Exec(sql)
}
func (c clientStub) ExecStream(context.Context, string) (TupleStream, error) {
	return nil, errors.New("unused")
}
func (c clientStub) ExecStreamResume(context.Context, string, string, int64) (TupleStream, error) {
	return nil, errors.New("unused")
}
func (c clientStub) ObservedEpoch() uint64 { return 0 }
func (c clientStub) RelationSchema(string, int) (*relation.Schema, error) {
	return nil, errors.New("unused")
}
func (c clientStub) TableStats(string) (TableStats, error) { return TableStats{}, nil }
func (c clientStub) Tables() ([]string, error)             { return nil, nil }
func (c clientStub) Stats() Stats                          { return Stats{} }
func (c clientStub) Close() error                          { return nil }
