package remotedb

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/relation"
)

// ResilientClient wraps any Client with the fault-tolerance policy the CMS
// relies on: per-request deadlines, bounded retries with exponential backoff
// and jitter for transient (transport) failures, and a circuit breaker that
// converts a persistently failing remote into instant typed
// ErrRemoteUnavailable failures — so a degraded CMS fails fast instead of
// hanging, and probes the remote again after a cooldown (half-open).
//
// Semantic errors (the server answered and said no) pass through untouched:
// they are not retried and do not move the breaker.
type ResilientClient struct {
	inner Client
	cfg   Resilience

	mu       sync.Mutex
	rng      *rand.Rand // backoff jitter
	state    BreakerState
	failures int       // consecutive transport failures while closed
	reopenAt time.Time // when an open breaker half-opens
	probing  bool      // a half-open probe is in flight
	stats    ResilienceStats
}

// BreakerState is the circuit breaker state.
type BreakerState int

// Breaker states: Closed passes requests through, Open fails fast, HalfOpen
// lets a single probe through to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Resilience parameterizes a ResilientClient. Zero values take defaults.
type Resilience struct {
	// Deadline bounds each attempt; an attempt still running when it expires
	// is abandoned with ErrDeadlineExceeded (0: no deadline).
	Deadline time.Duration
	// MaxRetries is how many times a transiently failed request is retried
	// after the first attempt (default 2; negative: no retries).
	MaxRetries int
	// BaseBackoff is the first retry delay; each further retry doubles it
	// (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 1s).
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic backoff jitter stream.
	JitterSeed int64
	// BreakerFailures is how many consecutive failed requests (retries
	// exhausted) open the breaker (default 3; negative: breaker disabled).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker fails fast before
	// half-opening to probe the remote (default 1s).
	BreakerCooldown time.Duration
	// Sleep is the backoff delay implementation (tests and fast experiments
	// stub it). Nil means time.Sleep.
	Sleep func(time.Duration)
	// Now is the clock (tests stub it). Nil means time.Now.
	Now func() time.Time
	// DisableStreamResume turns off transparent mid-stream recovery: streams
	// surface mid-stream transport failures to the consumer, as before resume
	// tokens existed. The zero value (resume ON) is the production posture;
	// the switch exists for E15's control arm and for consumers that prefer
	// to restart whole statements themselves.
	DisableStreamResume bool

	// stubbedSleep records that Sleep was caller-supplied, so ctx-aware
	// backoff keeps calling the stub instead of a real timer.
	stubbedSleep bool
}

func (r Resilience) withDefaults() Resilience {
	if r.MaxRetries == 0 {
		r.MaxRetries = 2
	}
	if r.MaxRetries < 0 {
		r.MaxRetries = 0
	}
	if r.BaseBackoff == 0 {
		r.BaseBackoff = 10 * time.Millisecond
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = time.Second
	}
	if r.BreakerFailures == 0 {
		r.BreakerFailures = 3
	}
	if r.BreakerCooldown == 0 {
		r.BreakerCooldown = time.Second
	}
	if r.Sleep == nil {
		r.Sleep = time.Sleep
	} else {
		r.stubbedSleep = true
	}
	if r.Now == nil {
		r.Now = time.Now
	}
	return r
}

// ResilienceStats are the cumulative fault-handling counters.
type ResilienceStats struct {
	Retries           int64        // retry attempts issued
	Failures          int64        // requests that failed after all retries (or failed fast)
	BreakerOpens      int64        // closed/half-open -> open transitions
	DeadlinesExceeded int64        // attempts abandoned at the deadline
	FastFails         int64        // requests rejected instantly by an open breaker
	StreamResumes     int64        // mid-stream failures repaired by resume re-dispatch
	State             BreakerState // breaker state at sampling time
}

// NewResilientClient wraps inner with the given policy.
func NewResilientClient(inner Client, cfg Resilience) *ResilientClient {
	cfg = cfg.withDefaults()
	return &ResilientClient{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.JitterSeed)),
	}
}

// Inner returns the wrapped client.
func (r *ResilientClient) Inner() Client { return r.inner }

// Available implements AvailabilityReporter: false only while the breaker is
// open and its cooldown has not elapsed.
func (r *ResilientClient) Available() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != BreakerOpen {
		return true
	}
	return !r.cfg.Now().Before(r.reopenAt)
}

// Breaker returns the current breaker state.
func (r *ResilientClient) Breaker() BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// ResilienceStats implements ResilienceReporter.
func (r *ResilientClient) ResilienceStats() ResilienceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.State = r.state
	return st
}

// admit decides whether a request may proceed under the breaker; it returns
// (probe=true) when the request is the half-open trial.
func (r *ResilientClient) admit() (probe bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case BreakerClosed:
		return false, nil
	case BreakerOpen:
		if r.cfg.Now().Before(r.reopenAt) {
			r.stats.FastFails++
			return false, &UnavailableError{Reason: "circuit open"}
		}
		r.state = BreakerHalfOpen
		r.probing = true
		return true, nil
	default: // half-open
		if r.probing {
			r.stats.FastFails++
			return false, &UnavailableError{Reason: "circuit half-open, probe in flight"}
		}
		r.probing = true
		return true, nil
	}
}

// settle records the outcome of an admitted request.
func (r *ResilientClient) settle(probe, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if probe {
		r.probing = false
	}
	if ok {
		r.state = BreakerClosed
		r.failures = 0
		return
	}
	r.stats.Failures++
	if r.cfg.BreakerFailures < 0 {
		return
	}
	if r.state == BreakerHalfOpen {
		r.trip()
		return
	}
	r.failures++
	if r.failures >= r.cfg.BreakerFailures {
		r.trip()
	}
}

// trip opens the breaker (caller holds mu).
func (r *ResilientClient) trip() {
	r.state = BreakerOpen
	r.failures = 0
	r.reopenAt = r.cfg.Now().Add(r.cfg.BreakerCooldown)
	r.stats.BreakerOpens++
}

// backoff returns the jittered delay before retry attempt (0-based).
func (r *ResilientClient) backoff(attempt int) time.Duration {
	d := r.cfg.BaseBackoff << uint(attempt)
	if d > r.cfg.MaxBackoff || d <= 0 {
		d = r.cfg.MaxBackoff
	}
	r.mu.Lock()
	jitter := 0.5 + 0.5*r.rng.Float64() // [0.5, 1.0)
	r.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// attempt runs one call under the per-attempt deadline and the caller's
// context. A timed-out or canceled call is abandoned: its goroutine completes
// (or errors) in the background into a buffered channel.
func (r *ResilientClient) attempt(ctx context.Context, op string, call func() (any, error)) (any, error) {
	if r.cfg.Deadline <= 0 && ctx.Done() == nil {
		return call()
	}
	type outcome struct {
		v        any
		err      error
		panicked any
	}
	ch := make(chan outcome, 1)
	go func() {
		// A panicking inner call must not kill the process from this helper
		// goroutine: capture it and re-raise in the caller, preserving panic
		// semantics across the async boundary so per-query isolation layers
		// above can recover it. An abandoned attempt's panic is discarded
		// with the rest of its outcome.
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{panicked: p}
			}
		}()
		v, err := call()
		ch <- outcome{v: v, err: err}
	}()
	var timerC <-chan time.Time
	if r.cfg.Deadline > 0 {
		timer := time.NewTimer(r.cfg.Deadline)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case out := <-ch:
		if out.panicked != nil {
			panic(out.panicked)
		}
		return out.v, out.err
	case <-timerC:
		r.mu.Lock()
		r.stats.DeadlinesExceeded++
		r.mu.Unlock()
		return nil, &TransportError{Op: op, Err: ErrDeadlineExceeded}
	case <-ctx.Done():
		return nil, &TransportError{Op: op, Err: ctx.Err()}
	}
}

// sleepCtx waits the backoff delay, aborted early when ctx is done. A custom
// Sleep stub (tests, fast experiments) is honored as-is.
func (r *ResilientClient) sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		r.cfg.Sleep(d)
		return nil
	}
	if r.cfg.stubbedSleep {
		r.cfg.Sleep(d)
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs one request through breaker, deadline, and retry policy without a
// caller context.
func (r *ResilientClient) do(op string, call func() (any, error)) (any, error) {
	return r.doCtx(context.Background(), op, call)
}

// doCtx runs one request through breaker, context, deadline, and retry
// policy. A canceled or expired context stops the retry loop immediately —
// cancellation is the caller's verdict, not a remote failure, so it does not
// move the breaker.
func (r *ResilientClient) doCtx(ctx context.Context, op string, call func() (any, error)) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, &TransportError{Op: op, Err: err}
	}
	probe, err := r.admit()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := 0; ; i++ {
		v, err := r.attempt(ctx, op, call)
		if err == nil {
			r.settle(probe, true)
			return v, nil
		}
		if ctx.Err() != nil {
			// Canceled mid-attempt: neither a success nor a remote failure.
			// Release the probe slot without moving the breaker state.
			r.settleCanceled(probe)
			return nil, &TransportError{Op: op, Err: ctx.Err()}
		}
		if !IsTransient(err) {
			// Semantic error: the remote is up and answered. Not a failure
			// for breaker purposes.
			r.settle(probe, true)
			return nil, err
		}
		lastErr = err
		if i >= r.cfg.MaxRetries || probe {
			// A half-open probe gets exactly one attempt.
			break
		}
		r.mu.Lock()
		r.stats.Retries++
		r.mu.Unlock()
		if err := r.sleepCtx(ctx, r.backoff(i)); err != nil {
			r.settleCanceled(probe)
			return nil, &TransportError{Op: op, Err: err}
		}
	}
	r.settle(probe, false)
	return nil, &UnavailableError{Reason: "retries exhausted", Cause: lastErr}
}

// settleCanceled releases a half-open probe slot after a caller-canceled
// request without recording a breaker verdict.
func (r *ResilientClient) settleCanceled(probe bool) {
	if !probe {
		return
	}
	r.mu.Lock()
	r.probing = false
	r.mu.Unlock()
}

// Exec implements Client.
func (r *ResilientClient) Exec(sql string) (*Result, error) {
	return r.ExecCtx(context.Background(), sql)
}

// ExecCtx implements Client: the context bounds every attempt, the backoff
// sleeps between them, and flows through to the inner client.
func (r *ResilientClient) ExecCtx(ctx context.Context, sql string) (*Result, error) {
	v, err := r.doCtx(ctx, "exec", func() (any, error) { return r.inner.ExecCtx(ctx, sql) })
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// ExecStream implements Client. The resilience policy — breaker, deadline,
// retries — applies to stream establishment (establishment failures are
// exactly the transient class the retry loop and breaker exist for), and
// extends PAST it: a stream whose header carried a resume token is wrapped in
// a ResilientStream, which repairs mid-stream transport failures by
// re-dispatching with the token — through this same client, so the breaker
// and backoff govern re-dispatches too. Tokenless streams keep the
// surface-the-error behavior, as does cfg.DisableStreamResume.
func (r *ResilientClient) ExecStream(ctx context.Context, sql string) (TupleStream, error) {
	v, err := r.doCtx(ctx, "exec", func() (any, error) { return r.inner.ExecStream(ctx, sql) })
	if err != nil {
		return nil, err
	}
	st := v.(TupleStream)
	if r.cfg.DisableStreamResume {
		return st, nil
	}
	return newResilientStream(r, ctx, sql, st), nil
}

// ExecStreamResume implements Client: the re-issue is one request under the
// policy — the one a ResilientStream makes to repair itself. The stream comes
// back as the inner client served it, so its resume state tells the caller
// whether to skip, and the resuming caller repairs it.
func (r *ResilientClient) ExecStreamResume(ctx context.Context, sql, token string, skip int64) (TupleStream, error) {
	v, err := r.doCtx(ctx, "exec", func() (any, error) { return r.inner.ExecStreamResume(ctx, sql, token, skip) })
	if err != nil {
		return nil, err
	}
	return v.(TupleStream), nil
}

// noteStreamResume counts one repaired mid-stream failure.
func (r *ResilientClient) noteStreamResume() {
	r.mu.Lock()
	r.stats.StreamResumes++
	r.mu.Unlock()
}

// RelationSchema implements Client.
func (r *ResilientClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	v, err := r.do("schema", func() (any, error) { return r.inner.RelationSchema(name, arity) })
	if err != nil {
		return nil, err
	}
	return v.(*relation.Schema), nil
}

// TableStats implements Client.
func (r *ResilientClient) TableStats(name string) (TableStats, error) {
	v, err := r.do("stats", func() (any, error) { return r.inner.TableStats(name) })
	if err != nil {
		return TableStats{}, err
	}
	return v.(TableStats), nil
}

// Tables implements Client.
func (r *ResilientClient) Tables() ([]string, error) {
	v, err := r.do("tables", func() (any, error) { return r.inner.Tables() })
	if err != nil {
		return nil, err
	}
	return v.([]string), nil
}

// ObservedEpoch implements Client.
func (r *ResilientClient) ObservedEpoch() uint64 { return r.inner.ObservedEpoch() }

// Stats implements Client.
func (r *ResilientClient) Stats() Stats { return r.inner.Stats() }

// Close implements Client.
func (r *ResilientClient) Close() error { return r.inner.Close() }
