package remotedb

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/relation"
)

// ResilientClient wraps any Client with the fault-tolerance policy the CMS
// relies on: bounded retries with exponential backoff and jitter for
// transient (transport) failures, and a circuit breaker that converts a
// persistently failing remote into instant typed ErrRemoteUnavailable
// failures — so a degraded CMS fails fast instead of hanging, and probes the
// remote again after a cooldown (half-open).
//
// Every attempt calls the inner client on the caller's goroutine under the
// caller's context: a deadline or cancel ends the attempt inside the inner
// client, and a transport that hangs is bounded by its own timeout
// (PoolOptions.RequestTimeout), whose transient error moves the breaker.
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
	// probed is non-nil while a half-open probe is in flight, and closed when
	// the probe settles.
	probed chan struct{}
	stats  ResilienceStats
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
	// stub it). Nil means a real wait that the caller's context cuts short.
	Sleep func(time.Duration)
	// Now is the clock (tests stub it). Nil means time.Now.
	Now func() time.Time
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
	if r.Now == nil {
		r.Now = time.Now
	}
	return r
}

// ResilienceStats are the cumulative fault-handling counters.
type ResilienceStats struct {
	Retries       int64        // retry attempts issued
	Failures      int64        // requests that failed after all retries (or failed fast)
	BreakerOpens  int64        // closed/half-open -> open transitions
	FastFails     int64        // requests rejected instantly by an open breaker
	StreamResumes int64        // mid-stream failures repaired by resume re-dispatch
	State         BreakerState // breaker state at sampling time
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

// ResilienceStats implements ResilienceReporter.
func (r *ResilientClient) ResilienceStats() ResilienceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.State = r.state
	return st
}

// admit decides whether a request may proceed under the breaker; it returns
// (probe=true) when the request is the half-open trial. A request that finds
// a probe in flight waits, under ctx, for its verdict: it proceeds if the
// probe closed the breaker, fails fast if the probe re-opened it, and takes
// the trial itself if the probe's caller gave up.
func (r *ResilientClient) admit(ctx context.Context, op string) (probe bool, err error) {
	r.mu.Lock()
	for {
		switch {
		case r.state == BreakerClosed:
			r.mu.Unlock()
			return false, nil
		case r.state == BreakerOpen && r.cfg.Now().Before(r.reopenAt):
			r.stats.FastFails++
			r.mu.Unlock()
			return false, &UnavailableError{Reason: "circuit open"}
		case r.probed == nil:
			r.state = BreakerHalfOpen
			r.probed = make(chan struct{})
			r.mu.Unlock()
			return true, nil
		}
		probed := r.probed
		r.mu.Unlock()
		select {
		case <-probed:
		case <-ctx.Done():
			return false, &TransportError{Op: op, Err: ctx.Err()}
		}
		r.mu.Lock()
	}
}

// endProbe marks the half-open probe settled, releasing the requests that
// wait for its verdict (caller holds mu).
func (r *ResilientClient) endProbe() {
	close(r.probed)
	r.probed = nil
}

// settle records the outcome of an admitted request.
func (r *ResilientClient) settle(probe, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if probe {
		defer r.endProbe() // after the verdict, which its waiters read
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

// pause waits the backoff delay, aborted early when ctx ends. A custom Sleep
// stub (tests, fast experiments) is honored as-is.
func (r *ResilientClient) pause(ctx context.Context, d time.Duration) error {
	if r.cfg.Sleep != nil {
		r.cfg.Sleep(d)
		return ctx.Err()
	}
	return sleepCtx(ctx, d)
}

// doCtx runs one request through breaker and retry policy, calling the inner
// client in place. A canceled or expired context stops the retry loop
// immediately — cancellation is the caller's verdict, not a remote failure,
// so it does not move the breaker.
func doCtx[T any](r *ResilientClient, ctx context.Context, op string, call func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, &TransportError{Op: op, Err: err}
	}
	probe, err := r.admit(ctx, op)
	if err != nil {
		return zero, err
	}
	var lastErr error
	for i := 0; ; i++ {
		v, err := call()
		if err == nil {
			r.settle(probe, true)
			return v, nil
		}
		if ctx.Err() != nil {
			// Canceled mid-attempt: neither a success nor a remote failure.
			// Release the probe slot without moving the breaker state.
			r.settleCanceled(probe)
			return zero, &TransportError{Op: op, Err: ctx.Err()}
		}
		if !IsTransient(err) {
			// Semantic error: the remote is up and answered. Not a failure
			// for breaker purposes.
			r.settle(probe, true)
			return zero, err
		}
		lastErr = err
		if i >= r.cfg.MaxRetries || probe {
			// A half-open probe gets exactly one attempt.
			break
		}
		r.mu.Lock()
		r.stats.Retries++
		r.mu.Unlock()
		if err := r.pause(ctx, r.backoff(i)); err != nil {
			r.settleCanceled(probe)
			return zero, &TransportError{Op: op, Err: err}
		}
	}
	r.settle(probe, false)
	return zero, &UnavailableError{Reason: "retries exhausted", Cause: lastErr}
}

// settleCanceled releases a half-open probe slot after a caller-canceled
// request without recording a breaker verdict.
func (r *ResilientClient) settleCanceled(probe bool) {
	if !probe {
		return
	}
	r.mu.Lock()
	r.endProbe()
	r.mu.Unlock()
}

// Exec implements Client.
func (r *ResilientClient) Exec(sql string) (*Result, error) {
	return r.ExecCtx(context.Background(), sql)
}

// ExecCtx implements Client: the context bounds every attempt, the backoff
// sleeps between them, and flows through to the inner client.
func (r *ResilientClient) ExecCtx(ctx context.Context, sql string) (*Result, error) {
	return doCtx(r, ctx, "exec", func() (*Result, error) { return r.inner.ExecCtx(ctx, sql) })
}

// ExecStream implements Client. The resilience policy — breaker, retries —
// applies to stream establishment (establishment failures are exactly the
// transient class the retry loop and breaker exist for), and extends PAST it:
// a stream whose header carried a resume token is wrapped in a
// ResilientStream, which repairs mid-stream transport failures by
// re-dispatching with the token — through this same client, so the breaker
// and backoff govern re-dispatches too. Tokenless streams keep the
// surface-the-error behavior.
func (r *ResilientClient) ExecStream(ctx context.Context, sql string) (TupleStream, error) {
	st, err := doCtx(r, ctx, "exec", func() (TupleStream, error) { return r.inner.ExecStream(ctx, sql) })
	if err != nil {
		return st, err
	}
	return newResilientStream(r, ctx, sql, st), nil
}

// ExecStreamResume implements Client: the re-issue is one request under the
// policy — the one a ResilientStream makes to repair itself. The stream comes
// back as the inner client served it, so its resume state tells the caller
// whether to skip, and the resuming caller repairs it.
func (r *ResilientClient) ExecStreamResume(ctx context.Context, sql, token string, skip int64) (TupleStream, error) {
	return doCtx(r, ctx, "exec", func() (TupleStream, error) { return r.inner.ExecStreamResume(ctx, sql, token, skip) })
}

// noteStreamResume counts one repaired mid-stream failure.
func (r *ResilientClient) noteStreamResume() {
	r.mu.Lock()
	r.stats.StreamResumes++
	r.mu.Unlock()
}

// RelationSchema implements Client.
func (r *ResilientClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	return doCtx(r, context.Background(), "schema", func() (*relation.Schema, error) { return r.inner.RelationSchema(name, arity) })
}

// TableStats implements Client.
func (r *ResilientClient) TableStats(name string) (TableStats, error) {
	return doCtx(r, context.Background(), "stats", func() (TableStats, error) { return r.inner.TableStats(name) })
}

// Tables implements Client.
func (r *ResilientClient) Tables() ([]string, error) {
	return doCtx(r, context.Background(), "tables", r.inner.Tables)
}

// ObservedEpoch implements Client.
func (r *ResilientClient) ObservedEpoch() uint64 { return r.inner.ObservedEpoch() }

// Stats implements Client.
func (r *ResilientClient) Stats() Stats { return r.inner.Stats() }

// Close implements Client.
func (r *ResilientClient) Close() error { return r.inner.Close() }
