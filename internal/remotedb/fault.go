package remotedb

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/relation"
)

// FaultClient wraps any Client and injects transport faults — errors, dropped
// connections, latency spikes, hangs, and a hard "server down" switch — from
// a deterministically seeded stream, so fault-tolerance experiments (e11) and
// tests are exactly reproducible. It is the client-side counterpart of the
// server's ListenerFaults.
//
// Each remote-touching call (Exec, ExecStream, RelationSchema, TableStats,
// Tables) rolls once against the configured rates, in order: error, drop,
// hang, latency, panic. Stats and Close are never faulted, and an established
// stream is delivered as the inner client serves it: a stream dying
// mid-transfer is the server's ListenerFaults.StreamKillRate.
type FaultClient struct {
	inner Client
	cfg   FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	down   bool
	counts FaultCounts
}

// FaultConfig parameterizes the injected fault mix. Rates are probabilities
// in [0,1] applied per request; their sum should not exceed 1 (excess is
// clamped by evaluation order).
type FaultConfig struct {
	// Seed seeds the deterministic fault stream.
	Seed int64
	// ErrorRate injects a transport error (request lost, no side effects).
	ErrorRate float64
	// DropRate injects a dropped connection: the request fails and, when the
	// inner client is a *PoolClient, one of its connections is torn down so
	// redial machinery is exercised.
	DropRate float64
	// HangRate makes the request stall for HangFor before completing
	// normally — the shape a caller's deadline must catch. The stall ends
	// early, with the context's error, when the request's context ends.
	HangRate float64
	// HangFor is the stall duration for hang faults.
	HangFor time.Duration
	// LatencyRate adds Latency to the request before completing normally.
	LatencyRate float64
	// Latency is the added delay for latency faults.
	Latency time.Duration
	// PanicRate makes the request panic instead of returning — the shape the
	// CMS's per-query/per-worker panic isolation must contain.
	PanicRate float64
	// Sleep is the delay implementation (tests and fast experiments stub it
	// out). Nil means a real wait that the request's context cuts short.
	Sleep func(time.Duration)
}

// FaultCounts tallies injected faults by kind.
type FaultCounts struct {
	Errors    int64 // injected transport errors
	Drops     int64 // injected dropped connections
	Hangs     int64 // injected hangs
	Latencies int64 // injected latency spikes
	Panics    int64 // injected panics
	Refusals  int64 // requests refused while SetDown(true)
}

// NewFaultClient wraps inner with the configured fault stream.
func NewFaultClient(inner Client, cfg FaultConfig) *FaultClient {
	return &FaultClient{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetDown simulates the remote server being killed (true) or restarted
// (false): while down, every request fails with a transport error.
func (f *FaultClient) SetDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

// Counts returns the injected-fault tallies so far.
func (f *FaultClient) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// Inner returns the wrapped client.
func (f *FaultClient) Inner() Client { return f.inner }

// maybeFault rolls the fault die for one request. It returns a non-nil error
// for error/drop faults and waits out any configured delay for hang/latency
// faults before returning nil — or ctx's error, should ctx end first.
func (f *FaultClient) maybeFault(ctx context.Context, op string) error {
	f.mu.Lock()
	if f.down {
		f.counts.Refusals++
		f.mu.Unlock()
		return &TransportError{Op: op, Err: ErrRemoteUnavailable}
	}
	roll := f.rng.Float64()
	var delay time.Duration
	var err error
	switch {
	case roll < f.cfg.ErrorRate:
		f.counts.Errors++
		err = &TransportError{Op: op, Err: errInjected}
	case roll < f.cfg.ErrorRate+f.cfg.DropRate:
		f.counts.Drops++
		err = &TransportError{Op: op, Err: errInjectedDrop}
	case roll < f.cfg.ErrorRate+f.cfg.DropRate+f.cfg.HangRate:
		f.counts.Hangs++
		delay = f.cfg.HangFor
	case roll < f.cfg.ErrorRate+f.cfg.DropRate+f.cfg.HangRate+f.cfg.LatencyRate:
		f.counts.Latencies++
		delay = f.cfg.Latency
	case roll < f.cfg.ErrorRate+f.cfg.DropRate+f.cfg.HangRate+f.cfg.LatencyRate+f.cfg.PanicRate:
		f.counts.Panics++
		f.mu.Unlock()
		panic("injected fault: panic in " + op)
	}
	f.mu.Unlock()

	if err != nil {
		if _, isDrop := errorIsDrop(err); isDrop {
			if p, ok := f.inner.(*PoolClient); ok {
				p.breakConn()
			}
		}
		return err
	}
	if delay <= 0 {
		return nil
	}
	if f.cfg.Sleep != nil {
		f.cfg.Sleep(delay)
		return nil
	}
	if err := sleepCtx(ctx, delay); err != nil {
		return &TransportError{Op: op, Err: err}
	}
	return nil
}

// sleepCtx waits d, or until ctx ends, and then returns ctx's error: how both
// fault injectors wait out an injected delay and ResilientClient its backoff.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var (
	errInjected     = &injectedFault{kind: "error"}
	errInjectedDrop = &injectedFault{kind: "dropped connection"}
)

// injectedFault marks an artificial fault (distinguishable in logs).
type injectedFault struct{ kind string }

func (e *injectedFault) Error() string { return "injected fault: " + e.kind }

func errorIsDrop(err error) (*injectedFault, bool) {
	te, ok := err.(*TransportError)
	if !ok {
		return nil, false
	}
	f, ok := te.Err.(*injectedFault)
	return f, ok && f == errInjectedDrop
}

// Exec implements Client.
func (f *FaultClient) Exec(sql string) (*Result, error) {
	return f.ExecCtx(context.Background(), sql)
}

// ExecCtx implements Client, so cancellation survives the wrapper.
func (f *FaultClient) ExecCtx(ctx context.Context, sql string) (*Result, error) {
	if err := f.maybeFault(ctx, "exec"); err != nil {
		return nil, err
	}
	return f.inner.ExecCtx(ctx, sql)
}

// ExecStream implements Client: establishment is faulted exactly like a
// materialized Exec.
func (f *FaultClient) ExecStream(ctx context.Context, sql string) (TupleStream, error) {
	if err := f.maybeFault(ctx, "exec"); err != nil {
		return nil, err
	}
	return f.inner.ExecStream(ctx, sql)
}

// ExecStreamResume implements Client by passing resume state through to the
// inner client. The re-issue is faulted like any request.
func (f *FaultClient) ExecStreamResume(ctx context.Context, sql, token string, skip int64) (TupleStream, error) {
	if err := f.maybeFault(ctx, "exec"); err != nil {
		return nil, err
	}
	return f.inner.ExecStreamResume(ctx, sql, token, skip)
}

// RelationSchema implements Client.
func (f *FaultClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	if err := f.maybeFault(context.Background(), "schema"); err != nil {
		return nil, err
	}
	return f.inner.RelationSchema(name, arity)
}

// TableStats implements Client.
func (f *FaultClient) TableStats(name string) (TableStats, error) {
	if err := f.maybeFault(context.Background(), "stats"); err != nil {
		return TableStats{}, err
	}
	return f.inner.TableStats(name)
}

// Tables implements Client.
func (f *FaultClient) Tables() ([]string, error) {
	if err := f.maybeFault(context.Background(), "tables"); err != nil {
		return nil, err
	}
	return f.inner.Tables()
}

// ObservedEpoch implements Client (never faulted).
func (f *FaultClient) ObservedEpoch() uint64 { return f.inner.ObservedEpoch() }

// Stats implements Client (never faulted).
func (f *FaultClient) Stats() Stats { return f.inner.Stats() }

// Close implements Client (never faulted).
func (f *FaultClient) Close() error { return f.inner.Close() }
