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
// Each remote-touching call (Exec, RelationSchema, TableStats, Tables) rolls
// once against the configured rates, in order: error, drop, hang, latency.
// Stats and Close are never faulted.
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
	// normally — the shape a per-request deadline must catch.
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
	// out). Nil means time.Sleep.
	Sleep func(time.Duration)

	// The Stream* rates are a second, per-STREAM fault dimension, rolled once
	// per successfully established stream (the establishment rates above
	// already cover pre-header failure). They model the transfer dying after
	// tuples were delivered — the case resumable streams exist for.

	// StreamKillRate kills the stream after StreamKillAfter tuples: the
	// underlying pooled connection is torn down (so redial/health machinery
	// is exercised) and the stream fails with a transport error.
	StreamKillRate float64
	// StreamStallRate stalls delivery once, for HangFor, after
	// StreamKillAfter tuples, then continues normally — the shape a per-frame
	// wait deadline must catch.
	StreamStallRate float64
	// StreamCorruptRate fails the stream with a protocol error after
	// StreamKillAfter tuples, as a corrupted frame would.
	StreamCorruptRate float64
	// StreamKillAfter is the number of tuples delivered before a stream fault
	// fires (0: before the first tuple).
	StreamKillAfter int
}

// FaultCounts tallies injected faults by kind.
type FaultCounts struct {
	Errors    int64 // injected transport errors
	Drops     int64 // injected dropped connections
	Hangs     int64 // injected hangs
	Latencies int64 // injected latency spikes
	Panics    int64 // injected panics
	Refusals  int64 // requests refused while SetDown(true)

	StreamKills    int64 // established streams killed mid-transfer
	StreamStalls   int64 // established streams stalled mid-transfer
	StreamCorrupts int64 // established streams failed with a protocol error
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
// for error/drop faults and performs any configured delay for hang/latency
// faults before returning nil.
func (f *FaultClient) maybeFault(op string) error {
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
	if delay > 0 {
		f.sleep(delay)
	}
	return nil
}

var (
	errInjected        = &injectedFault{kind: "error"}
	errInjectedDrop    = &injectedFault{kind: "dropped connection"}
	errInjectedCorrupt = &injectedFault{kind: "corrupted stream"}
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

func (f *FaultClient) sleep(d time.Duration) {
	if f.cfg.Sleep != nil {
		f.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Exec implements Client.
func (f *FaultClient) Exec(sql string) (*Result, error) {
	return f.ExecCtx(context.Background(), sql)
}

// ExecCtx implements Client, so cancellation survives the wrapper.
func (f *FaultClient) ExecCtx(ctx context.Context, sql string) (*Result, error) {
	if err := f.maybeFault("exec"); err != nil {
		return nil, err
	}
	return f.inner.ExecCtx(ctx, sql)
}

// ExecStream implements Client: establishment is faulted exactly like a
// materialized Exec; an established stream then rolls once against the
// per-stream fault dimension (kill/stall/corrupt after N tuples).
func (f *FaultClient) ExecStream(ctx context.Context, sql string) (TupleStream, error) {
	if err := f.maybeFault("exec"); err != nil {
		return nil, err
	}
	st, err := f.inner.ExecStream(ctx, sql)
	if err != nil {
		return nil, err
	}
	return f.maybeFaultStream(st), nil
}

// ExecStreamResume implements Client by passing resume state through
// to the inner client. The re-issue is faulted like any request — including
// the stream dimension, so a resumed stream can be killed again, exercising
// repeated-recovery paths.
func (f *FaultClient) ExecStreamResume(ctx context.Context, sql, token string, skip int64) (TupleStream, error) {
	if err := f.maybeFault("exec"); err != nil {
		return nil, err
	}
	st, err := f.inner.ExecStreamResume(ctx, sql, token, skip)
	if err != nil {
		return nil, err
	}
	return f.maybeFaultStream(st), nil
}

// Stream fault kinds.
const (
	streamFaultKill uint8 = iota + 1
	streamFaultStall
	streamFaultCorrupt
)

// maybeFaultStream rolls the per-stream fault die once for an established
// stream and, on a hit, wraps it in the armed fault.
func (f *FaultClient) maybeFaultStream(st TupleStream) TupleStream {
	cfg := f.cfg
	if cfg.StreamKillRate+cfg.StreamStallRate+cfg.StreamCorruptRate <= 0 {
		return st
	}
	f.mu.Lock()
	roll := f.rng.Float64()
	var kind uint8
	switch {
	case roll < cfg.StreamKillRate:
		kind = streamFaultKill
		f.counts.StreamKills++
	case roll < cfg.StreamKillRate+cfg.StreamStallRate:
		kind = streamFaultStall
		f.counts.StreamStalls++
	case roll < cfg.StreamKillRate+cfg.StreamStallRate+cfg.StreamCorruptRate:
		kind = streamFaultCorrupt
		f.counts.StreamCorrupts++
	default:
		f.mu.Unlock()
		return st
	}
	f.mu.Unlock()
	return &faultStream{inner: st, f: f, kind: kind, after: cfg.StreamKillAfter}
}

// faultStream is one established stream with an armed mid-transfer fault: it
// delivers `after` tuples faithfully, fires once, and then either fails
// terminally (kill, corrupt) or continues (stall).
type faultStream struct {
	inner TupleStream
	f     *FaultClient
	kind  uint8
	after int

	seen  int
	fired bool
	err   error
}

// Next implements relation.Iterator.
func (fs *faultStream) Next() (relation.Tuple, bool) {
	if fs.err != nil {
		return nil, false
	}
	if !fs.fired && fs.seen >= fs.after {
		fs.fired = true
		switch fs.kind {
		case streamFaultKill:
			// A killed stream is a killed CONNECTION: tear one down in the
			// pooled inner client (exercising quarantine + redial) and fail
			// this stream with the transport error its consumer would see.
			fs.inner.Close()
			if p, ok := fs.f.inner.(*PoolClient); ok {
				p.breakConn()
			}
			fs.err = &TransportError{Op: "exec", Err: errInjectedDrop}
			return nil, false
		case streamFaultCorrupt:
			fs.inner.Close()
			fs.err = &ProtocolError{Op: "exec", Err: errInjectedCorrupt}
			return nil, false
		case streamFaultStall:
			fs.f.sleep(fs.f.cfg.HangFor)
		}
	}
	t, ok := fs.inner.Next()
	if ok {
		fs.seen++
	}
	return t, ok
}

// Err implements TupleStream: the injected terminal error wins; otherwise the
// inner stream's verdict stands.
func (fs *faultStream) Err() error {
	if fs.err != nil {
		return fs.err
	}
	return fs.inner.Err()
}

// ResumeState implements ResumeReporter by forwarding, so resume tokens
// survive the fault wrapper and ResilientStream can repair injected kills.
func (fs *faultStream) ResumeState() (string, bool) {
	if rr, ok := fs.inner.(ResumeReporter); ok {
		return rr.ResumeState()
	}
	return "", false
}

// Schema implements TupleStream.
func (fs *faultStream) Schema() *relation.Schema { return fs.inner.Schema() }

// Name implements TupleStream.
func (fs *faultStream) Name() string { return fs.inner.Name() }

// Ops implements TupleStream.
func (fs *faultStream) Ops() int64 { return fs.inner.Ops() }

// SimMS implements TupleStream.
func (fs *faultStream) SimMS() float64 { return fs.inner.SimMS() }

// Close implements TupleStream.
func (fs *faultStream) Close() error { return fs.inner.Close() }

// RelationSchema implements Client.
func (f *FaultClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	if err := f.maybeFault("schema"); err != nil {
		return nil, err
	}
	return f.inner.RelationSchema(name, arity)
}

// TableStats implements Client.
func (f *FaultClient) TableStats(name string) (TableStats, error) {
	if err := f.maybeFault("stats"); err != nil {
		return TableStats{}, err
	}
	return f.inner.TableStats(name)
}

// Tables implements Client.
func (f *FaultClient) Tables() ([]string, error) {
	if err := f.maybeFault("tables"); err != nil {
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
