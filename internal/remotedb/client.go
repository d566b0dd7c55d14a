package remotedb

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Result is the response to one DML request: the result extension (nil for
// DDL) plus the simulated cost of the request under the client's cost model.
type Result struct {
	Rel   *relation.Relation
	SimMS float64
}

// Client is the connection surface the CMS's Remote DBMS Interface uses.
// Implementations: InProcClient (direct engine calls with simulated costs)
// and PoolClient (the wire protocol over TCP). Both account identical
// request/tuple statistics so experiments can run on either transport.
type Client interface {
	// Exec parses and executes one DML statement.
	Exec(sql string) (*Result, error)
	// RelationSchema resolves a base relation schema (caql.SchemaSource).
	RelationSchema(name string, arity int) (*relation.Schema, error)
	// TableStats returns catalog statistics for a table.
	TableStats(name string) (TableStats, error)
	// Tables lists the table names.
	Tables() ([]string, error)
	// Stats returns cumulative transfer statistics.
	Stats() Stats
	// Close releases the connection.
	Close() error
}

// ContextClient is implemented by clients whose requests honor a caller
// context: cancellation or deadline expiry aborts the request (dial, write,
// read, backoff sleeps) instead of letting it run to completion. All the
// package's clients implement it; ExecContext is the uniform entry point that
// degrades gracefully for clients that do not.
type ContextClient interface {
	Client
	// ExecCtx is Exec bounded by ctx: a done context aborts the request with
	// a transient TransportError wrapping ctx.Err().
	ExecCtx(ctx context.Context, sql string) (*Result, error)
}

// EpochReporter is implemented by clients that observe the server's catalog
// epoch on responses (PoolClient, InProcClient). The CMS uses the
// high-water mark to detect that cached views were built against a backend
// state the server has since moved past.
type EpochReporter interface {
	// ObservedEpoch returns the highest catalog epoch seen on any response
	// so far; 0 means no response has carried one yet.
	ObservedEpoch() uint64
}

// VersionReporter is implemented by clients that observe the server's table
// versions on responses (PoolClient, InProcClient). Versions and epochs come
// from one engine clock, so a view stamped with epoch E is stale for table t
// exactly when ObservedVersion(t) > E.
type VersionReporter interface {
	// ObservedVersion returns the newest version of table seen on any
	// response so far; it is complete up to ObservedEpoch.
	ObservedVersion(table string) uint64
}

// InnerClient is implemented by decorating clients (FaultClient,
// ResilientClient) so capability probes can reach the transport underneath.
type InnerClient interface {
	Inner() Client
}

// ObservedEpoch unwraps decorators until it finds an EpochReporter; 0 for
// transports that never report (the defense degrades to off).
func ObservedEpoch(c Client) uint64 {
	for c != nil {
		if r, ok := c.(EpochReporter); ok {
			return r.ObservedEpoch()
		}
		w, ok := c.(InnerClient)
		if !ok {
			return 0
		}
		c = w.Inner()
	}
	return 0
}

// ObservedVersion unwraps decorators until it finds a VersionReporter. A
// transport that reports an epoch but no versions answers with that epoch:
// every table may have changed at the newest tick it saw.
func ObservedVersion(c Client, table string) uint64 {
	for d := c; d != nil; {
		if r, ok := d.(VersionReporter); ok {
			return r.ObservedVersion(table)
		}
		w, ok := d.(InnerClient)
		if !ok {
			break
		}
		d = w.Inner()
	}
	return ObservedEpoch(c)
}

// versionVec is a client's high-water view of the server's clock and table
// versions. note folds a response's versions in before it raises the epoch,
// so whoever reads epoch E finds every version reported up to E.
type versionVec struct {
	epoch atomic.Uint64

	mu       sync.RWMutex
	versions map[string]uint64
}

func (v *versionVec) note(epoch uint64, versions []wireVersion) {
	if len(versions) > 0 {
		v.mu.Lock()
		if v.versions == nil {
			v.versions = make(map[string]uint64, len(versions))
		}
		for _, tv := range versions {
			if tv.Version > v.versions[tv.Table] {
				v.versions[tv.Table] = tv.Version
			}
		}
		v.mu.Unlock()
	}
	// Responses on pooled connections can arrive out of order relative to
	// the mutations that stamped them: keep the high-water mark.
	for {
		old := v.epoch.Load()
		if epoch <= old || v.epoch.CompareAndSwap(old, epoch) {
			return
		}
	}
}

func (v *versionVec) version(table string) uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.versions[table]
}

// ExecContext issues sql through c, honoring ctx when the client supports it.
// For a plain Client the context is checked before dispatch only (the request
// itself cannot be interrupted).
func ExecContext(ctx context.Context, c Client, sql string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cc, ok := c.(ContextClient); ok {
		return cc.ExecCtx(ctx, sql)
	}
	if err := ctx.Err(); err != nil {
		return nil, &TransportError{Op: "exec", Err: err}
	}
	return c.Exec(sql)
}

// InProcClient is a Client bound directly to an Engine in the same process,
// charging the virtual cost model for every request. It is the default
// transport for deterministic experiments.
type InProcClient struct {
	engine *Engine
	costs  Costs

	// seen is the engine clock and versions as of this client's last
	// request — NOT the engine's live state. The staleness defense is
	// specified as "on observing a newer version from any request", and the
	// in-process transport keeps that contract so its cache dynamics match
	// the wire transports'.
	seen versionVec

	mu    sync.Mutex
	stats Stats
}

// NewInProcClient connects to the engine with the given cost model.
func NewInProcClient(engine *Engine, costs Costs) *InProcClient {
	return &InProcClient{engine: engine, costs: costs}
}

// Engine exposes the underlying engine (for loading fixtures).
func (c *InProcClient) Engine() *Engine { return c.engine }

// Costs returns the client's cost model.
func (c *InProcClient) Costs() Costs { return c.costs }

// ExecCtx implements ContextClient. The in-process engine is synchronous and
// CPU-bound, so the context is checked before dispatch and after completion
// (a request canceled mid-execution returns the cancellation, not the
// now-unwanted result, matching the remote transports' semantics).
func (c *InProcClient) ExecCtx(ctx context.Context, sql string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &TransportError{Op: "exec", Err: err}
	}
	res, err := c.Exec(sql)
	if cerr := ctx.Err(); cerr != nil {
		return nil, &TransportError{Op: "exec", Err: cerr}
	}
	return res, err
}

// ObservedEpoch implements EpochReporter.
func (c *InProcClient) ObservedEpoch() uint64 { return c.seen.epoch.Load() }

// ObservedVersion implements VersionReporter.
func (c *InProcClient) ObservedVersion(table string) uint64 { return c.seen.version(table) }

// observe copies the engine's clock and the versions that moved since this
// client last looked, as a wire response would carry them.
func (c *InProcClient) observe() {
	c.seen.note(c.engine.versionsSince(c.seen.epoch.Load()))
}

// Exec implements Client.
func (c *InProcClient) Exec(sql string) (*Result, error) {
	rel, ops, err := c.engine.ExecuteSQL(sql)
	defer c.observe()
	if err != nil {
		return nil, err
	}
	var tuples int64
	if rel != nil {
		tuples = int64(rel.Len())
	}
	sim := c.costs.RequestCost(tuples, ops)
	c.mu.Lock()
	c.stats.Requests++
	c.stats.TuplesReturned += tuples
	c.stats.ServerOps += ops
	c.stats.SimMS += sim
	c.mu.Unlock()
	return &Result{Rel: rel, SimMS: sim}, nil
}

// RelationSchema implements Client.
func (c *InProcClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	sch, err := c.engine.Schema(name)
	c.observe()
	if err != nil {
		return nil, err
	}
	if arity >= 0 && sch.Arity() != arity {
		return nil, errArity(name, sch.Arity(), arity)
	}
	return sch, nil
}

// TableStats implements Client.
func (c *InProcClient) TableStats(name string) (TableStats, error) {
	defer c.observe()
	return c.engine.Stats(name)
}

// Tables implements Client.
func (c *InProcClient) Tables() ([]string, error) {
	defer c.observe()
	return c.engine.Tables(), nil
}

// Stats implements Client.
func (c *InProcClient) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close implements Client (a no-op for the in-process transport).
func (c *InProcClient) Close() error { return nil }

func errArity(name string, have, want int) error {
	return &ArityError{Name: name, Have: have, Want: want}
}

// ArityError reports a schema arity mismatch.
type ArityError struct {
	Name       string
	Have, Want int
}

// Error implements error.
func (e *ArityError) Error() string {
	return "remotedb: relation " + e.Name + " has arity " + itoa(e.Have) + ", caller expected " + itoa(e.Want)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
