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

// Client is the one connection surface the CMS's Remote DBMS Interface uses.
// Implementations: InProcClient (direct engine calls with simulated costs),
// PoolClient (the framed wire protocol over TCP), and the FaultClient and
// ResilientClient decorators over either. Every implementation streams and
// accounts identical request/tuple statistics, so the CMS runs one fetch path
// whatever the transport.
type Client interface {
	// Exec parses and executes one DML statement.
	Exec(sql string) (*Result, error)
	// ExecCtx is Exec bounded by ctx: a done context aborts the request (dial,
	// write, read, backoff sleeps) with a transient TransportError wrapping
	// ctx.Err().
	ExecCtx(ctx context.Context, sql string) (*Result, error)
	// ExecStream issues sql and returns its result as a TupleStream once the
	// header is known; ctx governs the whole life of the stream.
	ExecStream(ctx context.Context, sql string) (TupleStream, error)
	// ExecStreamResume re-issues a streamed sql whose earlier stream died
	// after skip tuples reached the caller's consumer, carrying that stream's
	// resume token. When the returned stream reports ResumeState resumed=true
	// the prefix was skipped for the caller; otherwise — including streams
	// without a ResumeReporter — the caller skips it itself.
	ExecStreamResume(ctx context.Context, sql, token string, skip int64) (TupleStream, error)
	// ObservedEpoch returns the highest backend clock seen on any response so
	// far; 0 means no response has carried one yet. The CMS uses it to detect
	// that cached views were built against a state the server has moved past.
	ObservedEpoch() uint64
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

// The former capability interfaces, now all of Client; kept only while the
// benchmark harness still names them.
type (
	ContextClient   = Client
	StreamClient    = Client
	ResumableClient = Client
	EpochReporter   = Client
)

// VersionReporter is implemented by clients that observe the server's table
// versions on responses (PoolClient, InProcClient). Versions and epochs come
// from one engine clock, so a view stamped with epoch E is stale for table t
// exactly when ObservedVersion(t) > E. It is not part of Client because the
// benchmark harness's client decorator does not forward it; ObservedVersion
// reaches it through InnerClient.
type VersionReporter interface {
	// ObservedVersion returns the newest version of table seen on any
	// response so far; it is complete up to ObservedEpoch.
	ObservedVersion(table string) uint64
}

// InnerClient is implemented by decorating clients (FaultClient,
// ResilientClient) so ObservedVersion can reach the transport underneath.
type InnerClient interface {
	Inner() Client
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
	return c.ObservedEpoch()
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

// InProcClient is a Client bound directly to an Engine in the same process,
// charging the virtual cost model for every request. It is the default
// transport for deterministic experiments.
type InProcClient struct {
	engine *Engine
	costs  Costs

	// stats.seen is the engine clock and versions as of this client's last
	// request — NOT the engine's live state. The staleness defense is
	// specified as "on observing a newer version from any request", and the
	// in-process transport keeps that contract so its cache dynamics match
	// the wire transports'.
	stats statsRec
}

// NewInProcClient connects to the engine with the given cost model.
func NewInProcClient(engine *Engine, costs Costs) *InProcClient {
	return &InProcClient{engine: engine, costs: costs}
}

// Engine exposes the underlying engine (for loading fixtures).
func (c *InProcClient) Engine() *Engine { return c.engine }

// Costs returns the client's cost model.
func (c *InProcClient) Costs() Costs { return c.costs }

// ObservedEpoch implements Client.
func (c *InProcClient) ObservedEpoch() uint64 { return c.stats.seen.epoch.Load() }

// ObservedVersion implements VersionReporter.
func (c *InProcClient) ObservedVersion(table string) uint64 { return c.stats.seen.version(table) }

// observe copies the engine's clock and the versions that moved since this
// client last looked, as a wire response would carry them.
func (c *InProcClient) observe() {
	c.stats.seen.note(c.engine.versionsSince(c.stats.seen.epoch.Load()))
}

// observeCatalog is observe for a catalog request, which it counts.
func (c *InProcClient) observeCatalog() {
	c.observe()
	c.stats.catalogRequests.Add(1)
}

// Exec implements Client.
func (c *InProcClient) Exec(sql string) (*Result, error) {
	return c.ExecCtx(context.Background(), sql)
}

// ExecCtx implements Client.
func (c *InProcClient) ExecCtx(ctx context.Context, sql string) (*Result, error) {
	res, _, err := c.exec(ctx, sql)
	return res, err
}

// ExecStream implements Client: the result is materialized by the engine and
// replayed through the stream surface, charged once, as Exec charges it.
func (c *InProcClient) ExecStream(ctx context.Context, sql string) (TupleStream, error) {
	res, ops, err := c.exec(ctx, sql)
	if err != nil {
		return nil, err
	}
	return newMaterializedStream(res, ops), nil
}

// ExecStreamResume implements Client. The in-process transport cannot pin a
// snapshot, so it ignores the token and serves the whole result on a stream
// without resume state: the caller skips its delivered prefix itself.
func (c *InProcClient) ExecStreamResume(ctx context.Context, sql, _ string, _ int64) (TupleStream, error) {
	return c.ExecStream(ctx, sql)
}

// exec runs one request and charges it. The engine is synchronous and
// CPU-bound, so ctx is checked before dispatch and after completion: a
// request canceled mid-execution returns the cancellation, not the
// now-unwanted result, matching the remote transports' semantics.
func (c *InProcClient) exec(ctx context.Context, sql string) (*Result, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, &TransportError{Op: "exec", Err: err}
	}
	rel, ops, err := c.engine.ExecuteSQL(sql)
	c.observe()
	if err != nil {
		return nil, 0, err
	}
	var tuples int64
	if rel != nil {
		tuples = int64(rel.Len())
	}
	sim := c.costs.RequestCost(tuples, ops)
	c.stats.requests.Add(1)
	c.stats.tuplesReturned.Add(tuples)
	c.stats.serverOps.Add(ops)
	c.stats.addSimMS(sim)
	if err := ctx.Err(); err != nil {
		return nil, 0, &TransportError{Op: "exec", Err: err}
	}
	return &Result{Rel: rel, SimMS: sim}, ops, nil
}

// RelationSchema implements Client.
func (c *InProcClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	sch, err := c.engine.Schema(name)
	c.observeCatalog()
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
	defer c.observeCatalog()
	return c.engine.Stats(name)
}

// Tables implements Client.
func (c *InProcClient) Tables() ([]string, error) {
	defer c.observeCatalog()
	return c.engine.Tables(), nil
}

// Stats implements Client.
func (c *InProcClient) Stats() Stats { return c.stats.snapshot() }

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
