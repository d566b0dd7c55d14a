package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// RDI is the Remote DBMS Interface (Figure 5): it translates CAQL queries to
// the remote DML, issues them over a Client, buffers results, and keeps a
// local copy of the remote database schema (Section 3: "the Cache Manager
// manages ... (a copy of) the remote database schema") and of the catalog
// statistics the IE's shaper orders bodies by (Section 4.1).
type RDI struct {
	client remotedb.Client
	// tracer records remote-fetch spans (nil: untraced). The span's context
	// flows into the client call, so the pooled v2 transport puts its trace ID
	// on the wire and the server's spans join the same trace.
	tracer *obs.Tracer

	// down is whether the last remote call failed at the transport level.
	down atomic.Bool

	mu      sync.Mutex
	schemas map[string]catalogEntry[*relation.Schema]
	stats   map[string]catalogEntry[remotedb.TableStats]
	shapes  map[uint64]*shapeEntry // by remotedb.CAQLShape
}

// catalogEntry is one table's schema or catalog statistics, stamped like a
// view (Element.builtEpoch) with the epoch observed before the fetch that
// got it: it is due for a refetch once a request observes a newer version of
// the table. A LoadTable that replaces the table with another schema is such
// a version.
type catalogEntry[T any] struct {
	v     T
	stamp uint64
}

// NewRDI wraps a remote client.
func NewRDI(client remotedb.Client) *RDI {
	return &RDI{
		client:  client,
		schemas: make(map[string]catalogEntry[*relation.Schema]),
		stats:   make(map[string]catalogEntry[remotedb.TableStats]),
		shapes:  make(map[uint64]*shapeEntry),
	}
}

// shapeEntry is one CAQL shape's translation: the template, the output
// schema, and the base schema of each relational atom both were built
// against. It is current while the RDI's copy of every atom's schema is Equal
// to the recorded one. That copy follows table versions, so a replaced table
// retires the entry, and an insert, which refetches an unchanged schema, does
// not.
type shapeEntry struct {
	tmpl   *remotedb.ShapeTemplate
	schema *relation.Schema
	bases  []*relation.Schema
}

// shapeCacheCap bounds the shapes an RDI keeps; a new shape past it replaces
// an arbitrary one. A workload's queries come in a few shapes.
const shapeCacheCap = 256

// Available reports whether the remote DBMS is believed reachable. When the
// client tracks its own health (remotedb.ResilientClient's circuit breaker),
// that verdict wins; otherwise the RDI remembers whether the last remote
// call failed at the transport level. While unavailable the CMS serves what
// it can from the cache (degraded mode) and suppresses prefetch/eager work.
func (r *RDI) Available() bool {
	if a, ok := r.client.(remotedb.AvailabilityReporter); ok {
		return a.Available()
	}
	return !r.down.Load()
}

// noteRemote records the outcome of a remote call for availability tracking.
// Caller cancellation and expired deadlines say nothing about remote health,
// so they leave the verdict unchanged.
func (r *RDI) noteRemote(err error) {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return
	}
	transientDown := err != nil && (remotedb.IsUnavailable(err) || remotedb.IsTransient(err))
	r.down.Store(transientDown)
}

// RelationSchema implements caql.SchemaSource from the RDI's copy of the
// schema, kept as TableStats keeps the statistics.
func (r *RDI) RelationSchema(name string, arity int) (*relation.Schema, error) {
	sch, err := catalogLookup(r, r.schemas, name, func() (*relation.Schema, error) { return r.client.RelationSchema(name, -1) })
	if err != nil {
		return nil, err
	}
	if arity >= 0 && sch.Arity() != arity {
		return nil, fmt.Errorf("cache: relation %s has arity %d, query uses %d", name, sch.Arity(), arity)
	}
	return sch, nil
}

// FetchCtx evaluates a CAQL conjunctive query entirely on the remote DBMS:
// translate, execute, reassemble. It returns the result extension, the
// simulated time of the request, and the result's staleness stamp: the epoch
// observed just before the request was issued — after translation, whose
// schema lookups are requests too, so no fetch is stamped before the client
// has heard from the backend. Cancellation and deadlines propagate into the
// remote call (retry/backoff loops, dial, socket reads). The result is
// drained frame-by-frame through the bulk append path, so peak memory during
// transfer is one frame plus the growing result.
func (r *RDI) FetchCtx(ctx context.Context, q *caql.Query) (ext *relation.Relation, sim float64, stamp uint64, err error) {
	ctx, sp := r.tracer.Start(ctx, "cms.remote_fetch")
	sp.Set("query", q.Name())
	defer sp.End()
	fs, err := r.FetchStreamCtx(ctx, q)
	if err != nil {
		return nil, 0, 0, err
	}
	out, err := remotedb.DrainStream(q.Name(), fs)
	r.noteRemote(err)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("cache: remote execution of %q: %w", fs.tr.SQL, err)
	}
	return out, fs.SimMS(), fs.stamp, nil
}

// FetchStreamCtx evaluates a CAQL conjunctive query remotely and returns the
// result as a lazily reassembled tuple stream: translation and the header
// round trip happen eagerly (so establishment errors surface here), while
// tuple frames are decoded and reassembled into CAQL head rows only as the
// consumer pulls. The first result tuple is therefore available after one
// frame, and a consumer that stops early (LIMIT-style access, cancellation)
// tears down the remote producer via Close instead of paying for the full
// transfer.
func (r *RDI) FetchStreamCtx(ctx context.Context, q *caql.Query) (*FetchStream, error) {
	// Establishment span only: tuple delivery is pull-driven by the consumer,
	// so its duration would say more about the consumer than the remote.
	ctx, sp := r.tracer.Start(ctx, "cms.remote_stream")
	sp.Set("query", q.Name())
	defer sp.End()
	tr, schema, err := r.translate(q)
	if err != nil {
		return nil, err
	}
	stamp := r.ObservedEpoch()
	st, err := r.client.ExecStream(ctx, tr.SQL)
	r.noteRemote(err)
	if err != nil {
		return nil, fmt.Errorf("cache: remote execution of %q: %w", tr.SQL, err)
	}
	return &FetchStream{rdi: r, inner: st, tr: tr, schema: schema, name: q.Name(), stamp: stamp}, nil
}

// translate returns q's translation and output schema, as TranslateCAQL and
// OutputSchema give them against the RDI's copy of the schema. A query with a
// shape is spliced from its shape's entry, which a miss (re)builds.
func (r *RDI) translate(q *caql.Query) (*remotedb.Translation, *relation.Schema, error) {
	key, ok := remotedb.CAQLShape(q)
	if !ok {
		tr, err := remotedb.TranslateCAQL(q, r)
		if err != nil {
			return nil, nil, err
		}
		schema, err := q.OutputSchema(r)
		return tr, schema, err
	}
	r.mu.Lock()
	en := r.shapes[key]
	r.mu.Unlock()
	if en == nil || !en.tmpl.Fits(q) || !r.basesCurrent(q, en.bases) {
		rec := &schemaRecorder{r: r, rels: q.Rels, bases: make([]*relation.Schema, len(q.Rels))}
		tmpl, err := remotedb.NewShapeTemplate(q, rec)
		if err != nil {
			return nil, nil, err
		}
		schema, err := q.OutputSchema(rec)
		if err != nil {
			return nil, nil, err
		}
		en = &shapeEntry{tmpl: tmpl, schema: schema, bases: rec.bases}
		if !rec.mixed {
			r.mu.Lock()
			if _, ok := r.shapes[key]; !ok && len(r.shapes) >= shapeCacheCap {
				for k := range r.shapes {
					delete(r.shapes, k)
					break
				}
			}
			r.shapes[key] = en
			r.mu.Unlock()
		}
	}
	tr, err := en.tmpl.Translate(q)
	if err != nil {
		return nil, nil, err
	}
	return tr, en.schema, nil
}

// basesCurrent reports whether the RDI's copy of each of q's atoms' schemas
// is Equal to the one recorded for it.
func (r *RDI) basesCurrent(q *caql.Query, bases []*relation.Schema) bool {
	for i, a := range q.Rels {
		sch, err := r.RelationSchema(a.Pred, len(a.Args))
		if err != nil || !sch.Equal(bases[i]) {
			return false
		}
	}
	return true
}

// schemaRecorder answers RelationSchema through the RDI and records each
// relational atom's answer, so a shape entry holds exactly the schemas its
// template and output schema were built against. Two answers for one table
// that differ (a replacement observed mid-build) mark the build mixed, and it
// is not kept.
type schemaRecorder struct {
	r     *RDI
	rels  []logic.Atom
	bases []*relation.Schema
	mixed bool
}

func (s *schemaRecorder) RelationSchema(name string, arity int) (*relation.Schema, error) {
	sch, err := s.r.RelationSchema(name, arity)
	if err != nil {
		return nil, err
	}
	for i, a := range s.rels {
		switch {
		case a.Pred != name:
		case s.bases[i] == nil:
			s.bases[i] = sch
		case !s.bases[i].Equal(sch):
			s.mixed = true
		}
	}
	return sch, nil
}

// FetchStream is a remote CAQL result delivered incrementally: the wire
// stream's SQL rows are reassembled into head rows tuple-at-a-time. It
// implements remotedb.TupleStream, so remotedb.DrainStream materializes it
// and bridge.NewStream surfaces its terminal error.
type FetchStream struct {
	rdi    *RDI
	inner  remotedb.TupleStream
	tr     *remotedb.Translation
	schema *relation.Schema
	name   string
	stamp  uint64 // the epoch observed before the request was issued (FetchCtx)

	done     bool
	localErr error // reassembly failure (schema drift mid-stream)
}

// Next implements relation.Iterator.
func (f *FetchStream) Next() (relation.Tuple, bool) {
	if f.localErr != nil {
		return nil, false
	}
	row, ok := f.inner.Next()
	if !ok {
		if !f.done {
			f.done = true
			f.rdi.noteRemote(f.inner.Err())
		}
		return nil, false
	}
	t, err := f.tr.ReassembleTuple(row)
	if err != nil {
		f.localErr = err
		f.inner.Close()
		return nil, false
	}
	return t, true
}

// Schema implements remotedb.TupleStream with the CAQL output schema (not the
// SQL wire schema).
func (f *FetchStream) Schema() *relation.Schema { return f.schema }

// Name implements remotedb.TupleStream with the CAQL query name.
func (f *FetchStream) Name() string { return f.name }

// Err implements remotedb.TupleStream.
func (f *FetchStream) Err() error {
	if f.localErr != nil {
		return f.localErr
	}
	return f.inner.Err()
}

// Close implements remotedb.TupleStream, canceling the remote producer.
func (f *FetchStream) Close() error { return f.inner.Close() }

// Ops implements remotedb.TupleStream.
func (f *FetchStream) Ops() int64 { return f.inner.Ops() }

// SimMS implements remotedb.TupleStream.
func (f *FetchStream) SimMS() float64 { return f.inner.SimMS() }

// Stats returns the client's cumulative transfer statistics.
func (r *RDI) Stats() remotedb.Stats { return r.client.Stats() }

// Resilience returns the client's fault-handling counters when the client
// keeps them (remotedb.ResilientClient).
func (r *RDI) Resilience() (remotedb.ResilienceStats, bool) {
	if rr, ok := r.client.(remotedb.ResilienceReporter); ok {
		return rr.ResilienceStats(), true
	}
	return remotedb.ResilienceStats{}, false
}

// ObservedEpoch returns the highest backend clock any request through this
// interface has observed (0: none yet). It stamps fetched views, and a view
// stamped at or above it is current without further checks.
func (r *RDI) ObservedEpoch() uint64 { return r.client.ObservedEpoch() }

// movedSince reports whether a request has observed a version above stamp
// for a relation def names: a view of def stamped there may miss that change.
func (r *RDI) movedSince(def *caql.Query, stamp uint64) bool {
	for _, a := range def.Rels {
		if remotedb.ObservedVersion(r.client, a.Pred) > stamp {
			return true
		}
	}
	return false
}

// Tables lists remote tables.
func (r *RDI) Tables() ([]string, error) { return r.client.Tables() }

// TableStats returns the table's catalog statistics from the RDI's copy.
// The Distinct slice is shared between callers.
func (r *RDI) TableStats(name string) (remotedb.TableStats, error) {
	return catalogLookup(r, r.stats, name, func() (remotedb.TableStats, error) { return r.client.TableStats(name) })
}

// catalogLookup answers from the copy of name's entry in m, fetching it only
// when the copy is missing or a request has observed a version of the table
// above its stamp. While the remote is unavailable, or when the refetch fails
// at the transport level, a copy answers as it is.
func catalogLookup[T any](r *RDI, m map[string]catalogEntry[T], name string, fetch func() (T, error)) (T, error) {
	r.mu.Lock()
	ent, ok := m[name]
	r.mu.Unlock()
	if ok && (remotedb.ObservedVersion(r.client, name) <= ent.stamp || !r.Available()) {
		return ent.v, nil
	}
	stamp := r.ObservedEpoch()
	v, err := fetch()
	r.noteRemote(err)
	if err != nil {
		if ok && (remotedb.IsTransient(err) || remotedb.IsUnavailable(err)) {
			return ent.v, nil
		}
		var zero T
		return zero, err
	}
	r.mu.Lock()
	m[name] = catalogEntry[T]{v: v, stamp: stamp}
	r.mu.Unlock()
	return v, nil
}
