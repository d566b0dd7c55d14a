// Package bridge defines the interface between BrAID's inference engine and
// its data layer (Figure 3 of the paper): sessions that accept advice
// followed by a sequence of CAQL queries, answered as streams. The Cache
// Management System (internal/cache) is the primary implementation; the
// comparison baselines (internal/baseline) implement the same surface so the
// IE can run unchanged against loose coupling or exact-match caching.
package bridge

import (
	"context"

	"repro/internal/advice"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// Stream delivers a query result tuple-at-a-time. "The CMS returns the
// result for the query using a stream" (Section 3). A stream backed by a
// generator performs lazy evaluation: tuples are computed on demand.
//
// A lazy stream may be stopped mid-flight by cooperative cancellation
// (relation.GuardIterator checkpoints); Next then reports end-of-stream and
// Err returns the typed reason, so a canceled stream is never mistaken for a
// complete one.
//
// The tuples a stream hands out are shared and read-only: an answer from the
// cache may be the cached element's own rows, as a miss's answer always was
// the rows the cache keeps. A consumer may keep a tuple, but must not write
// into it. The tuples of a pooled block stream (StreamPool.Block, the CMS's
// non-identity eager hits) are valid until the stream is closed: Close gives
// the stream and its block of values back to the pool, which hands the block
// to a later answer. Every other stream's tuples outlive Close: a pooled rows
// stream hands out rows it does not own, and a lazy or unpooled stream never
// goes back to a pool.
type Stream struct {
	schema *relation.Schema
	it     relation.Iterator
	lazy   bool
	// pool is the pool the stream goes back to on Close: nil for an
	// unpooled stream, and for a pooled one once it has gone back.
	pool *StreamPool
	// rows or block is it for an eager stream, held here so that the stream
	// and its iterator are one allocation.
	rows  relation.SliceIterator
	block valueBlock
}

// valueBlock iterates over n rows of arity values each, laid end to end in
// vals. Each row it hands out is a capacity-capped view of vals, so a
// consumer's append never reaches the next row. Nothing writes to vals while
// the stream has it; once a pooled stream is closed, the pool clears vals and
// hands it out again (StreamPool.Values).
type valueBlock struct {
	vals        []relation.Value
	arity, n, i int
}

// Next implements relation.Iterator.
func (b *valueBlock) Next() (relation.Tuple, bool) {
	if b.i >= b.n {
		return nil, false
	}
	lo, hi := b.i*b.arity, (b.i+1)*b.arity
	b.i++
	return relation.Tuple(b.vals[lo:hi:hi]), true
}

// SizeHint implements relation.SizeHinter.
func (b *valueBlock) SizeHint() int { return b.n - b.i }

// NewStream builds a stream over an iterator. When the iterator reports
// cancellation (it implements Err() error, e.g. relation.GuardIterator), the
// stream's Err surfaces it.
func NewStream(schema *relation.Schema, it relation.Iterator, lazy bool) *Stream {
	return &Stream{schema: schema, it: it, lazy: lazy}
}

// NewEagerStream builds an unpooled stream over a materialized relation.
func NewEagerStream(rel *relation.Relation) *Stream {
	return (*StreamPool)(nil).Rows(rel.Schema(), rel.Tuples())
}

// StreamPool recycles eager streams: a stream it hands out comes back to it
// when its consumer closes it, and is handed out again for a later answer. A
// block stream's value block comes back with it, cleared, and Values hands it
// to the next block answer to fill, so the pool's blocks grow to the largest
// answers the session has had open at once; a rows stream's tuples are never
// the pool's. A pool has no lock: it belongs to one CMS session, whose methods
// are serial, and a stream from it must be closed on the goroutine that
// queries the session. The zero value is ready for use; a nil pool hands out
// unpooled streams.
type StreamPool struct {
	free []*Stream
}

// get returns a stream with schema, recycled when the pool has one. A
// recycled stream keeps its cleared value block for Values and Block.
func (p *StreamPool) get(schema *relation.Schema) *Stream {
	if p == nil {
		return &Stream{schema: schema}
	}
	var s *Stream
	if n := len(p.free); n > 0 {
		s, p.free = p.free[n-1], p.free[:n-1]
	} else {
		s = new(Stream)
	}
	s.schema, s.pool = schema, p
	return s
}

// Values returns the empty, cleared value block of the stream the pool hands
// out next, for the caller to append a block answer's values to and pass to
// Block; nil when that stream will be new. A caller that outgrows its
// capacity passes Block a new slice, and the old block is dropped.
func (p *StreamPool) Values() []relation.Value {
	if p == nil || len(p.free) == 0 {
		return nil
	}
	return p.free[len(p.free)-1].block.vals[:0]
}

// Rows returns an eager stream that hands out tuples themselves, which
// outlive the stream.
func (p *StreamPool) Rows(schema *relation.Schema, tuples []relation.Tuple) *Stream {
	s := p.get(schema)
	s.rows = *relation.NewSliceIterator(tuples)
	s.it = &s.rows
	return s
}

// Block returns an eager stream over n rows of arity values each, laid end to
// end in vals (as subsume.Derivation.Materialize fills them), which is
// Values' block or a new one. The stream owns vals: the caller must not write
// to it afterwards, and a pooled stream's consumer must not read a tuple
// from it after Close.
func (p *StreamPool) Block(schema *relation.Schema, vals []relation.Value, arity, n int) *Stream {
	s := p.get(schema)
	s.block = valueBlock{vals: vals, arity: arity, n: n}
	s.it = &s.block
	return s
}

// Schema returns the result schema.
func (s *Stream) Schema() *relation.Schema { return s.schema }

// Lazy reports whether the stream is generator-backed (lazy evaluation).
func (s *Stream) Lazy() bool { return s.lazy }

// Next produces the next tuple; ok is false at end of stream.
func (s *Stream) Next() (relation.Tuple, bool) { return s.it.Next() }

// Err reports why the stream stopped early: ErrCanceled or
// ErrDeadlineExceeded after a cooperative-cancellation checkpoint fired, nil
// for a stream that ended (or is still running) normally. Check it after
// draining a lazy stream.
func (s *Stream) Err() error {
	if e, ok := s.it.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Close abandons the rest of the stream: an iterator with a Close method (a
// lazy remote answer) is told to release its producer. Closing a stream that
// ran to its end is harmless. A stream from a StreamPool goes back to its
// pool, once, with its value block, whose tuples end there (see Stream).
// Using it after Close is the caller's bug, a second Close included: once the
// pool has handed the stream out again, that Close would recycle someone
// else's answer.
func (s *Stream) Close() {
	if c, ok := s.it.(interface{ Close() error }); ok {
		c.Close()
	}
	if p := s.pool; p != nil {
		// The pool keeps no schema, row or value of the answer: the block is
		// cleared, so it holds no element's strings alive.
		vals := s.block.vals
		clear(vals)
		*s = Stream{block: valueBlock{vals: vals[:0]}}
		p.free = append(p.free, s)
	}
}

// Drain materializes the remainder of the stream. A canceled stream drains to
// its partial prefix; use Err (or DrainErr) to distinguish that from a
// complete result.
func (s *Stream) Drain(name string) *relation.Relation {
	return relation.Drain(name, s.schema, s.it)
}

// DrainErr materializes the remainder of the stream and surfaces the typed
// cancellation error, if the stream was stopped by a checkpoint.
func (s *Stream) DrainErr(name string) (*relation.Relation, error) {
	out := s.Drain(name)
	return out, s.Err()
}

// Take consumes up to n tuples.
func (s *Stream) Take(n int) []relation.Tuple {
	return relation.Take(s.it, n)
}

// SourceStats aggregates a data source's cost and behaviour counters. All
// simulated times are in virtual milliseconds under the experiment cost
// model.
type SourceStats struct {
	Queries         int64   // CAQL queries served
	RemoteRequests  int64   // DML requests issued to the remote DBMS
	RemoteTuples    int64   // tuples shipped from the remote DBMS
	RemoteSimMS     float64 // simulated remote time (requests + transfer + server ops)
	LocalSimMS      float64 // simulated CMS-local processing time
	ResponseSimMS   float64 // simulated session response time (overlaps collapsed)
	CacheHits       int64   // queries answered entirely from the cache
	PartialHits     int64   // queries partially answered from the cache
	ExactHits       int64   // full hits that were exact result-cache matches
	Prefetches      int64   // prefetch requests issued
	PrefetchHits    int64   // queries answered by previously prefetched data
	PrefetchDrops   int64   // prefetch requests dropped (worker pool saturated)
	Generalizations int64   // queries widened before remote execution
	Evictions       int64   // cache elements evicted
	IndexBuilds     int64   // attribute indexes built on cached extensions
	LazyAnswers     int64   // queries answered with a generator (lazy)

	// Fault-tolerance counters (populated when the remote client is a
	// remotedb.ResilientClient and/or the remote becomes unavailable).
	DegradedHits   int64 // cache hits served while the remote was unavailable
	RemoteFailures int64 // remote requests that failed after all retries (or failed fast)
	Retries        int64 // remote request retry attempts
	BreakerOpens   int64 // circuit-breaker open transitions
	StreamResumes  int64 // mid-stream failures repaired by resume re-dispatch

	// EpochInvalidations counts cached views evicted because a request
	// observed a newer version of a table the view reads than the epoch the
	// view was built under — the staleness defense refusing to serve a state
	// the server has moved past (zero when the transport does not report
	// epochs).
	EpochInvalidations int64

	// Streamed-transport counters (populated when the remote client is the
	// framed network transport; zero in-process).
	FramesSent      int64   // protocol frames written to the remote DBMS
	FramesRecv      int64   // protocol frames received from the remote DBMS
	RemoteStreams   int64   // streamed exec results opened
	StreamsCanceled int64   // remote streams torn down mid-flight
	FirstTupleMS    float64 // mean wall-clock ms from request to first frame

	// Dispatch-outcome counters. Every issued query resolves to exactly one
	// outcome, so the conservation invariant Queries = Completed + Canceled +
	// DeadlineExceeded + Failed holds at any quiescent point (the chaos
	// harness asserts it).
	Canceled         int64 // queries aborted by caller cancellation
	DeadlineExceeded int64 // queries aborted by the caller's deadline
	Completed        int64 // queries that returned a stream
	Failed           int64 // queries that failed for any other reason
	PanicsRecovered  int64 // panics isolated to one query/prefetch (process survived)
}

// DispatchConserved checks the stats-conservation invariant: every issued
// query is accounted by exactly one outcome counter. It only holds at
// quiescent points (no query mid-dispatch).
func (s SourceStats) DispatchConserved() bool {
	return s.Queries == s.Completed+s.Canceled+s.DeadlineExceeded+s.Failed
}

// Session is one advice-then-queries interaction (Section 3: "a session ...
// consists of a set of advice. This is followed by a sequence of CAQL
// queries").
//
// A session keeps no reference into a query once Query or QueryCtx returns:
// what it keeps, it copies (the CMS clones a cached view's definition), so
// the caller may overwrite the query's atoms and terms for its next query
// while the answer is still open.
type Session interface {
	// Query answers one CAQL query (no cancellation: context.Background).
	Query(q *caql.Query) (*Stream, error)
	// QueryCtx answers one CAQL query under the caller's context: a canceled
	// or expired ctx aborts remote calls, planning, and lazy generators, and
	// the query resolves to a typed ErrCanceled/ErrDeadlineExceeded. A lazy
	// answer keeps watching ctx after QueryCtx returns, until it is drained
	// or closed.
	QueryCtx(ctx context.Context, q *caql.Query) (*Stream, error)
	// QueryText parses and answers a query in CAQL surface syntax.
	QueryText(src string) (*Stream, error)
	// QueryTextCtx is QueryText under the caller's context.
	QueryTextCtx(ctx context.Context, src string) (*Stream, error)
	// End closes the session, canceling its in-flight background work.
	End()
}

// DataSource is the IE-facing surface of the CMS and of the baseline
// comparators.
type DataSource interface {
	// BeginSession starts a session; adv may be nil (advice is optional).
	// The session may read adv until its End and must keep no pointer into
	// it afterwards: the caller may rebuild its next advice in the same
	// storage.
	BeginSession(adv *advice.Advice) Session
	// RelationSchema resolves a base relation schema (caql.SchemaSource).
	RelationSchema(name string, arity int) (*relation.Schema, error)
	// RelationStats returns catalog statistics (cardinality, per-column
	// distinct counts) for a base relation; the IE's problem-graph shaper
	// consumes these for conjunct ordering (Section 4.1). The returned
	// Distinct slice may be shared with later calls: read it, never write it.
	RelationStats(name string) (remotedb.TableStats, error)
	// Stats returns cumulative counters.
	Stats() SourceStats
}
