package remotedb

import (
	"context"

	"repro/internal/relation"
)

// TupleStream is an incrementally delivered exec result: the paper's "stream
// interface with buffering and pipelining" between the CMS and the remote
// DBMS. Tuples arrive in frames; Next hands them out one at a time, so the
// consumer sees the first tuple after one frame instead of after the whole
// relation, and peak memory is bounded by the in-flight frames rather than
// the result size.
//
// A TupleStream is single-consumer and not safe for concurrent use. It
// implements relation.Iterator plus the Err() error convention of
// relation.GuardIterator, so bridge.NewStream surfaces a mid-stream
// cancellation as a typed error instead of a silently short result.
//
// Ops and SimMS are defined only after the stream terminated (Next returned
// false): the server reports its operation count on the terminal frame, and
// the virtual cost of the request is charged at that point.
type TupleStream interface {
	relation.Iterator
	// Schema is the result schema, known from the header frame on.
	Schema() *relation.Schema
	// Name is the result relation's name as reported by the server.
	Name() string
	// Err reports why the stream stopped: nil for natural exhaustion, the
	// caller's context error for mid-stream cancellation, a transport or
	// semantic error otherwise. Valid once Next has returned false.
	Err() error
	// Close abandons the stream: a cancel frame tears down the server-side
	// producer for this one request while the connection keeps serving other
	// streams. Closing an exhausted stream is a no-op. Close is idempotent.
	Close() error
	// Ops is the server-side tuple operation count (terminal frame).
	Ops() int64
	// SimMS is the simulated cost charged for this request under the client's
	// cost model. Valid after the stream terminated.
	SimMS() float64
}

// StreamClient is implemented by clients that can deliver exec results
// incrementally (PoolClient). ExecStream returns once the result
// header arrives; tuples then stream in frames.
type StreamClient interface {
	Client
	ExecStream(ctx context.Context, sql string) (TupleStream, error)
}

// ResumableClient is implemented by stream clients that can re-issue a
// streamed exec carrying a resume token (PoolClient; FaultClient passes
// through). Skip is the number of result tuples the caller already
// delivered to its consumer: the server skips them when the pinned snapshot
// survives, and otherwise serves a fresh stream whose header reports
// Resumed=false so the caller skips them itself.
type ResumableClient interface {
	StreamClient
	ExecStreamResume(ctx context.Context, sql, token string, skip int64) (TupleStream, error)
}

// ResumeReporter is implemented by streams whose header carried resume state:
// the token pinning this stream's snapshot (empty for non-resumable results)
// and whether the server honored a token by skipping server-side.
type ResumeReporter interface {
	ResumeState() (token string, resumed bool)
}

// ExecStreamResumeContext re-issues sql with a resume token through c when it
// supports resumption; otherwise it opens a plain stream — which never
// implements ResumeReporter, so the caller treats it as a full restart and
// skips its delivered prefix client-side.
func ExecStreamResumeContext(ctx context.Context, c Client, sql, token string, skip int64) (TupleStream, error) {
	if rc, ok := c.(ResumableClient); ok && token != "" {
		return rc.ExecStreamResume(ctx, sql, token, skip)
	}
	return ExecStreamContext(ctx, c, sql)
}

// ExecStreamContext issues sql through c as a stream when the client supports
// it, and otherwise falls back to a materialized ExecContext whose result is
// replayed through the same TupleStream surface — so the CMS consumes every
// transport uniformly and streaming composes with the resilience and fault
// wrappers even when an inner layer is not stream-aware.
func ExecStreamContext(ctx context.Context, c Client, sql string) (TupleStream, error) {
	if sc, ok := c.(StreamClient); ok {
		return sc.ExecStream(ctx, sql)
	}
	res, err := ExecContext(ctx, c, sql)
	if err != nil {
		return nil, err
	}
	return NewMaterializedStream(res), nil
}

// materializedStream adapts a fully materialized Result to the TupleStream
// surface (the in-process fallback).
type materializedStream struct {
	res    *Result
	it     relation.Iterator
	schema *relation.Schema
	name   string
	closed bool
	err    error
}

// NewMaterializedStream wraps an already-materialized exec result in the
// stream surface. Ops is unknown at this layer (the wrapped client already
// accounted it) and reported as 0.
func NewMaterializedStream(res *Result) TupleStream {
	m := &materializedStream{res: res}
	if res.Rel != nil {
		m.schema = res.Rel.Schema()
		m.name = res.Rel.Name
		m.it = res.Rel.Iter()
	} else {
		m.it = relation.Empty()
	}
	return m
}

func (m *materializedStream) Next() (relation.Tuple, bool) {
	if m.closed {
		return nil, false
	}
	return m.it.Next()
}

func (m *materializedStream) Schema() *relation.Schema { return m.schema }
func (m *materializedStream) Name() string             { return m.name }
func (m *materializedStream) Err() error               { return m.err }
func (m *materializedStream) Ops() int64               { return 0 }
func (m *materializedStream) SimMS() float64           { return m.res.SimMS }

func (m *materializedStream) Close() error {
	if !m.closed {
		m.closed = true
		m.err = ErrStreamClosed
	}
	return nil
}

// DrainStream materializes a stream into a relation named name, bulk
// appending so hot decode paths validate arity once per batch. It returns the
// stream's terminal error, so a canceled stream can never be mistaken for a
// complete result.
func DrainStream(name string, st TupleStream) (*relation.Relation, error) {
	out := relation.New(name, st.Schema())
	const batch = 256
	buf := make([]relation.Tuple, 0, batch)
	for {
		t, ok := st.Next()
		if ok {
			buf = append(buf, t)
		}
		if len(buf) == batch || (!ok && len(buf) > 0) {
			if err := out.AppendAll(buf); err != nil {
				st.Close()
				return nil, err
			}
			buf = buf[:0]
		}
		if !ok {
			break
		}
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
