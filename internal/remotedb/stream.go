package remotedb

import "repro/internal/relation"

// TupleStream is an incrementally delivered exec result: the paper's "stream
// interface with buffering and pipelining" between the CMS and the remote
// DBMS. Tuples arrive in frames; Next hands them out one at a time, so the
// consumer sees the first tuple after one frame instead of after the whole
// relation, and peak memory is bounded by the in-flight frames rather than
// the result size.
//
// A tuple handed out by Next stays valid and may be kept: no later Next, and
// no later request, writes into it. DrainStream keeps batches of tuples
// across Next calls, and the RDI hands a wire row on as its head row.
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

// ResumeReporter is implemented by streams whose header carried resume state:
// the token pinning this stream's snapshot (empty for non-resumable results)
// and whether the server honored a token by skipping server-side.
type ResumeReporter interface {
	ResumeState() (token string, resumed bool)
}

// materializedStream replays a fully materialized Result through the stream
// surface (the in-process transport).
type materializedStream struct {
	res    *Result
	ops    int64
	it     relation.Iterator
	schema *relation.Schema
	name   string
	err    error
}

func newMaterializedStream(res *Result, ops int64) TupleStream {
	m := &materializedStream{res: res, ops: ops, it: relation.Empty()}
	if res.Rel != nil {
		m.schema, m.name, m.it = res.Rel.Schema(), res.Rel.Name, res.Rel.Iter()
	}
	return m
}

func (m *materializedStream) Next() (relation.Tuple, bool) {
	if m.err != nil {
		return nil, false
	}
	return m.it.Next()
}

func (m *materializedStream) Schema() *relation.Schema { return m.schema }
func (m *materializedStream) Name() string             { return m.name }
func (m *materializedStream) Err() error               { return m.err }
func (m *materializedStream) Ops() int64               { return m.ops }
func (m *materializedStream) SimMS() float64           { return m.res.SimMS }

func (m *materializedStream) Close() error {
	if m.err == nil {
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
