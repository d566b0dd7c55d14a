package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// The traced pass records spans from the benchmark's own files only: a
// decorator at each boundary between two layers times the calls that cross
// it. Spans inside the program are a later change.
//
// A span is either one call (busy == end-start) or one result stream, whose
// busy time is the sum of its Next calls: BrAID's streams are lazy, so the
// work of a query is done while its consumer drains it, interleaved with the
// consumer's own work. A layer's self time is its spans' busy time minus the
// busy time of their child spans.

// Span names, one per boundary crossed.
const (
	spanOp           = "op"             // harness -> ie (ie_ask) or the first layer of the workload
	spanCacheQuery   = "cache.query"    // ie -> cache: Session.Query*
	spanCacheStream  = "cache.stream"   // ie draining a CMS stream
	spanCacheCatalog = "cache.catalog"  // ie -> cache: schema and statistics
	spanClientExec   = "client.exec"    // cache -> remotedb client: Exec*, ExecStream* up to the header
	spanClientStream = "client.stream"  // cache draining a wire stream
	spanClientCat    = "client.catalog" // cache -> remotedb client: schema, statistics, tables
)

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: none
	Op     int32  `json:"op"`     // index of the op in the pass; spans of one op share it
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	sql   []string // every statement the client decorator saw, in order

	// cur is the innermost open span. The benchmark's loop is closed and has
	// one caller, so one register is enough; the CMS's prefetch workers are
	// the one other caller, and their spans hang off whatever is current.
	cur atomic.Int32
	op  atomic.Int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset forgets everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.sql = nil, nil
	t.mu.Unlock()
	t.cur.Store(0)
}

// liveSpan is an open span.
type liveSpan struct {
	tr   *tracer
	id   int32
	prev int32
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open records a span with the given parent and returns its id.
func (t *tracer) open(name, detail string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op.Load(), Name: name, Detail: detail, Start: start})
	t.mu.Unlock()
	return id
}

// finish closes span id. busy < 0 means the whole interval was busy.
func (t *tracer) finish(id int32, busy int64) {
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = end
	if busy < 0 {
		busy = end - s.Start
	}
	s.Busy = busy
	t.mu.Unlock()
}

// call opens a call span under the current span and makes it current.
func (t *tracer) call(name, detail string) *liveSpan {
	parent := t.cur.Load()
	id := t.open(name, detail, parent)
	t.cur.Store(id)
	return &liveSpan{tr: t, id: id, prev: parent}
}

func (s *liveSpan) end() {
	s.tr.finish(s.id, -1)
	s.tr.cur.Store(s.prev)
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int, class string) *liveSpan {
	t.op.Store(int32(i))
	t.cur.Store(0)
	return t.call(spanOp, class)
}

// streamSpan times a result stream: each Next runs with the span current, so
// calls the layer below makes while producing a tuple become its children.
// The span is brought up to date after every Next, so a stream its consumer
// abandons still shows the time it took.
type streamSpan struct {
	tr   *tracer
	id   int32
	busy int64
}

func (t *tracer) stream(name, detail string) *streamSpan {
	return &streamSpan{tr: t, id: t.open(name, detail, t.cur.Load())}
}

func (s *streamSpan) enter() (start int64, prev int32) {
	prev = s.tr.cur.Load()
	s.tr.cur.Store(s.id)
	return s.tr.now(), prev
}

func (s *streamSpan) leave(start int64, prev int32) {
	end := s.tr.now()
	s.busy += end - start
	s.tr.cur.Store(prev)
	s.tr.mu.Lock()
	sp := &s.tr.spans[s.id-1]
	sp.End, sp.Busy = end, s.busy
	s.tr.mu.Unlock()
}

// selfByName returns, per span name, the busy time not covered by child
// spans, the busy time, and the span count.
func (t *tracer) selfByName() (self, busy map[string]int64, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.Busy
	}
	self, busy, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	for _, s := range t.spans {
		own := s.Busy - child[s.ID]
		if own < 0 {
			own = 0 // children of a concurrent prefetch worker can outlast their parent
		}
		self[s.Name] += own
		busy[s.Name] += s.Busy
		count[s.Name]++
	}
	return self, busy, count
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) statements() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.sql...)
}

// writeTo writes the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- ie -> cache ----------------------------------------------------------

// tracedSource decorates the IE-facing surface of the CMS.
type tracedSource struct {
	inner bridge.DataSource
	tr    *tracer
}

var _ bridge.DataSource = (*tracedSource)(nil)

func (s *tracedSource) BeginSession(adv *advice.Advice) bridge.Session {
	sp := s.tr.call(spanCacheCatalog, "begin_session")
	defer sp.end()
	return &tracedSession{inner: s.inner.BeginSession(adv), tr: s.tr}
}

func (s *tracedSource) RelationSchema(name string, arity int) (*relation.Schema, error) {
	sp := s.tr.call(spanCacheCatalog, "schema")
	defer sp.end()
	return s.inner.RelationSchema(name, arity)
}

func (s *tracedSource) RelationStats(name string) (remotedb.TableStats, error) {
	sp := s.tr.call(spanCacheCatalog, "stats")
	defer sp.end()
	return s.inner.RelationStats(name)
}

func (s *tracedSource) Stats() bridge.SourceStats { return s.inner.Stats() }

type tracedSession struct {
	inner bridge.Session
	tr    *tracer
}

func (s *tracedSession) traced(name string, run func() (*bridge.Stream, error)) (*bridge.Stream, error) {
	sp := s.tr.call(spanCacheQuery, name)
	st, err := run()
	sp.end()
	if err != nil {
		return nil, err
	}
	ss := s.tr.stream(spanCacheStream, name)
	return bridge.NewStream(st.Schema(), &tracedIter{inner: st, sp: ss}, st.Lazy()), nil
}

func (s *tracedSession) Query(q *caql.Query) (*bridge.Stream, error) {
	return s.traced(q.Name(), func() (*bridge.Stream, error) { return s.inner.Query(q) })
}

func (s *tracedSession) QueryCtx(ctx context.Context, q *caql.Query) (*bridge.Stream, error) {
	return s.traced(q.Name(), func() (*bridge.Stream, error) { return s.inner.QueryCtx(ctx, q) })
}

func (s *tracedSession) QueryText(src string) (*bridge.Stream, error) {
	return s.traced("", func() (*bridge.Stream, error) { return s.inner.QueryText(src) })
}

func (s *tracedSession) QueryTextCtx(ctx context.Context, src string) (*bridge.Stream, error) {
	return s.traced("", func() (*bridge.Stream, error) { return s.inner.QueryTextCtx(ctx, src) })
}

func (s *tracedSession) End() {
	sp := s.tr.call(spanCacheCatalog, "end_session")
	defer sp.end()
	s.inner.End()
}

// tracedIter times a CMS stream's Next calls. It forwards Err, which
// bridge.NewStream picks up, so a canceled stream still reads as canceled.
type tracedIter struct {
	inner *bridge.Stream
	sp    *streamSpan
}

func (it *tracedIter) Next() (relation.Tuple, bool) {
	start, prev := it.sp.enter()
	t, ok := it.inner.Next()
	it.sp.leave(start, prev)
	return t, ok
}

func (it *tracedIter) Err() error { return it.inner.Err() }

// ---- cache -> remotedb client ---------------------------------------------

// wireClient is everything a PoolClient can do that the CMS asks about. The
// decorator implements all of it, so the RDI's capability probes
// (StreamClient, ContextClient, ResumableClient, EpochReporter) answer the
// same for the decorated client as for the bare one.
type wireClient interface {
	remotedb.ResumableClient
	remotedb.ContextClient
	remotedb.EpochReporter
}

type tracedClient struct {
	inner wireClient
	tr    *tracer
}

var (
	_ wireClient           = (*tracedClient)(nil)
	_ remotedb.InnerClient = (*tracedClient)(nil)
	_ wireClient           = (*remotedb.PoolClient)(nil)
)

func (c *tracedClient) note(sql string) {
	c.tr.mu.Lock()
	c.tr.sql = append(c.tr.sql, sql)
	c.tr.mu.Unlock()
}

func (c *tracedClient) Exec(sql string) (*remotedb.Result, error) {
	c.note(sql)
	sp := c.tr.call(spanClientExec, "exec")
	defer sp.end()
	return c.inner.Exec(sql)
}

func (c *tracedClient) ExecCtx(ctx context.Context, sql string) (*remotedb.Result, error) {
	c.note(sql)
	sp := c.tr.call(spanClientExec, "exec")
	defer sp.end()
	return c.inner.ExecCtx(ctx, sql)
}

func (c *tracedClient) ExecStream(ctx context.Context, sql string) (remotedb.TupleStream, error) {
	return c.ExecStreamResume(ctx, sql, "", 0)
}

func (c *tracedClient) ExecStreamResume(ctx context.Context, sql, token string, skip int64) (remotedb.TupleStream, error) {
	c.note(sql)
	sp := c.tr.call(spanClientExec, "stream")
	st, err := c.inner.ExecStreamResume(ctx, sql, token, skip)
	sp.end()
	if err != nil {
		return nil, err
	}
	ts := &tracedStream{TupleStream: st, sp: c.tr.stream(spanClientStream, "")}
	if rr, ok := st.(remotedb.ResumeReporter); ok {
		return &tracedResumableStream{tracedStream: ts, rr: rr}, nil
	}
	return ts, nil
}

func (c *tracedClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	sp := c.tr.call(spanClientCat, "schema")
	defer sp.end()
	return c.inner.RelationSchema(name, arity)
}

func (c *tracedClient) TableStats(name string) (remotedb.TableStats, error) {
	sp := c.tr.call(spanClientCat, "stats")
	defer sp.end()
	return c.inner.TableStats(name)
}

func (c *tracedClient) Tables() ([]string, error) {
	sp := c.tr.call(spanClientCat, "tables")
	defer sp.end()
	return c.inner.Tables()
}

func (c *tracedClient) Stats() remotedb.Stats  { return c.inner.Stats() }
func (c *tracedClient) ObservedEpoch() uint64  { return c.inner.ObservedEpoch() }
func (c *tracedClient) Inner() remotedb.Client { return c.inner }

// Close leaves the connection to its owner, the stack.
func (c *tracedClient) Close() error { return nil }

// tracedStream times a wire stream's Next calls; everything else is the
// inner stream's.
type tracedStream struct {
	remotedb.TupleStream
	sp *streamSpan
}

func (s *tracedStream) Next() (relation.Tuple, bool) {
	start, prev := s.sp.enter()
	t, ok := s.TupleStream.Next()
	s.sp.leave(start, prev)
	return t, ok
}

func (s *tracedStream) Close() error {
	start, prev := s.sp.enter()
	err := s.TupleStream.Close()
	s.sp.leave(start, prev)
	return err
}

// tracedResumableStream also forwards the resume state of a stream that has
// one, so a resilient wrapper above would still resume it.
type tracedResumableStream struct {
	*tracedStream
	rr remotedb.ResumeReporter
}

func (s *tracedResumableStream) ResumeState() (string, bool) { return s.rr.ResumeState() }
