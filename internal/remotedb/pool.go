package remotedb

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// PoolClient is the network transport: a pool of TCP connections, each
// carrying any number of in-flight requests as tagged frames, with responses
// streamed back as tuple batches. Size 1 is the single-connection client. It
// provides:
//
//   - streaming: ExecStream returns after the result header frame; tuples
//     arrive in frames of the negotiated size, so first-tuple latency is one
//     frame, not one relation, and client memory is bounded by the frame
//     window rather than the result.
//   - multiplexing: request-ID-tagged frames let many requests share one
//     connection; responses interleave at frame granularity.
//   - a pool: requests are dispatched to the least-loaded connection, so K
//     concurrent sessions spread over N sockets instead of convoying behind
//     one.
//   - mid-stream cancellation: canceling one stream sends a cancel frame and
//     tears down only that stream's server-side producer; the connection and
//     every other stream keep going.
type PoolClient struct {
	addr string
	opts PoolOptions

	nextID atomic.Uint64

	mu     sync.Mutex
	conns  []*muxConn
	closed bool
	// shut mirrors closed as an atomic so muxConn.ensure / dialLocked can
	// refuse to (re)dial after Close without taking p.mu under c.mu.
	// Without this check, a pick racing Close can redial a connection Close
	// already tore down, leaking the socket and its read-loop goroutine.
	shut atomic.Bool

	stats statsRec
}

// statsRec is a client's counter store: one atomic per Stats field, so the
// hot path (every frame, every request) never takes a lock and a Stats()
// snapshot during load is race-free. SimMS, the one float, accumulates via
// CAS on its bit pattern.
type statsRec struct {
	requests        atomic.Int64
	catalogRequests atomic.Int64
	tuplesReturned  atomic.Int64
	serverOps       atomic.Int64
	framesSent      atomic.Int64
	framesRecv      atomic.Int64
	streams         atomic.Int64
	streamsCanceled atomic.Int64
	firstTupleNS    atomic.Int64
	simMSBits       atomic.Uint64
	seen            versionVec // server clock and table versions, folded from every connection
}

func (r *statsRec) addSimMS(d float64) {
	for {
		old := r.simMSBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if r.simMSBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (r *statsRec) snapshot() Stats {
	return Stats{
		Requests:        r.requests.Load(),
		CatalogRequests: r.catalogRequests.Load(),
		TuplesReturned:  r.tuplesReturned.Load(),
		ServerOps:       r.serverOps.Load(),
		SimMS:           math.Float64frombits(r.simMSBits.Load()),
		FramesSent:      r.framesSent.Load(),
		FramesRecv:      r.framesRecv.Load(),
		Streams:         r.streams.Load(),
		StreamsCanceled: r.streamsCanceled.Load(),
		FirstTupleNS:    r.firstTupleNS.Load(),
		Epoch:           r.seen.epoch.Load(),
	}
}

// PoolOptions configures a PoolClient.
type PoolOptions struct {
	// Size is the number of pooled connections (default 1).
	Size int
	// FrameTuples is the preferred response frame size in tuples, sent as a
	// hint at negotiation (0: server default). The server clamps it.
	FrameTuples int
	// streamWindow is how many undelivered response frames one stream may
	// buffer client-side before backpressure stalls the connection's reader
	// (and, through TCP, the server's writer). Default 8.
	streamWindow int
	// Costs is the virtual cost model charged per request.
	Costs Costs
	// DialTimeout bounds connection establishment (0: no bound).
	DialTimeout time.Duration
	// RequestTimeout bounds the hello handshake and each wait for the next
	// frame of a stream (0: no bound).
	RequestTimeout time.Duration
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.Size <= 0 {
		o.Size = 1
	}
	if o.streamWindow <= 0 {
		o.streamWindow = 8
	}
	return o
}

// DialPool connects a pool of opts.Size connections to a Server at addr and
// opens each with the hello handshake. The first connection is dialed eagerly
// (so an unreachable address fails fast); the rest are dialed on demand.
func DialPool(addr string, opts PoolOptions) (*PoolClient, error) {
	opts = opts.withDefaults()
	p := &PoolClient{addr: addr, opts: opts}
	p.conns = make([]*muxConn, opts.Size)
	for i := range p.conns {
		p.conns[i] = &muxConn{p: p, broken: true}
	}
	if err := p.conns[0].ensure(context.Background()); err != nil {
		return nil, err
	}
	return p, nil
}

// pick returns the connection with the fewest in-flight requests — the
// pool's fair dispatch: sessions hashing onto a hot connection migrate to
// idle ones instead of convoying. A connection is found dead only by the
// request that meets it (its read loop or a write tears it down); once its
// failed streams settle it carries no load, so a pick lands on it and
// redials it.
func (p *PoolClient) pick(ctx context.Context) (*muxConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("remotedb: client closed")
	}
	best, bestLoad := p.conns[0], p.conns[0].load.Load()
	for _, c := range p.conns[1:] {
		if l := c.load.Load(); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	p.mu.Unlock()
	if err := best.ensure(ctx); err != nil {
		return nil, err
	}
	return best, nil
}

// Stats implements Client. The snapshot is assembled from per-field atomics,
// so it is safe (and exact per field) while requests are in flight.
func (p *PoolClient) Stats() Stats {
	return p.stats.snapshot()
}

// Close implements Client: every connection is torn down; in-flight streams
// fail with a transport error.
func (p *PoolClient) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.shut.Store(true)
	conns := append([]*muxConn(nil), p.conns...)
	p.mu.Unlock()
	for _, c := range conns {
		c.teardown(&TransportError{Op: "close", Err: net.ErrClosed})
	}
	return nil
}

// ObservedEpoch implements Client: the highest server clock seen on
// any response through this pool.
func (p *PoolClient) ObservedEpoch() uint64 { return p.stats.seen.epoch.Load() }

// ObservedVersion implements VersionReporter. Each connection's frames carry
// every version that moved since that connection's previous report, so the
// fold over all connections is complete up to ObservedEpoch.
func (p *PoolClient) ObservedVersion(table string) uint64 { return p.stats.seen.version(table) }

// breakConn tears down one pooled connection without closing the pool — the
// fault-injection hook FaultClient uses to model a dropped connection, so the
// redial machinery is exercised on the pooled transport too.
func (p *PoolClient) breakConn() {
	p.mu.Lock()
	if len(p.conns) == 0 {
		p.mu.Unlock()
		return
	}
	c := p.conns[int(p.nextID.Add(1))%len(p.conns)]
	p.mu.Unlock()
	c.teardown(&TransportError{Op: "exec", Err: ErrBrokenConn})
}

// Exec implements Client.
func (p *PoolClient) Exec(sql string) (*Result, error) {
	return p.ExecCtx(context.Background(), sql)
}

// ExecCtx implements Client by draining the stream into a materialized
// Result — callers that want incremental delivery use ExecStream.
func (p *PoolClient) ExecCtx(ctx context.Context, sql string) (*Result, error) {
	st, err := p.ExecStream(ctx, sql)
	if err != nil {
		return nil, err
	}
	rel, err := DrainStream(st.Name(), st)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: rel, SimMS: st.SimMS()}, nil
}

// ExecStream implements Client: it returns once the result header (or
// a terminal error) arrives; tuples then stream in frames. The context
// governs the whole stream life: cancellation mid-stream sends a cancel frame
// and surfaces the typed context error from the stream's Err.
func (p *PoolClient) ExecStream(ctx context.Context, sql string) (TupleStream, error) {
	return p.ExecStreamResume(ctx, sql, "", 0)
}

// ExecStreamResume implements Client: it re-issues sql carrying the
// resume token of a stream that died after delivering skip tuples. The
// re-issue goes through pick like any request: if it lands on the connection
// that died, that connection is redialed first. An empty token is a plain
// ExecStream.
func (p *PoolClient) ExecStreamResume(ctx context.Context, sql, token string, skip int64) (TupleStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, &TransportError{Op: "exec", Err: err}
	}
	conn, err := p.pick(ctx)
	if err != nil {
		return nil, &TransportError{Op: "exec", Err: err}
	}
	return conn.execStream(ctx, sql, token, skip)
}

// roundTrip dispatches one non-exec catalog request.
func (p *PoolClient) roundTrip(req *wireRequest) (*wireFrame, error) {
	conn, err := p.pick(context.Background())
	if err != nil {
		return nil, &TransportError{Op: req.Op, Err: err}
	}
	return conn.request(context.Background(), req)
}

// RelationSchema implements Client.
func (p *PoolClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	resp, err := p.roundTrip(&wireRequest{Op: "schema", Name: name})
	if err != nil {
		return nil, err
	}
	defer resp.release()
	sch, err := fromWireAttrs(resp.Attrs)
	if err != nil {
		return nil, &ProtocolError{Op: "schema", Err: err}
	}
	if arity >= 0 && sch.Arity() != arity {
		return nil, errArity(name, sch.Arity(), arity)
	}
	return sch, nil
}

// TableStats implements Client.
func (p *PoolClient) TableStats(name string) (TableStats, error) {
	resp, err := p.roundTrip(&wireRequest{Op: "stats", Name: name})
	if err != nil {
		return TableStats{}, err
	}
	defer resp.release()
	return resp.Stats, nil
}

// Tables implements Client.
func (p *PoolClient) Tables() ([]string, error) {
	resp, err := p.roundTrip(&wireRequest{Op: "tables"})
	if err != nil {
		return nil, err
	}
	defer resp.release()
	return resp.Tables, nil
}

// muxConn is one pooled connection: a shared write path (wmu serializes frame
// writes) and a reader goroutine that demultiplexes response frames to
// streams by request ID.
type muxConn struct {
	p *PoolClient

	// load counts in-flight requests for the pool's least-loaded dispatch.
	load atomic.Int64

	mu      sync.Mutex // connection state + stream registry
	conn    net.Conn
	broken  bool
	streams map[uint64]*muxStream
	// gen counts successful dials. Teardown requests that originate from a
	// particular connection (its read loop, a failed write on it) carry the
	// generation they belong to and are dropped if a redial has since
	// replaced it — otherwise a stale read loop waking up on its closed
	// socket would tear down the fresh connection it never owned.
	gen uint64

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // the frame being written; guarded by wmu

	// heads maps the encoded name and attrs of the headers this connection
	// has read (wireFrame.Head) to what they resolve to, so a statement of a
	// shape seen before gets the schema the first one built. The bytes are
	// the whole schema, so an entry stays right across redials and table
	// replacements. At most maxHeads entries; guarded by mu.
	heads map[string]streamHead
	// spare holds the channels of streams that ended cleanly, for the next
	// execStream: at most keptChans, each frames channel empty and each gone
	// channel open; guarded by mu.
	spare []streamChans
}

// streamHead is what a header's name and attrs resolve to. Schemas are
// immutable, so every stream of one header shares it.
type streamHead struct {
	name   string
	schema *relation.Schema
}

// streamChans is the channel pair of one stream, kept for the next.
type streamChans struct {
	frames chan *wireFrame
	gone   chan struct{}
}

// maxHeads bounds a connection's header memo: one that holds as many starts
// over. A workload's result shapes are few, and an entry is a few dozen bytes.
const maxHeads = 64

// keptChans bounds a connection's spare channel pairs. The connection runs
// as many streams at once as its callers do, and a pair beyond those would
// wait unused.
const keptChans = 4

// ensure makes the connection usable, dialing it if it was never dialed or
// redialing it if a teardown broke it.
func (c *muxConn) ensure(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.p.shut.Load() {
		// pick released p.mu before calling ensure, so Close may have torn
		// everything down in between; dialing now would resurrect a
		// connection nobody will ever tear down again.
		return errors.New("remotedb: client closed")
	}
	if !c.broken && c.conn != nil {
		return nil
	}
	return c.dialLocked(ctx)
}

// dialLocked (re)establishes the connection and opens it with the hello
// handshake. Caller holds c.mu.
func (c *muxConn) dialLocked(ctx context.Context) error {
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = nil
	c.broken = true
	d := net.Dialer{Timeout: c.p.opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.p.addr)
	if err != nil {
		return err
	}
	br, err := c.handshake(ctx, conn)
	if err != nil {
		conn.Close()
		return err
	}
	if c.p.shut.Load() {
		// Close ran while we were dialing (it cannot hold c.mu across our
		// dial): this connection is already past its teardown, so finish the
		// job ourselves instead of leaking the socket.
		conn.Close()
		return errors.New("remotedb: client closed")
	}
	c.conn = conn
	c.broken = false
	c.streams = make(map[uint64]*muxStream)
	c.gen++
	go c.readLoop(br, c.gen)
	return nil
}

// handshake opens a fresh connection with the hello (wire.go) and returns
// the reader the connection's frames are read through. It is the one blocking
// exchange outside the read loop and it runs under c.mu, so it is bounded by
// the earlier of ctx's deadline and RequestTimeout and woken by cancellation:
// a peer that accepts TCP and then says nothing must not wedge pick behind the
// lock.
func (c *muxConn) handshake(ctx context.Context, conn net.Conn) (*bufio.Reader, error) {
	opts := c.p.opts
	var deadline time.Time
	if opts.RequestTimeout > 0 {
		deadline = time.Now().Add(opts.RequestTimeout)
	}
	ctxOwns := false
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline, ctxOwns = d, true
	}
	conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	hello := append([]byte(helloMagic), protoV5)
	hello = binary.AppendUvarint(hello, uint64(max(opts.FrameTuples, 0)))
	br := bufio.NewReader(conn)
	_, err := conn.Write(hello)
	var answer []byte
	if err == nil {
		answer, err = br.Peek(len(helloMagic) + 1)
	}
	if !stop() {
		// ctx ended during the exchange and its watcher owns the socket
		// deadline now, so the connection is unusable even if hello got through.
		return nil, &TransportError{Op: "hello", Err: ctx.Err()}
	}
	if err != nil && ctxOwns && isTimeout(err) {
		// The socket deadline was ctx's own: its timer can fire a hair
		// before ctx.Err() turns non-nil.
		return nil, &TransportError{Op: "hello", Err: context.DeadlineExceeded}
	}
	if err == nil && string(answer[:len(helloMagic)]) == helloMagic {
		if v := answer[len(helloMagic)]; v != protoV5 {
			return nil, &ProtocolError{Op: "hello", Err: fmt.Errorf("server answered protocol %d, want %d", v, protoV5)}
		}
		br.Discard(len(answer))
		conn.SetDeadline(time.Time{})
		return br, nil
	}
	// Not the accepting bytes: a refusal, which is one short error frame, or
	// a peer that speaks another protocol altogether.
	if h, perr := br.Peek(4); perr == nil && le.Uint32(h) <= 1<<10 {
		if f, ferr := readFrame(br); ferr == nil && f.Kind == frameEnd && f.Err != "" {
			return nil, &ProtocolError{Op: "hello", Err: errors.New(f.Err)}
		}
	}
	if err == nil {
		err = fmt.Errorf("the server does not answer hello at protocol %d", protoV5)
	}
	return nil, &ProtocolError{Op: "hello", Err: err}
}

// teardown breaks the connection and fails every in-flight stream with err;
// the next request that picks it redials.
func (c *muxConn) teardown(err error) {
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = nil
	c.broken = true
	streams := c.streams
	c.streams = nil
	c.mu.Unlock()
	for _, st := range streams {
		st.fail(err)
	}
}

// teardownGen is teardown gated on the connection generation: a read loop
// whose connection has already been replaced by a redial must not tear down
// the replacement. The stale loop's own socket is closed (that is what woke
// it), and its streams were failed by the teardown that preceded the redial.
func (c *muxConn) teardownGen(err error, gen uint64) {
	c.mu.Lock()
	stale := c.gen != gen
	c.mu.Unlock()
	if stale {
		return
	}
	c.teardown(err)
}

// readLoop is the demultiplexer: one goroutine per connection routes
// response frames to their stream. Delivery blocks when a stream's window is
// full — that is the client half of end-to-end backpressure (the stalled
// reader stops draining the socket, TCP fills, the server's writer blocks).
// A dead stream never blocks the loop: its gone channel drops late frames.
func (c *muxConn) readLoop(br *bufio.Reader, gen uint64) {
	for {
		f, err := readFrame(br)
		if err != nil {
			c.teardownGen(&TransportError{Op: "read", Err: err}, gen)
			return
		}
		c.p.stats.framesRecv.Add(1)
		if f.Epoch > 0 {
			// Folded before the frame is handed on, so a caller that sees its
			// request's end has also seen the versions it reported.
			c.p.stats.seen.note(f.Epoch, f.versions())
		}
		c.mu.Lock()
		st := c.streams[f.ID]
		if st != nil && f.Kind == frameEnd {
			delete(c.streams, f.ID)
		}
		c.mu.Unlock()
		if st == nil {
			f.release() // a canceled stream's late frame
			continue
		}
		select {
		case st.frames <- f:
		case <-st.gone:
			f.release()
		}
	}
}

// writeFrame writes one frame; a failed write may have left part of it on
// the wire, so the whole connection is torn down.
func (c *muxConn) writeFrame(f *wireFrame) error {
	c.wmu.Lock()
	c.mu.Lock()
	conn, broken, gen := c.conn, c.broken, c.gen
	c.mu.Unlock()
	if broken || conn == nil {
		c.wmu.Unlock()
		return ErrBrokenConn
	}
	err := writeFrame(conn, &c.wbuf, f)
	c.wmu.Unlock()
	if err != nil {
		c.teardownGen(&TransportError{Op: "write", Err: err}, gen)
		return err
	}
	c.p.stats.framesSent.Add(1)
	return nil
}

// execStream starts one streamed exec request.
func (c *muxConn) execStream(ctx context.Context, sql, resume string, skip int64) (TupleStream, error) {
	id := c.p.nextID.Add(1)
	st := &muxStream{c: c, id: id, ctx: ctx, issued: time.Now()}
	c.mu.Lock()
	if c.broken || c.streams == nil {
		c.mu.Unlock()
		return nil, &TransportError{Op: "exec", Err: ErrBrokenConn}
	}
	if n := len(c.spare); n > 0 {
		st.frames, st.gone = c.spare[n-1].frames, c.spare[n-1].gone
		c.spare = c.spare[:n-1]
	} else {
		st.frames, st.gone = make(chan *wireFrame, c.p.opts.streamWindow), make(chan struct{})
	}
	c.streams[id] = st
	c.mu.Unlock()
	c.load.Add(1)

	// The context's trace ID (the CMS-side span's trace, or one adopted
	// upstream) rides the request so server spans stitch into the same
	// trace.
	req := &wireRequest{Op: "exec", SQL: sql, Resume: resume, Skip: skip, Trace: obs.TraceID(ctx)}
	if err := c.writeFrame(&wireFrame{ID: id, Kind: frameReq, Req: req}); err != nil {
		c.unregister(id)
		c.load.Add(-1)
		return nil, &TransportError{Op: "exec", Err: err}
	}
	c.p.stats.requests.Add(1)
	c.p.stats.streams.Add(1)

	// Wait for the header (or a terminal error) so the caller gets a stream
	// with a known schema, and so establishment errors are returned as plain
	// errors that the resilience layer can retry.
	f, err := st.wait()
	if err != nil {
		st.abort(err)
		return nil, err
	}
	switch f.Kind {
	case frameHeader:
		h, err := c.resolveHead(f.Head)
		st.resume, st.resumed = f.Resume, f.Resumed
		f.release()
		if err != nil {
			err = &ProtocolError{Op: "exec", Err: err}
			st.abort(err)
			return nil, err
		}
		st.name, st.schema, st.arity = h.name, h.schema, h.schema.Arity()
		return st, nil
	case frameEnd:
		err := endError(f)
		f.release()
		if err == nil {
			err = &ProtocolError{Op: "exec", Err: errors.New("stream ended before its header")}
		}
		st.finish(err)
		st.recycle()
		return nil, err
	default:
		err := &ProtocolError{Op: "exec", Err: fmt.Errorf("unexpected frame kind %d before header", f.Kind)}
		st.abort(err)
		return nil, err
	}
}

// resolveHead returns what a header's Head resolves to: from the memo, or
// built on a miss, which a repeated attribute name fails.
func (c *muxConn) resolveHead(head []byte) (streamHead, error) {
	c.mu.Lock()
	h, ok := c.heads[string(head)]
	c.mu.Unlock()
	if ok {
		return h, nil
	}
	name, sch, err := decodeHead(head)
	if err != nil {
		return streamHead{}, err
	}
	h = streamHead{name: name, schema: sch}
	c.mu.Lock()
	if c.heads == nil {
		c.heads = make(map[string]streamHead)
	} else if len(c.heads) >= maxHeads {
		clear(c.heads)
	}
	c.heads[string(head)] = h
	c.mu.Unlock()
	return h, nil
}

// endError maps a terminal frame to the client-side error surface (nil for a
// clean end).
func endError(f *wireFrame) error {
	switch f.Code {
	case wireCodeOverloaded:
		return &TransportError{Op: "exec", Err: ErrOverloaded}
	case wireCodeDeadline:
		return &TransportError{Op: "exec", Err: ErrDeadlineExceeded}
	case wireCodeCanceled:
		return &TransportError{Op: "exec", Err: context.Canceled}
	}
	if f.Err != "" {
		return errors.New(f.Err) // semantic: the server answered and said no
	}
	return nil
}

// unregister removes a stream from the demux table; late frames for its ID
// are dropped by the read loop.
func (c *muxConn) unregister(id uint64) {
	c.mu.Lock()
	if c.streams != nil {
		delete(c.streams, id)
	}
	c.mu.Unlock()
}

// request performs one non-exec catalog round trip, returning the terminal
// frame that carries the answer.
func (c *muxConn) request(ctx context.Context, req *wireRequest) (*wireFrame, error) {
	id := c.p.nextID.Add(1)
	st := &muxStream{
		c:      c,
		id:     id,
		ctx:    ctx,
		frames: make(chan *wireFrame, 1),
		gone:   make(chan struct{}),
		issued: time.Now(),
	}
	c.mu.Lock()
	if c.broken || c.streams == nil {
		c.mu.Unlock()
		return nil, &TransportError{Op: req.Op, Err: ErrBrokenConn}
	}
	c.streams[id] = st
	c.mu.Unlock()
	c.load.Add(1)
	defer c.load.Add(-1)
	defer st.stopTimer()
	if err := c.writeFrame(&wireFrame{ID: id, Kind: frameReq, Req: req}); err != nil {
		c.unregister(id)
		return nil, &TransportError{Op: req.Op, Err: err}
	}
	c.p.stats.catalogRequests.Add(1)
	f, err := st.wait()
	if err != nil {
		st.abort(err)
		return nil, err
	}
	if f.Kind != frameEnd {
		err := &ProtocolError{Op: req.Op, Err: fmt.Errorf("unexpected frame kind %d for %s", f.Kind, req.Op)}
		st.abort(err)
		return nil, err
	}
	if err := endError(f); err != nil {
		return nil, err
	}
	return f, nil
}

// muxStream is one in-flight request's client side. Not safe for
// concurrent use (single consumer), except fail/abort which may race from the
// read loop and are serialized by deadOnce.
type muxStream struct {
	c      *muxConn
	id     uint64
	ctx    context.Context
	frames chan *wireFrame
	issued time.Time

	gone     chan struct{} // closed once when the stream dies early
	deadOnce sync.Once
	goneErr  error

	schema *relation.Schema
	name   string

	// resume is the header's resume token ("" for non-resumable results);
	// resumed reports that the server honored a re-issued token server-side.
	resume  string
	resumed bool

	// vals holds the current batch's rows end to end, arity values each;
	// Next hands out rows [pos, rows) as slices of it.
	vals             []relation.Value
	arity, rows, pos int

	// timer bounds each wait for a frame when RequestTimeout is set; one per
	// stream, re-armed by every wait.
	timer *time.Timer

	tuples    int64
	ops       int64
	sim       float64
	firstSeen bool
	done      bool
	settled   bool
	termErr   error
}

// wait blocks for the next frame, honoring the stream context, the
// per-frame-wait RequestTimeout, and early death (connection failure).
func (st *muxStream) wait() (*wireFrame, error) {
	var timerC <-chan time.Time
	if rt := st.c.p.opts.RequestTimeout; rt > 0 {
		if st.timer == nil {
			st.timer = time.NewTimer(rt)
		} else {
			// Under go 1.22 timer semantics a tick that fired while the last
			// frame was arriving stays in the channel through Reset: drain it.
			if !st.timer.Stop() {
				select {
				case <-st.timer.C:
				default:
				}
			}
			st.timer.Reset(rt)
		}
		timerC = st.timer.C
	}
	select {
	case f := <-st.frames:
		return f, nil
	case <-st.gone:
		return nil, st.goneErr
	case <-timerC:
		return nil, &TransportError{Op: "exec", Err: ErrDeadlineExceeded}
	case <-st.ctx.Done():
		return nil, &TransportError{Op: "exec", Err: st.ctx.Err()}
	}
}

// Next implements relation.Iterator.
func (st *muxStream) Next() (relation.Tuple, bool) {
	for {
		if st.pos < st.rows {
			lo, hi := st.pos*st.arity, (st.pos+1)*st.arity
			st.pos++
			// Capped at its own row, so a consumer's append never writes over
			// the next tuple.
			return st.vals[lo:hi:hi], true
		}
		if st.done {
			return nil, false
		}
		f, err := st.wait()
		if err != nil {
			st.abort(err)
			return nil, false
		}
		switch f.Kind {
		case frameBatch:
			st.noteFirst()
			// Decoded here, on the consumer's goroutine: the connection's read
			// loop only moved the bytes. The values do not alias the payload,
			// so the frame goes back to the pool at once.
			vals, rows, derr := decodeBatchValues(f.Batch, st.arity)
			f.release()
			if derr != nil {
				st.abort(&ProtocolError{Op: "exec", Err: derr})
				return nil, false
			}
			st.tuples += int64(rows)
			st.vals, st.rows, st.pos = vals, rows, 0
		case frameEnd:
			st.noteFirst()
			st.ops = f.Ops
			st.finish(endError(f))
			f.release()
			st.recycle()
			return nil, false
		default:
			st.abort(&ProtocolError{Op: "exec", Err: fmt.Errorf("unexpected mid-stream frame kind %d", f.Kind)})
			return nil, false
		}
	}
}

// noteFirst records the first-payload-frame latency once.
func (st *muxStream) noteFirst() {
	if st.firstSeen {
		return
	}
	st.firstSeen = true
	st.c.p.stats.firstTupleNS.Add(time.Since(st.issued).Nanoseconds())
}

// ResumeState implements ResumeReporter.
func (st *muxStream) ResumeState() (token string, resumed bool) {
	return st.resume, st.resumed
}

// finish settles a naturally terminated stream (clean end or server-reported
// terminal error).
func (st *muxStream) finish(err error) {
	if st.done {
		return
	}
	st.done = true
	st.termErr = err
	st.settle()
}

// abort settles a stream that died early (cancellation, timeout, transport
// failure): it tears down the server-side producer with a cancel frame and
// unregisters locally so late frames are dropped.
func (st *muxStream) abort(err error) {
	if st.done {
		return
	}
	st.done = true
	st.termErr = err
	st.c.unregister(st.id)
	st.deadOnce.Do(func() {
		st.goneErr = err
		close(st.gone)
	})
	// Best-effort cancel so the server stops producing for this ID; a broken
	// connection needs no cancel (the whole conn is gone).
	st.c.writeFrame(&wireFrame{ID: st.id, Kind: frameCancel})
	st.c.p.stats.streamsCanceled.Add(1)
	st.settle()
}

// recycle gives the channels of a stream that has read its end frame back
// to its connection. The read loop took the stream out of the demux table
// before it delivered that frame, so neither a later frame nor a teardown
// can reach them, and the end was the stream's last frame, so frames is
// empty. A stream that died early keeps its channels: its gone is closed, or
// a frame may still be on its way into frames.
func (st *muxStream) recycle() {
	c := st.c
	c.mu.Lock()
	if len(c.spare) < keptChans {
		c.spare = append(c.spare, streamChans{frames: st.frames, gone: st.gone})
	}
	c.mu.Unlock()
	st.frames, st.gone = nil, nil
}

// fail is called by the read loop / teardown when the connection dies under
// the stream; the consumer observes it on its next wait.
func (st *muxStream) fail(err error) {
	st.deadOnce.Do(func() {
		st.goneErr = err
		close(st.gone)
	})
}

// stopTimer stops the stream's wait timer, if it has one.
func (st *muxStream) stopTimer() {
	if st.timer != nil {
		st.timer.Stop()
	}
}

// settle charges the virtual cost model once, for what was actually shipped.
func (st *muxStream) settle() {
	if st.settled {
		return
	}
	st.settled = true
	st.stopTimer()
	st.c.load.Add(-1)
	st.sim = st.c.p.opts.Costs.RequestCost(st.tuples, st.ops)
	st.c.p.stats.tuplesReturned.Add(st.tuples)
	st.c.p.stats.serverOps.Add(st.ops)
	st.c.p.stats.addSimMS(st.sim)
}

// Schema implements TupleStream.
func (st *muxStream) Schema() *relation.Schema { return st.schema }

// Name implements TupleStream.
func (st *muxStream) Name() string { return st.name }

// Err implements TupleStream.
func (st *muxStream) Err() error {
	if st.termErr != nil {
		return st.termErr
	}
	return nil
}

// Ops implements TupleStream.
func (st *muxStream) Ops() int64 { return st.ops }

// SimMS implements TupleStream.
func (st *muxStream) SimMS() float64 { return st.sim }

// Close implements TupleStream: abandoning an unfinished stream cancels it
// mid-flight (typed ErrStreamClosed); closing a finished stream is a no-op.
func (st *muxStream) Close() error {
	if !st.done {
		st.abort(&TransportError{Op: "exec", Err: ErrStreamClosed})
	}
	return nil
}
