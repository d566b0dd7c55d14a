package remotedb

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// This file is the server half of the wire protocol (frame.go): after the
// hello handshake flips a connection into framed mode, serveFramed reads
// request/cancel frames, runs each request in its own goroutine gated by a
// per-connection execution slot, and streams exec results back as
// header/batch/end frames. The write path is shared (one mutex), so responses
// of concurrent requests interleave at frame granularity — a large result
// never monopolizes the connection, and the client sees first tuples after
// one frame.
//
// Backpressure is the transport's: a frame write blocks when the peer's TCP
// window is full, which happens exactly when the client-side stream buffer is
// full and its consumer is slow. The server therefore never buffers more than
// one frame per stream beyond the socket.

// framedConn is the per-connection state of one session.
type framedConn struct {
	s    *Server
	conn net.Conn

	wmu         sync.Mutex // serializes frame writes
	wbuf        []byte     // the frame being written; guarded by wmu
	reported    uint64     // the Epoch of the last header/end frame written; guarded by wmu
	frameTuples int

	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc
	active  int

	wg  sync.WaitGroup
	sem chan struct{} // per-connection execution slots (ConnStreams)
}

// serveFramed serves one connection after its hello until the peer goes away
// or violates the protocol. On return, in-flight streams are canceled and their
// handlers drained (on server shutdown they are instead allowed to finish, so
// responses in flight are written before the connection drops).
func (s *Server) serveFramed(conn net.Conn, br *bufio.Reader, frameTuples int) {
	connStreams := s.opts.ConnStreams
	if connStreams <= 0 {
		connStreams = 1
	}
	base, cancelAll := context.WithCancel(context.Background())
	fc := &framedConn{
		s:           s,
		conn:        conn,
		frameTuples: frameTuples,
		cancels:     make(map[uint64]context.CancelFunc),
		sem:         make(chan struct{}, connStreams),
	}
	defer func() {
		cancelAll()
		fc.wg.Wait()
	}()
	for {
		fc.mu.Lock()
		fc.armIdleLocked()
		fc.mu.Unlock()
		f, err := readFrame(br)
		if err != nil {
			s.mu.Lock()
			draining := s.closed
			s.mu.Unlock()
			if draining {
				// Graceful shutdown unblocked the read; let in-flight streams
				// finish writing before the deferred teardown.
				fc.wg.Wait()
			}
			return
		}
		switch f.Kind {
		case frameReq:
			ctx, cancel := context.WithCancel(base)
			fc.mu.Lock()
			fc.cancels[f.ID] = cancel
			fc.active++
			fc.mu.Unlock()
			fc.wg.Add(1)
			go fc.handleStream(ctx, f.ID, f.Req)
		case frameCancel:
			fc.mu.Lock()
			if cancel := fc.cancels[f.ID]; cancel != nil {
				cancel()
			}
			fc.mu.Unlock()
		default:
			// The client sent a server-direction frame: protocol violation,
			// the connection cannot be trusted anymore.
			return
		}
	}
}

// armIdleLocked sets the read deadline for the connection's current state.
// The idle timeout only guards a connection with nothing in flight; while
// streams are active the read loop must stay blocked on the socket
// indefinitely so cancel frames remain deliverable. The loop is blocked in
// readFrame when the last stream finishes, so its handler starts the idle
// clock; both hold fc.mu, so their deadline writes cannot interleave. Shutdown
// unblocks the read loop with an immediate deadline set under s.mu, which is
// never overwritten here.
func (fc *framedConn) armIdleLocked() {
	var deadline time.Time
	if fc.s.opts.IdleTimeout > 0 && fc.active == 0 {
		deadline = time.Now().Add(fc.s.opts.IdleTimeout)
	}
	fc.s.mu.Lock()
	if !fc.s.closed {
		fc.conn.SetReadDeadline(deadline)
	}
	fc.s.mu.Unlock()
}

// write sends one frame under the write timeout. A failed write may have
// left part of a frame on the wire, so the connection is closed (which also
// unblocks the read loop).
func (fc *framedConn) write(f *wireFrame) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if f.Kind == frameHeader || f.Kind == frameEnd {
		// The clock and the versions this connection has not reported yet
		// ride every header and end frame (batch frames carry no such fields,
		// and once per stream suffices). Taken under wmu, so the
		// frames leave in the order their deltas were computed and no delta
		// is skipped.
		epoch, vs := fc.s.engine.versionsSince(fc.reported)
		if vs != nil {
			moved := vs // declared here, so only a frame that carries versions allocates
			f.Versions = &moved
		}
		f.Epoch, fc.reported = epoch, epoch
	}
	if fc.s.opts.WriteTimeout > 0 {
		fc.conn.SetWriteDeadline(time.Now().Add(fc.s.opts.WriteTimeout))
	}
	var t0 time.Time
	if fc.s.frameLat != nil {
		t0 = time.Now()
	}
	err := writeFrame(fc.conn, &fc.wbuf, f)
	if fc.s.frameLat != nil {
		fc.s.frameLat.Observe(time.Since(t0).Microseconds())
	}
	if fc.s.opts.WriteTimeout > 0 {
		fc.conn.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		fc.conn.Close()
		return err
	}
	fc.s.framesSent.Add(1)
	// Yield after every frame: a producer that never parks would otherwise
	// starve co-located consumers (loopback deployments, the bench harness)
	// until the runtime's coarse preemption tick, turning the first-frame
	// advantage of streaming into a scheduling artifact.
	runtime.Gosched()
	return nil
}

// writeEnd sends a terminal frame for stream id.
func (fc *framedConn) writeEnd(id uint64, code int, errMsg string, ops int64) {
	fc.write(&wireFrame{ID: id, Kind: frameEnd, Code: code, Err: errMsg, Ops: ops})
}

// handleStream runs one framed request end to end, on this goroutine:
// per-connection execution slot, admission control, fault injection, the
// request deadline, then the engine work and its streamed (exec) or
// single-frame (catalog) response.
func (fc *framedConn) handleStream(ctx context.Context, id uint64, req *wireRequest) {
	s := fc.s
	defer fc.wg.Done()
	defer func() {
		fc.mu.Lock()
		if cancel := fc.cancels[id]; cancel != nil {
			cancel()
			delete(fc.cancels, id)
		}
		fc.active--
		if fc.active == 0 && s.opts.IdleTimeout > 0 {
			fc.armIdleLocked()
		}
		fc.mu.Unlock()
	}()

	// Adopt the trace ID the request carried so every span recorded under ctx
	// — the server span here and the engine's plan-cache/optimize/execute
	// spans below — stitches into the client's distributed trace. A zero ID
	// (untraced request) leaves the context unchanged.
	ctx = obs.WithTraceID(ctx, req.Trace)
	sctx, sp := s.opts.Tracer.Start(ctx, "server.stream")
	sp.Set("op", req.Op)
	defer sp.End()
	ctx = sctx

	// Per-connection execution slot: by default requests of one session
	// execute serially, in arrival order. A queued request is still
	// cancelable while it waits.
	select {
	case fc.sem <- struct{}{}:
	case <-ctx.Done():
		fc.writeStopped(ctx, id, 0)
		return
	}
	release := func() { <-fc.sem }

	// Admission control: the server-wide semaphore bounds executing requests
	// across all connections.
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			inner := release
			release = func() { <-s.inflight; inner() }
		default:
			release()
			s.shed.Add(1)
			fc.writeEnd(id, wireCodeOverloaded, ErrOverloaded.Error(), 0)
			return
		}
	}

	// A drop fault is a wire-level failure: the whole connection dies.
	keep, delay := s.rollFault()
	if !keep {
		release()
		fc.conn.Close()
		return
	}

	// A stream-kill fault severs the connection after a budget of response
	// frames — the mid-transfer death that resume tokens exist to survive.
	// Rolled once per exec request so kill probability is per-stream, not
	// per-frame.
	var killer *streamKiller
	if req.Op == "exec" {
		if kill, after := s.rollStreamFault(); kill {
			killer = &streamKiller{fc: fc, remaining: after}
		}
	}

	// ctx is the request's one context: the client's cancel frame and the
	// connection's teardown end it, and so does the request deadline, armed
	// here once the slot and admission are held. Every wait below ends with
	// it, and context.Cause tells which of them ended it.
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.opts.RequestTimeout, ErrDeadlineExceeded)
		defer cancel()
	}
	// An injected delay models slow server work before the engine's: a
	// request the deadline or a cancel ends here is answered as never run.
	if delay > 0 && sleepCtx(ctx, delay) != nil {
		release()
		fc.writeStopped(ctx, id, 0)
		return
	}

	if req.Op != "exec" {
		f := s.handle(id, req)
		release()
		// Errors and the small catalog ops fit in the terminal frame.
		fc.write(f)
		return
	}

	start := s.slowClock()
	// A re-issued request carries a resume token: the stream serves the
	// remainder of the pinned snapshot when it still exists. Any failure —
	// malformed token, statement mismatch, table mutated — yields a fresh
	// stream whose header says Resumed=false, and the client skips its
	// delivered prefix itself.
	var pin *ResumeToken
	if req.Resume != "" {
		if tok, err := ParseResumeToken(req.Resume); err == nil {
			pin = &tok
		}
	}
	// SELECTs bypass materialization entirely: the engine yields tuples on
	// demand and frames ship as the plan advances, so the client's first tuple
	// costs the plan's blocking prefix plus one frame of work, not the whole
	// result.
	st, err := s.engine.bind(ctx, req.SQL)
	if err == nil && st.Select != nil && !st.Explain {
		sc, resumed, oerr := s.engine.openStream(ctx, st.Select, req.SQL, pin, req.Skip)
		if oerr == nil {
			if resumed {
				s.streamResumes.Add(1)
			}
			rows, frames := fc.streamScan(ctx, id, sc, release, resumed, killer)
			s.logSlow(start, req.SQL, sc.Cached(), rows, frames, sc.DOP())
			return
		}
		err = oerr
	}
	// What the engine does not stream — EXPLAIN, DDL/DML — runs in place and
	// reports its own outcome: an INSERT that began is answered with its
	// result, never with the deadline code while it commits.
	var rel *relation.Relation
	var ops int64
	if err == nil {
		rel, ops, err = s.engine.ExecuteCtx(ctx, st)
	}
	release()
	if err != nil {
		fc.writeEnd(id, wireCodeNone, err.Error(), 0)
		return
	}
	// The materialized result ships through the same writer, whole — neither
	// the deadline nor a cancel cuts an outcome short — and with no resume
	// token: a client resuming it restarts and skips client-side.
	hdr := &wireFrame{ID: id, Kind: frameHeader}
	src := relation.Empty()
	if rel != nil {
		hdr.Name, hdr.Attrs, src = rel.Name, toWireAttrs(rel.Schema()), rel.Iter()
	}
	rows, frames, ok := fc.ship(context.Background(), hdr, src, killer, func() {})
	if ok {
		fc.writeEnd(id, wireCodeNone, "", ops)
		frames++
	}
	s.logSlow(start, req.SQL, false, rows, frames, 1)
}

// writeStopped answers a request whose context ended first: with the
// deadline code when the request deadline ended it, with the cancel code
// when a cancel frame or the connection's teardown did.
func (fc *framedConn) writeStopped(ctx context.Context, id uint64, ops int64) {
	if errors.Is(context.Cause(ctx), ErrDeadlineExceeded) {
		fc.s.timeouts.Add(1)
		fc.writeEnd(id, wireCodeDeadline, ErrDeadlineExceeded.Error(), ops)
		return
	}
	fc.s.streamsCanceled.Add(1)
	fc.writeEnd(id, wireCodeCanceled, context.Canceled.Error(), ops)
}

// rollStreamFault decides whether one stream's connection dies mid-transfer
// and after how many response frames (ListenerFaults.StreamKillRate/After).
func (s *Server) rollStreamFault() (kill bool, after int) {
	f := s.opts.Faults
	if f == nil || f.StreamKillRate <= 0 {
		return false, 0
	}
	s.faultMu.Lock()
	roll := s.faultRng.Float64()
	s.faultMu.Unlock()
	if roll >= f.StreamKillRate {
		return false, 0
	}
	after = f.StreamKillAfter
	if after <= 0 {
		after = 1
	}
	return true, after
}

// streamKiller is an armed stream-kill fault: after remaining more response
// frames have been written for its stream, it severs the whole connection —
// every multiplexed stream on it dies, exactly like a real connection loss.
type streamKiller struct {
	fc        *framedConn
	remaining int
}

// afterWrite burns one frame of the kill budget; when it is spent, the
// connection is severed and true is returned so the caller stops producing.
// Nil-safe: a nil killer never kills.
func (k *streamKiller) afterWrite() (killed bool) {
	if k == nil {
		return false
	}
	k.remaining--
	if k.remaining > 0 {
		return false
	}
	k.fc.s.streamKills.Add(1)
	// Sever the write side first (flush + FIN) and leave the fd to the
	// handler's normal teardown: a bare Close would send an RST whenever
	// another multiplexed stream's request sat unread in the receive buffer,
	// and the RST retroactively destroys the frames this fault just promised
	// the client it delivered. The client still observes exactly a mid-stream
	// connection death; its next read is EOF and its next write fails.
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := k.fc.conn.(closeWriter); ok {
		cw.CloseWrite()
	} else {
		k.fc.conn.Close()
	}
	return true
}

// streamScan pipelines a streamed SELECT, shipping tuples in frames as they
// are produced until ctx ends. It returns the tuples and frames shipped, for
// the slow-query log.
func (fc *framedConn) streamScan(ctx context.Context, id uint64, sc *PlanStream, release func(), resumed bool, killer *streamKiller) (rows, frames int64) {
	// Parallel plan streams own worker goroutines; closing on every exit path
	// (deadline, cancel, write failure, kill fault, normal end) joins them, so
	// an abandoned stream leaks nothing; a serial stream's Close gives its run
	// back to the plan, after which Ops, Err and DOP read what it ended with.
	// The slots go with them, before any terminal frame is written, so a
	// client that sends its next request the moment an answer lands is not
	// shed by the request that answer finished.
	settled := false
	settle := func() {
		if !settled {
			settled = true
			sc.Close()
			release()
		}
	}
	defer settle()
	// The header of a resumable stream carries the resume token pinning its
	// snapshot; a client that loses the connection mid-transfer re-issues the
	// statement with it. Resumed acknowledges a honored token (server-side
	// skip); on a fresh stream it tells a resuming client to skip client-side.
	// Every other stream carries no token: its emission order is not a
	// function of the snapshot alone (hash joins, aggregation, parallel
	// workers), so a resuming client restarts and skips locally.
	hdr := streamHeader(id, sc, resumed)
	rows, frames, ok := fc.ship(ctx, &hdr, sc.inPlace(), killer, settle)
	if !ok {
		return rows, frames
	}
	// A stream that stopped early (a parallel worker hit its cancellation
	// checkpoint) must not read as a complete result: report why it stopped,
	// never a silently truncated ok-end.
	settle()
	if sc.Err() != nil {
		fc.writeStopped(ctx, id, sc.Ops())
		return rows, frames + 1
	}
	fc.writeEnd(id, wireCodeNone, "", sc.Ops())
	return rows, frames + 1
}

// streamHeader is the header frame of stream id: the plan's attrs, rendered
// when it was compiled, and a resumable stream's token, its one allocation.
func streamHeader(id uint64, sc *PlanStream, resumed bool) wireFrame {
	hdr := wireFrame{ID: id, Kind: frameHeader, Name: sc.Name(), Attrs: sc.plan.attrs, Resumed: resumed}
	if tok := sc.ResumeToken(); tok.Table != "" {
		hdr.Resume = tok.Encode()
	}
	return hdr
}

// ship is the one writer of exec results, streamed or materialized: the
// header frame, then src's tuples in batch frames of at most frameTuples,
// checking between frames whether ctx has ended. ok reports that every tuple
// went out and the caller owes the end frame; otherwise the stream is over (a
// write failed, a kill fault fired, or ship wrote the terminal frame itself,
// after calling settle). It returns the tuples and frames shipped, for the
// slow-query log.
//
// ship copies each row's values into its staging buffer as it pulls the row,
// so it holds no row src hands out: src may reuse its row from one pull to
// the next (PlanStream.inPlace).
func (fc *framedConn) ship(ctx context.Context, hdr *wireFrame, src relation.Iterator, killer *streamKiller, settle func()) (rows, frames int64, ok bool) {
	if fc.write(hdr) != nil {
		return
	}
	frames++
	if killer.afterWrite() {
		return
	}
	// write serializes synchronously, so a batch is on the wire before the
	// next fill.
	buf := shipBufs.Get().(*shipBuf)
	defer buf.release()
	ncols := len(hdr.Attrs)
	for done := false; !done; {
		buf.reset()
		n := 0
		for ; n < fc.frameTuples; n++ {
			t, more := src.Next()
			if !more {
				done = true
				break
			}
			// Value by value: a bulk append goes through typedslicecopy,
			// whose write barrier costs more per row than the inline one
			// while the collector marks.
			for _, v := range t[:ncols] {
				buf.vals = append(buf.vals, v)
			}
		}
		select {
		case <-ctx.Done():
			settle()
			fc.writeStopped(ctx, hdr.ID, 0)
			return
		default:
		}
		if n > 0 {
			buf.stage(n, ncols)
			buf.batch = appendBatch(buf.batch[:0], ncols, buf.tuples)
			if fc.write(&wireFrame{ID: hdr.ID, Kind: frameBatch, Batch: buf.batch}) != nil {
				return
			}
			rows += int64(n)
			frames++
			if killer.afterWrite() {
				return
			}
		}
	}
	return rows, frames, true
}

// shipBuf is ship's staging for one frame at a time: the values of the rows
// it copied, the rows over them that appendBatch reads, and the encoded
// batch. dirty is how much of vals the frames so far have filled, which
// release clears.
type shipBuf struct {
	vals   []relation.Value
	tuples []relation.Tuple
	batch  []byte
	dirty  int
}

// shipBufs keeps ship's buffers between streams, server-wide. A sync.Pool,
// like framePool: the collector empties it after two collections, so kept
// buffers cost no live heap.
var shipBufs = sync.Pool{New: func() any { return new(shipBuf) }}

// reset empties the staging for the next frame.
func (b *shipBuf) reset() {
	b.dirty = max(b.dirty, len(b.vals))
	b.vals, b.tuples = b.vals[:0], b.tuples[:0]
}

// stage sets tuples to the n copied rows, ncols values each, over vals.
func (b *shipBuf) stage(n, ncols int) {
	for i := 0; i < n; i++ {
		b.tuples = append(b.tuples, b.vals[i*ncols:(i+1)*ncols:(i+1)*ncols])
	}
}

// release clears the values the stream filled, so a pooled buffer keeps no
// string alive, and puts b back in shipBufs. The rows over them need no
// clearing: they point only into values a release has cleared.
func (b *shipBuf) release() {
	b.reset()
	clear(b.vals[:b.dirty])
	b.dirty = 0
	shipBufs.Put(b)
}
