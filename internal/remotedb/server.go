package remotedb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// Server exposes an Engine over TCP with a framed protocol (frame.go). This
// realizes the paper's deployment: the DBMS "is realized on a separate system
// (database server)" reached via "a standard communication protocol"
// (Section 5.5). Each accepted connection is served concurrently.
type Server struct {
	engine *Engine
	opts   ServerOptions

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup

	// inflight is the admission semaphore (nil: unbounded).
	inflight chan struct{}
	shed     atomic.Int64
	timeouts atomic.Int64

	framesSent      atomic.Int64
	streamsCanceled atomic.Int64
	streamKills     atomic.Int64
	streamResumes   atomic.Int64

	// frameLat observes the latency of each socket write of response frames,
	// one or more, in microseconds (nil when no metrics registry is
	// configured — the write path then takes no timestamps).
	frameLat *obs.Histogram

	faultMu  sync.Mutex
	faultRng *rand.Rand
}

// ServerOptions configures connection handling, admission control, and fault
// injection.
type ServerOptions struct {
	// IdleTimeout drops a connection whose peer sends no request for this
	// long, so dead peers don't pin handler goroutines forever (0: never).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response; a peer that stops reading
	// breaks its connection instead of pinning a handler (0: never).
	WriteTimeout time.Duration
	// MaxInflight bounds concurrently executing requests across all
	// connections; excess requests are shed immediately with a distinct wire
	// code (overloaded), which clients surface as ErrOverloaded (0: no bound).
	MaxInflight int
	// RequestTimeout bounds one request from the moment it holds its slot
	// and admission. A request the deadline catches before its engine work
	// begins never runs and is answered with the deadline wire code; a
	// streamed SELECT is cut there the same way; DDL, DML and EXPLAIN, once
	// begun, run to completion and report their own outcome (0: no bound).
	RequestTimeout time.Duration
	// Faults, when non-nil, makes the listener flaky for fault-tolerance
	// experiments: requests are delayed or their connection dropped from a
	// deterministically seeded stream.
	Faults *ListenerFaults
	// FrameTuples is the default response frame size, in tuples, for
	// connections whose client sent no preference (0: DefaultFrameTuples).
	FrameTuples int
	// ConnStreams bounds how many requests of one framed connection execute
	// concurrently (0: 1). The default of one engine slot per connection
	// models the paper's session-oriented DBMS: a connection is a session and
	// its requests are served in order, while the *transfer* of results still
	// interleaves at frame granularity. Pool clients get parallelism by
	// opening more connections, not by widening one.
	ConnStreams int
	// Tracer, when non-nil, records a server-side span per framed request.
	// Requests carrying a wire trace ID (wireRequest.Trace) stitch those spans
	// into the client's trace.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the server's admission/stream counters
	// (read-through over the existing atomics) and a frame-write latency
	// histogram under the braid_server_* namespace.
	Metrics *obs.Registry
	// SlowQuery enables the structured slow-query log: an exec request whose
	// end-to-end handling takes at least this long is logged to SlowLog with
	// its statement hash, plan-cache outcome, row/frame counts, and duration
	// (0: disabled; the hot path then takes no timestamps).
	SlowQuery time.Duration
	// SlowLog is the destination of the slow-query log (nil with SlowQuery
	// set: slog.Default()).
	SlowLog *slog.Logger
}

// ServerStats are cumulative admission/deadline/streaming counters.
type ServerStats struct {
	Shed     int64 // requests rejected by the MaxInflight admission limit
	Timeouts int64 // requests answered with the deadline code at RequestTimeout
	// FramesSent counts protocol frames written (headers, batches, ends).
	FramesSent int64
	// StreamsCanceled counts streams torn down mid-flight by a client
	// cancel frame or connection-context cancellation.
	StreamsCanceled int64
	// StreamKills counts connections killed mid-stream by injected stream
	// faults (ListenerFaults.StreamKillRate).
	StreamKills int64
	// StreamResumes counts re-issued streamed requests the server honored by
	// skipping already-delivered tuples server-side (header Resumed=true).
	StreamResumes int64
}

// ListenerFaults parameterizes server-side fault injection, the counterpart
// of the client-side FaultClient for experiments that need the *wire* to
// fail (dropped connections exercise client redial; delays exercise client
// deadlines).
type ListenerFaults struct {
	// Seed seeds the deterministic fault stream.
	Seed int64
	// DropRate is the per-request probability of closing the connection
	// without responding.
	DropRate float64
	// DelayRate is the per-request probability of stalling for Delay before
	// handling the request.
	DelayRate float64
	// Delay is the stall duration for delay faults.
	Delay time.Duration
	// StreamKillRate is the per-stream probability (streamed results only)
	// of killing the CONNECTION mid-stream, after StreamKillAfter response
	// frames — the fault resumable streams exist to survive. Unlike DropRate,
	// which drops before any response, a stream kill leaves the client holding
	// a delivered prefix.
	StreamKillRate float64
	// StreamKillAfter is the number of response frames (header included) to
	// deliver before a stream-kill fault severs the connection (<=0: 1, so the
	// client always holds at least the header).
	StreamKillAfter int
}

// NewServer wraps the engine in a protocol server with default options.
func NewServer(engine *Engine) *Server {
	return NewServerWithOptions(engine, ServerOptions{})
}

// NewServerWithOptions wraps the engine in a protocol server.
func NewServerWithOptions(engine *Engine, opts ServerOptions) *Server {
	s := &Server{engine: engine, opts: opts, conns: make(map[net.Conn]bool)}
	if opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInflight)
	}
	if opts.Faults != nil {
		s.faultRng = rand.New(rand.NewSource(opts.Faults.Seed))
	}
	if opts.SlowQuery > 0 && opts.SlowLog == nil {
		s.opts.SlowLog = slog.Default()
	}
	if reg := opts.Metrics; reg != nil {
		// Read-through counters: the atomics on Server stay authoritative, the
		// registry samples them at scrape time — no double accounting.
		reg.CounterFunc("braid_server_shed_total",
			"Requests rejected by the MaxInflight admission limit.", s.shed.Load)
		reg.CounterFunc("braid_server_timeouts_total",
			"Requests answered with the deadline code at the server request deadline.", s.timeouts.Load)
		reg.CounterFunc("braid_server_frames_sent_total",
			"Protocol response frames written (headers, batches, ends).", s.framesSent.Load)
		reg.CounterFunc("braid_server_streams_canceled_total",
			"Streams torn down mid-flight by cancel or disconnect.", s.streamsCanceled.Load)
		reg.CounterFunc("braid_server_stream_kills_total",
			"Connections severed mid-stream by injected stream faults.", s.streamKills.Load)
		reg.CounterFunc("braid_server_stream_resumes_total",
			"Re-issued streamed requests honored with a server-side skip.", s.streamResumes.Load)
		reg.CounterFunc("braid_server_plan_cache_hits_total",
			"Compiled plans served from the statement-hash plan cache.",
			func() int64 { return engine.PlanCacheStats().Hits })
		reg.CounterFunc("braid_server_plan_cache_misses_total",
			"SELECT statements compiled because no live cached plan matched.",
			func() int64 { return engine.PlanCacheStats().Misses })
		reg.GaugeFunc("braid_server_plan_cache_hit_rate",
			"Plan-cache hits / (hits + misses) over the server's lifetime.",
			func() float64 {
				st := engine.PlanCacheStats()
				if total := st.Hits + st.Misses; total > 0 {
					return float64(st.Hits) / float64(total)
				}
				return 0
			})
		s.frameLat = reg.Histogram("braid_server_frame_write_us",
			"Latency of one socket write of response frames (a small answer's header, batch and end share one), microseconds.")
		reg.CounterFunc("braid_engine_parallel_streams_total",
			"Plan executions that ran on the morsel-parallel worker pool.",
			func() int64 { return engine.ParallelStats().Streams })
		reg.CounterFunc("braid_engine_parallel_morsels_total",
			"Morsels claimed by parallel workers across all executions.",
			func() int64 { return engine.ParallelStats().Morsels })
		reg.CounterFunc("braid_engine_parallel_workers_total",
			"Parallel worker goroutines launched across all executions.",
			func() int64 { return engine.ParallelStats().Workers })
		reg.CounterFunc("braid_engine_parallel_fallbacks_total",
			"Parallel-eligible plans executed serially (below the row threshold or parallelism 1).",
			func() int64 { return engine.ParallelStats().SerialFallbacks })
		reg.GaugeFunc("braid_engine_parallelism",
			"Configured worker-pool bound for morsel-parallel execution.",
			func() float64 { return float64(engine.Parallelism()) })
	}
	return s
}

// ServerStats returns the cumulative admission/deadline counters.
func (s *Server) ServerStats() ServerStats {
	return ServerStats{
		Shed:            s.shed.Load(),
		Timeouts:        s.timeouts.Load(),
		FramesSent:      s.framesSent.Load(),
		StreamsCanceled: s.streamsCanceled.Load(),
		StreamKills:     s.streamKills.Load(),
		StreamResumes:   s.streamResumes.Load(),
	}
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts accepting
// connections in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// rollFault decides the fate of one request on a flaky listener. The drop
// decision is made synchronously (the caller closes the connection) while the
// delay is returned for the caller to wait out under the request's context,
// so injected delays model slow server work under the request clock.
func (s *Server) rollFault() (keep bool, delay time.Duration) {
	f := s.opts.Faults
	if f == nil {
		return true, 0
	}
	s.faultMu.Lock()
	roll := s.faultRng.Float64()
	s.faultMu.Unlock()
	switch {
	case roll < f.DropRate:
		return false, 0
	case roll < f.DropRate+f.DelayRate:
		return true, f.Delay
	}
	return true, 0
}

// serveConn reads the connection's opener (wire.go). A hello at protoV5 is
// accepted and the connection flips to framed mode; anything else gets one
// error frame and a close.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if s.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	br := bufio.NewReader(conn)
	opener, err := br.Peek(len(helloMagic) + 1)
	if err != nil {
		return // the peer left, or said too little before the idle timeout
	}
	refusal := ""
	var frameTuples uint64
	switch v := opener[len(helloMagic)]; {
	case string(opener[:len(helloMagic)]) != helloMagic:
		refusal = fmt.Sprintf("remotedb: unsupported protocol: a connection opens with the hello of protocol %d", protoV5)
	case v != protoV5:
		refusal = fmt.Sprintf("remotedb: unsupported protocol: a connection opens with hello at version %d, got version %d", protoV5, v)
	default:
		br.Discard(len(opener))
		if frameTuples, err = binary.ReadUvarint(br); err != nil {
			return
		}
	}
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	if refusal != "" {
		var buf []byte
		writeFrame(conn, &buf, &wireFrame{Kind: frameEnd, Err: refusal})
		return
	}
	if _, err := conn.Write(append([]byte(helloMagic), protoV5)); err != nil {
		return
	}
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	s.serveFramed(conn, br, clampFrameTuples(int(min(frameTuples, 1<<17)), s.opts.FrameTuples))
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// slowClock returns the start timestamp for the slow-query log, zero when the
// log is disabled so the hot path pays no time.Now when off.
func (s *Server) slowClock() time.Time {
	if s.opts.SlowQuery <= 0 {
		return time.Time{}
	}
	return time.Now()
}

// logSlow emits one slow-query record when logging is enabled and the request
// ran at least SlowQuery. start is the slowClock() value (zero: disabled).
// dop is the degree of parallelism the statement executed with (1: serial),
// so a slow record shows whether the parallel path was even in play.
func (s *Server) logSlow(start time.Time, sql string, cached bool, rows, frames int64, dop int) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	if d < s.opts.SlowQuery {
		return
	}
	s.opts.SlowLog.Info("slow query",
		"stmt_hash", fmt.Sprintf("%016x", StatementHash(sql)),
		"plan_cache_hit", cached,
		"rows", rows,
		"frames", frames,
		"dop", dop,
		"dur_ms", float64(d.Nanoseconds())/1e6,
	)
}

// handle answers one catalog request — schema, stats, tables — with the
// terminal frame that carries the answer.
func (s *Server) handle(id uint64, req *wireRequest) *wireFrame {
	f := &wireFrame{ID: id, Kind: frameEnd}
	var err error
	switch req.Op {
	case "schema":
		var sch *relation.Schema
		if sch, err = s.engine.Schema(req.Name); err == nil {
			f.Attrs = toWireAttrs(sch)
		}
	case "stats":
		f.Stats, err = s.engine.Stats(req.Name)
	case "tables":
		f.Tables = s.engine.Tables()
	default:
		err = fmt.Errorf("remotedb: unknown op %q", req.Op)
	}
	if err != nil {
		f.Err = err.Error()
	}
	return f
}

// Close stops accepting, closes all connections immediately, and waits for
// handlers to exit. In-flight requests are aborted; use Shutdown to drain
// them first.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown stops accepting and drains gracefully: in-flight requests finish
// and their responses are written, while idle connections are unblocked by
// an immediate read deadline. Connections still busy after grace are closed
// forcibly (grace <= 0 waits forever).
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	now := time.Now()
	for c := range s.conns {
		// Unblock pending reads; writes (in-flight responses) still proceed.
		c.SetReadDeadline(now)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if grace <= 0 {
		<-done
		return err
	}
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}
