package remotedb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func dialTestPool(t *testing.T, addr string, opts PoolOptions) *PoolClient {
	t.Helper()
	if opts.Costs == (Costs{}) {
		opts.Costs = DefaultCosts()
	}
	p, err := DialPool(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPoolRoundTrip(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	p := dialTestPool(t, addr, PoolOptions{})

	res, err := p.Exec("SELECT name FROM emp WHERE dept = 10 ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 || res.Rel.Tuple(0)[0].AsString() != "alice" {
		t.Fatalf("pool exec result wrong: %v", res.Rel)
	}
	if res.SimMS <= 0 {
		t.Fatal("sim cost not charged")
	}

	sch, err := p.RelationSchema("emp", 4)
	if err != nil || sch.ColIndex("salary") != 3 {
		t.Fatalf("schema over pool wrong: %v %v", sch, err)
	}
	st, err := p.TableStats("dept")
	if err != nil || st.Rows != 3 {
		t.Fatalf("stats over pool wrong: %+v %v", st, err)
	}
	tables, err := p.Tables()
	if err != nil || len(tables) != 2 {
		t.Fatalf("tables over pool wrong: %v %v", tables, err)
	}

	stats := p.Stats()
	if stats.Requests != 1 || stats.CatalogRequests != 3 || stats.TuplesReturned != 2 {
		t.Fatalf("pool stats wrong: %+v", stats)
	}
	if stats.Streams != 1 || stats.FramesSent == 0 || stats.FramesRecv == 0 {
		t.Fatalf("stream/frame counters not populated: %+v", stats)
	}
	if stats.FirstTupleNS <= 0 {
		t.Fatalf("first-tuple latency not recorded: %+v", stats)
	}
}

func TestPoolStreamDelivery(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: 2})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := dialTestPool(t, addr, PoolOptions{FrameTuples: 2})
	st, err := p.ExecStream(context.Background(), "SELECT name FROM emp ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema() == nil || st.Schema().Arity() != 1 {
		t.Fatalf("stream schema wrong: %v", st.Schema())
	}
	var names []string
	for tup, ok := st.Next(); ok; tup, ok = st.Next() {
		names = append(names, tup[0].AsString())
	}
	if st.Err() != nil {
		t.Fatalf("stream err: %v", st.Err())
	}
	if len(names) < 3 {
		t.Fatalf("streamed too few tuples: %v", names)
	}
	if st.Ops() <= 0 {
		t.Fatal("server ops not reported on terminal frame")
	}
	if st.SimMS() <= 0 {
		t.Fatal("stream cost not settled")
	}
	// With frame size 2 and >=3 tuples there must be >=2 batch frames plus
	// header and end.
	if stats := p.Stats(); stats.FramesRecv < 4 {
		t.Fatalf("expected multiple frames, got %+v", stats)
	}
}

func TestPoolSemanticErrorKeepsConnection(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	p := dialTestPool(t, addr, PoolOptions{})
	if _, err := p.Exec("SELECT * FROM missing"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("expected semantic error, got %v", err)
	}
	if IsTransient(errors.New("x")) {
		t.Fatal("sanity")
	}
	if _, err := p.Exec("SELECT * FROM dept"); err != nil {
		t.Fatalf("connection unusable after semantic error: %v", err)
	}
}

func TestPoolMidStreamCancel(t *testing.T) {
	e := newTestEngine(t)
	// Small frames so the stream has many frames to cancel between.
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := runtime.NumGoroutine()
	p := dialTestPool(t, addr, PoolOptions{FrameTuples: 1, streamWindow: 1})

	ctx, cancel := context.WithCancel(context.Background())
	st, err := p.ExecStream(ctx, "SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("first tuple missing: %v", st.Err())
	}
	cancel()
	for _, ok := st.Next(); ok; _, ok = st.Next() {
	}
	if err := st.Err(); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled stream err = %v, want context.Canceled", err)
	}
	if got := p.Stats().StreamsCanceled; got != 1 {
		t.Fatalf("StreamsCanceled = %d, want 1", got)
	}

	// Only the canceled stream died: the same connection serves new requests.
	if _, err := p.Exec("SELECT * FROM dept"); err != nil {
		t.Fatalf("connection dead after mid-stream cancel: %v", err)
	}

	// No goroutine leaks: the demux reader is the only long-lived goroutine,
	// and it dies with the pool.
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak after cancel+close: before=%d now=%d", before, now)
	}
}

func TestPoolStreamCloseCancels(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{FrameTuples: 1})
	st, err := p.ExecStream(context.Background(), "SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("no first tuple")
	}
	st.Close()
	if err := st.Err(); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("closed stream err = %v, want ErrStreamClosed", err)
	}
	if _, err := p.Exec("SELECT * FROM dept"); err != nil {
		t.Fatalf("connection dead after Close: %v", err)
	}
}

func TestPoolConcurrentSessions(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	p := dialTestPool(t, addr, PoolOptions{Size: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				res, err := p.ExecCtx(context.Background(), "SELECT * FROM emp")
				if err != nil {
					errs <- fmt.Errorf("session %d: %w", i, err)
					return
				}
				if res.Rel.Len() == 0 {
					errs <- fmt.Errorf("session %d: empty result", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if stats := p.Stats(); stats.Requests != 32 || stats.Streams != 32 {
		t.Fatalf("stats after concurrent sessions: %+v", stats)
	}
}

func TestPoolRedial(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := dialTestPool(t, addr, PoolOptions{DialTimeout: time.Second, RequestTimeout: 2 * time.Second})
	if _, err := p.Exec("SELECT * FROM dept"); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Server gone: requests fail with a transport error.
	if _, err := p.Exec("SELECT * FROM dept"); err == nil || !IsTransient(err) {
		t.Fatalf("expected transient failure, got %v", err)
	}

	// Server back on the same address: redial restores service.
	srv2 := NewServer(e)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	var last error
	for i := 0; i < 20; i++ {
		if _, last = p.Exec("SELECT * FROM dept"); last == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if last != nil {
		t.Fatalf("redial did not recover: %v", last)
	}
}

func TestPoolServerDeadline(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{
		RequestTimeout: 10 * time.Millisecond,
		Faults:         &ListenerFaults{Seed: 7, DelayRate: 1.0, Delay: 200 * time.Millisecond},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{})
	_, err = p.Exec("SELECT * FROM dept")
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expected deadline error, got %v", err)
	}
	if srv.ServerStats().Timeouts == 0 {
		t.Fatal("server did not count the timeout")
	}
}

func TestPoolServerShed(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{
		MaxInflight: 1,
		ConnStreams: 4,
		Faults:      &ListenerFaults{Seed: 3, DelayRate: 1.0, Delay: 100 * time.Millisecond},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 2})
	var wg sync.WaitGroup
	var shedSeen flagBool
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Exec("SELECT * FROM dept"); err != nil && errors.Is(err, ErrOverloaded) {
				shedSeen.set()
			}
		}()
	}
	wg.Wait()
	if !shedSeen.get() && srv.ServerStats().Shed == 0 {
		t.Fatal("admission control never shed under overload")
	}
}

type flagBool struct {
	mu sync.Mutex
	v  bool
}

func (b *flagBool) set() { b.mu.Lock(); b.v = true; b.mu.Unlock() }
func (b *flagBool) get() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.v
}

// TestPoolPausedConsumerKeepsStream: a slow consumer is not a dead
// connection. With one connection, one-tuple frames and a one-frame window,
// the server's writer is stalled behind the paused consumer for the whole
// pause; the stream must still deliver every tuple on the connection it
// started on, with no re-issue and no redial.
func TestPoolPausedConsumerKeepsStream(t *testing.T) {
	e := newTestEngine(t)
	const rows = 2000
	loadBigTable(t, e, rows)
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 1, FrameTuples: 1, streamWindow: 1})

	st, err := p.ExecStream(context.Background(), "SELECT k FROM big")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
		if n == 1 {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if err := st.Err(); err != nil {
		t.Fatalf("paused stream failed after %d of %d tuples: %v", n, rows, err)
	}
	if n != rows {
		t.Fatalf("paused stream delivered %d of %d tuples", n, rows)
	}
	if got := p.Stats().Requests; got != 1 {
		t.Fatalf("Requests = %d, want 1", got)
	}
	c := p.conns[0]
	c.mu.Lock()
	gen := c.gen
	c.mu.Unlock()
	if gen != 1 {
		t.Fatalf("connection generation = %d, want 1 (the stream's connection was redialed)", gen)
	}
}

// TestStreamTimerFiredBetweenFrames: one timer bounds every wait of a stream.
// When it fires after a frame arrived but before the next wait, that wait
// re-arms it and still gets its frame: the stale tick is not a timeout.
func TestStreamTimerFiredBetweenFrames(t *testing.T) {
	const timeout = 200 * time.Millisecond
	st := &muxStream{
		c:      &muxConn{p: &PoolClient{opts: PoolOptions{RequestTimeout: timeout}}},
		ctx:    context.Background(),
		frames: make(chan *wireFrame, 1),
		gone:   make(chan struct{}),
	}
	defer st.stopTimer()
	st.frames <- &wireFrame{Kind: frameBatch}
	if _, err := st.wait(); err != nil {
		t.Fatal(err)
	}
	timer := st.timer
	time.Sleep(2 * timeout) // the tick lands with nobody waiting
	go func() { st.frames <- &wireFrame{Kind: frameEnd} }()
	f, err := st.wait()
	if err != nil {
		t.Fatalf("the wait after a stale tick failed: %v", err)
	}
	if f.Kind != frameEnd || st.timer != timer {
		t.Fatalf("got frame kind %d, timer replaced %v; want the end frame and the stream's one timer", f.Kind, st.timer != timer)
	}
	if _, err := st.wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("a wait with no frame coming: %v, want ErrDeadlineExceeded", err)
	}
}
