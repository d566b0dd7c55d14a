package remotedb

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTCPBrokenConnFailsFast(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	c := dialTestPool(t, addr, PoolOptions{Size: 1}) // no redial
	if _, err := c.Exec("SELECT * FROM dept"); err != nil {
		t.Fatal(err)
	}
	cleanup() // kill the server mid-session

	// Every call after the kill fails with a transient transport error, and
	// fast: nothing waits on the dead socket.
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err := c.Exec("SELECT * FROM dept")
		if err == nil {
			t.Fatal("exec against dead server should fail")
		}
		var te *TransportError
		if !errors.As(err, &te) || !IsTransient(err) {
			t.Fatalf("want a transient TransportError, got %v", err)
		}
		if time.Since(start) > 100*time.Millisecond {
			t.Fatal("failure against a dead server was not fast")
		}
	}
}

func TestServerIdleTimeoutDropsDeadPeers(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{IdleTimeout: 50 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serverConns := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	c := dialTestPool(t, addr, PoolOptions{Size: 1})
	if _, err := c.Exec("SELECT * FROM dept"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for serverConns() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := serverConns(); n != 0 {
		t.Fatalf("server still holds %d connection(s) past the idle deadline", n)
	}
	// An active client inside the idle window is unaffected: its one
	// connection is never dropped, so it never redials.
	c2 := dialTestPool(t, addr, PoolOptions{Size: 1})
	for i := 0; i < 5; i++ {
		if _, err := c2.Exec("SELECT * FROM dept"); err != nil {
			t.Fatalf("active connection dropped: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c2.conns[0].mu.Lock()
	gen := c2.conns[0].gen
	c2.conns[0].mu.Unlock()
	if gen != 1 {
		t.Fatalf("active connection was dialed %d times, want 1", gen)
	}
}

// TestServerCloseUnderLoad drives concurrent clients and closes the server
// mid-flight: Close must return promptly, and every client must observe a
// connection error rather than a hang.
func TestServerCloseUnderLoad(t *testing.T) {
	e := newTestEngine(t)
	srvRef := NewServer(e)
	addr, err := srvRef.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var stopped atomic.Bool
	var wg sync.WaitGroup
	errCount := int64(0)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialPool(addr, PoolOptions{Size: 1, Costs: DefaultCosts()})
			if err != nil {
				return
			}
			defer c.Close()
			for !stopped.Load() {
				if _, err := c.Exec("SELECT e.name FROM emp e, dept d WHERE e.dept = d.id"); err != nil {
					atomic.AddInt64(&errCount, 1)
					return // connection error, as expected after Close
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the load build

	closed := make(chan error, 1)
	go func() { closed <- srvRef.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close under load: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung with in-flight requests")
	}
	stopped.Store(true)

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("clients hung after server close")
	}
	// New connections must be refused.
	if _, err := DialPool(addr, PoolOptions{Size: 1}); err == nil {
		t.Fatal("dial after close should fail")
	}
}

// TestServerShutdownDrains verifies the graceful path: an in-flight request
// gets its response before the connection is released.
func TestServerShutdownDrains(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialTestPool(t, addr, PoolOptions{Size: 1})

	results := make(chan error, 1)
	go func() {
		_, err := c.Exec("SELECT e.name FROM emp e, dept d WHERE e.dept = d.id")
		results <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-results:
		// The in-flight request either completed (drained before the read
		// deadline landed) or failed with a connection error; it must not
		// have hung.
		_ = err
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight request hung across Shutdown")
	}
	// The drained server accepts no further work.
	if _, err := c.Exec("SELECT * FROM dept"); err == nil {
		t.Fatal("exec after shutdown should fail")
	}
}
