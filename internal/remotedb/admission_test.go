package remotedb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestServerShedsOverMaxInflight saturates a MaxInflight=1 server with a
// slow (injected-delay) request and checks that a second request is shed
// immediately with the typed overload wire code, leaving both connections
// usable.
func TestServerShedsOverMaxInflight(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{
		MaxInflight: 1,
		// Every request stalls 300ms inside the admission scope, modeling
		// slow server work that holds its in-flight slot.
		Faults: &ListenerFaults{Seed: 1, DelayRate: 1, Delay: 300 * time.Millisecond},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1 := dialTestPool(t, addr, PoolOptions{Size: 1})
	c2 := dialTestPool(t, addr, PoolOptions{Size: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c1.Exec("SELECT * FROM emp"); err != nil {
			t.Errorf("slow request failed: %v", err)
		}
	}()
	time.Sleep(100 * time.Millisecond) // c1 is mid-delay, holding the slot
	_, err = c2.Exec("SELECT * FROM emp")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated server returned %v, want ErrOverloaded", err)
	}
	if !IsTransient(err) {
		t.Fatal("shed requests must be transient (retryable after backoff)")
	}
	wg.Wait()
	if st := srv.ServerStats(); st.Shed != 1 {
		t.Fatalf("server shed count = %d, want 1", st.Shed)
	}
	// A shed response leaves the connection intact: it works once load
	// clears.
	if _, err := c2.Exec("SELECT * FROM emp"); err != nil {
		t.Fatalf("connection unusable after shed: %v", err)
	}
}

// TestServerFreesSlotsBeforeAnswering: a finished request releases its
// admission slot before its terminal frame is written, so a request sent on
// another connection the moment an answer lands is never shed by the request
// that answer finished — streamed SELECTs, bounded statements and catalog ops
// alike.
func TestServerFreesSlotsBeforeAnswering(t *testing.T) {
	srv := NewServerWithOptions(newTestEngine(t), ServerOptions{MaxInflight: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conns := []*PoolClient{dialTestPool(t, addr, PoolOptions{Size: 1}), dialTestPool(t, addr, PoolOptions{Size: 1})}
	for i := 0; i < 1000; i++ {
		c := conns[i%2]
		for _, sql := range []string{"SELECT * FROM emp", "EXPLAIN SELECT * FROM emp"} {
			if _, err := c.Exec(sql); err != nil {
				t.Fatalf("request %d (%s): %v", i, sql, err)
			}
			c = conns[(i+1)%2]
		}
		if _, err := c.Tables(); err != nil {
			t.Fatalf("request %d (tables): %v", i, err)
		}
	}
	if shed := srv.ServerStats().Shed; shed != 0 {
		t.Fatalf("%d back-to-back requests shed, want 0", shed)
	}
}

// TestServerRequestTimeout checks that a request still executing at the
// server's deadline is abandoned and answered with the typed deadline wire
// code, quickly.
func TestServerRequestTimeout(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{
		RequestTimeout: 50 * time.Millisecond,
		Faults:         &ListenerFaults{Seed: 1, DelayRate: 1, Delay: 2 * time.Second},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dialTestPool(t, addr, PoolOptions{Size: 1})
	start := time.Now()
	_, err = c.Exec("SELECT * FROM emp")
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("timed-out request returned %v, want ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("deadline response took %v, want ~50ms", d)
	}
	if st := srv.ServerStats(); st.Timeouts != 1 {
		t.Fatalf("server timeout count = %d, want 1", st.Timeouts)
	}
}

// TestTCPExecCtxCancel checks that a caller deadline interrupts the wait for
// a stalling server, surfaces the context error as the transport cause, and
// that the connection keeps serving afterwards.
func TestTCPExecCtxCancel(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{
		Faults: &ListenerFaults{Seed: 1, DelayRate: 1, Delay: 300 * time.Millisecond},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dialTestPool(t, addr, PoolOptions{Size: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.ExecCtx(ctx, "SELECT * FROM emp")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled round trip returned %v, want context.DeadlineExceeded cause", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancellation took %v, want ~50ms", d)
	}
	// Only the canceled request died; the connection serves the next one.
	if _, err := c.Exec("SELECT * FROM emp"); err != nil {
		t.Fatalf("exec after cancellation failed: %v", err)
	}
}
