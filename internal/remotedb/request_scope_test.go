package remotedb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDeadlineAnsweredRequestNeverRuns: an INSERT the server's deadline
// catches before its engine work begins is answered with the deadline code
// and never commits, so a client that retries on that answer cannot leave
// duplicate rows behind.
func TestDeadlineAnsweredRequestNeverRuns(t *testing.T) {
	e := newTestEngine(t)
	const delay = 150 * time.Millisecond
	srv := NewServerWithOptions(e, ServerOptions{
		RequestTimeout: 50 * time.Millisecond,
		Faults:         &ListenerFaults{Seed: 1, DelayRate: 1, Delay: delay},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc := NewResilientClient(dialTestPool(t, addr, PoolOptions{Size: 1}), Resilience{
		MaxRetries:      2,
		BreakerFailures: -1,
		Sleep:           func(time.Duration) {},
	})
	_, err = rc.Exec("INSERT INTO dept VALUES (40,'qa')")
	if !IsUnavailable(err) || !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("insert returned %v, want unavailable wrapping the deadline", err)
	}
	if got := srv.ServerStats().Timeouts; got != 3 {
		t.Fatalf("server answered %d attempts with the deadline code, want 3", got)
	}
	// Work left running past its answer would commit once its delay is over.
	time.Sleep(2 * delay)
	rel, _, err := e.ExecuteSQL("SELECT * FROM dept WHERE id = 40")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Fatalf("%d copies of a row whose every attempt was answered with the deadline code", rel.Len())
	}
}

// lateClient hands back each stream it establishes only once the caller's
// context has ended: an establishment that completes as its caller gives up.
type lateClient struct{ Client }

func (c lateClient) ExecStream(ctx context.Context, sql string) (TupleStream, error) {
	st, err := c.Client.ExecStream(ctx, sql)
	<-ctx.Done()
	return st, err
}

// TestAbandonedEstablishmentLeavesNoStream: a stream whose establishment
// outlives its caller's context goes to that caller, who closes it. An
// orphaned stream would stay registered on its connection, fill its window
// and block the connection's read loop, wedging every later request on a
// one-connection pool.
func TestAbandonedEstablishmentLeavesNoStream(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	// One-tuple frames and a one-frame window: emp's four rows overflow it.
	p := dialTestPool(t, addr, PoolOptions{Size: 1, FrameTuples: 1, streamWindow: 1, RequestTimeout: 2 * time.Second})
	rc := NewResilientClient(lateClient{p}, Resilience{Sleep: func(time.Duration) {}})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	st, err := rc.ExecStream(ctx, "SELECT * FROM emp")
	cancel()
	if err == nil {
		st.Close()
	}

	next, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := rc.ExecCtx(next, "SELECT * FROM dept"); err != nil {
		t.Fatalf("request after an abandoned establishment: %v", err)
	}
	if load := p.conns[0].load.Load(); load != 0 {
		t.Fatalf("connection load %d after every request settled, want 0", load)
	}
}
