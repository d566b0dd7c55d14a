package remotedb

import (
	"strings"
	"sync"
	"testing"
)

func startTestServer(t *testing.T) (addr string, e *Engine, cleanup func()) {
	t.Helper()
	e = newTestEngine(t)
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, e, func() { srv.Close() }
}

func TestTCPErrorPropagation(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	c := dialTestPool(t, addr, PoolOptions{Size: 1})
	if _, err := c.Exec("SELECT * FROM missing"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("expected remote error, got %v", err)
	}
	// Connection still usable after an error.
	if _, err := c.Exec("SELECT * FROM dept"); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
	if _, err := c.RelationSchema("missing", -1); err == nil {
		t.Error("schema error should propagate")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialPool(addr, PoolOptions{Size: 1, Costs: DefaultCosts()})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				res, err := c.Exec("SELECT e.name FROM emp e, dept d WHERE e.dept = d.id")
				if err != nil {
					errs <- err
					return
				}
				if res.Rel.Len() != 4 {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPClosedClient(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	// A broken connection redials on use: Close must win over it.
	c, err := DialPool(addr, PoolOptions{Size: 1, Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT * FROM dept"); err == nil {
		t.Error("exec on closed client should error, not redial")
	}
	if err := c.Close(); err != nil {
		t.Error("double close should be fine")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	c := dialTestPool(t, addr, PoolOptions{Size: 1})
	cleanup()
	if _, err := c.Exec("SELECT * FROM dept"); err == nil {
		t.Error("exec against closed server should error")
	}
}

// TestWireDuplicateOutputColumn: a select list naming one column twice used to
// panic the planner (relation.NewSchema) on the stream handler's goroutine,
// which has no recover, so one such statement from any client killed the
// server. It is a semantic error on the end frame, and the connection it
// arrived on serves the next statement.
func TestWireDuplicateOutputColumn(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	c := dialTestPool(t, addr, PoolOptions{Size: 1})
	_, err := c.Exec("SELECT id, id FROM dept")
	if err == nil || !strings.Contains(err.Error(), "remotedb: duplicate output column id") || IsTransient(err) {
		t.Fatalf("expected a semantic duplicate-column error, got %v", err)
	}
	if res, err := c.Exec("SELECT id FROM dept"); err != nil || res.Rel.Len() == 0 {
		t.Fatalf("connection unusable after the error: %v", err)
	}
	c.conns[0].mu.Lock()
	gen := c.conns[0].gen
	c.conns[0].mu.Unlock()
	if gen != 1 {
		t.Fatalf("connection was dialed %d times, want 1", gen)
	}
}

// TestStatsEpochIsObservedEpoch: after a request, a client's Stats().Epoch is
// the clock it has observed, on the in-process transport as on the pool.
func TestStatsEpochIsObservedEpoch(t *testing.T) {
	addr, e, cleanup := startTestServer(t)
	defer cleanup()
	clients := map[string]Client{
		"inproc": NewInProcClient(e, DefaultCosts()),
		"pool":   dialTestPool(t, addr, PoolOptions{Size: 1}),
	}
	for name, c := range clients {
		if _, err := c.Exec("SELECT * FROM dept"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := c.Stats().Epoch, c.ObservedEpoch(); got != want || want == 0 {
			t.Fatalf("%s: Stats().Epoch = %d, ObservedEpoch() = %d; want them equal and non-zero", name, got, want)
		}
	}
}
