package remotedb

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPoolCloseNoGoroutineLeak brackets the pool's only goroutines, one read
// loop per live connection: Close racing in-flight requests and the redials
// they make after injected connection breaks must leave no goroutine behind —
// not a readLoop resurrected by a redial that lost the race with Close. Run
// under -race this also shakes out the teardown/redial ordering (the
// generation guard in teardownGen).
func TestPoolCloseNoGoroutineLeak(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()

	// Warm up one full cycle so lazily initialized runtime goroutines (timer
	// wheels, network poller) are excluded from the baseline.
	warm := dialLeakPool(t, addr)
	warm.Exec("SELECT * FROM dept")
	warm.Close()
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()

	for round := 0; round < 25; round++ {
		p := dialLeakPool(t, addr)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					p.Exec("SELECT * FROM dept") // errors expected once Close lands
				}
			}()
		}
		// Break connections mid-flight so the workers' next requests are
		// redialing exactly when Close arrives.
		p.breakConn()
		if round%2 == 0 {
			// Close while requests are still in flight: the nastier ordering.
			time.Sleep(time.Millisecond)
			p.Close()
			wg.Wait()
		} else {
			wg.Wait()
			p.Close()
		}
		// Closing twice must be a no-op, not a double-teardown.
		p.Close()
	}

	// Goroutines wind down asynchronously (readLoops observe the closed
	// socket); poll with a deadline instead of asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func dialLeakPool(t *testing.T, addr string) *PoolClient {
	t.Helper()
	p, err := DialPool(addr, PoolOptions{
		Size:           3,
		RequestTimeout: 2 * time.Second,
		Costs:          DefaultCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
