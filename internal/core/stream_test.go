package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// pairsServer serves a table p(a INT, b INT) of rows rows over TCP, with the
// listener faults given, and returns its address.
func pairsServer(t *testing.T, rows int, faults *remotedb.ListenerFaults) string {
	t.Helper()
	e := remotedb.NewEngine()
	if _, _, err := e.ExecuteSQL("CREATE TABLE p (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	tuples := make([]relation.Tuple, rows)
	for i := range tuples {
		tuples[i] = relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 97))}
	}
	if err := e.Insert("p", tuples); err != nil {
		t.Fatal(err)
	}
	srv := remotedb.NewServerWithOptions(e, remotedb.ServerOptions{Faults: faults})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// lazyRemoteSystem asks q(X, Y) :- p(X, Y) over a bare one-connection pool,
// through a CMS that answers every query with a lazy remote stream.
func lazyRemoteSystem(t *testing.T, addr string, strat ie.Strategy) (*System, *remotedb.PoolClient) {
	t.Helper()
	pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 1, Costs: remotedb.DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	kb, err := logic.ParseProgram(":- base(p/2).\nq(X, Y) :- p(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.IE.Strategy = strat
	cfg.CMS.Features = cache.Features{Lazy: true}
	sys, err := NewSystem(kb, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, pool
}

// TestKilledSegmentStreamFailsTheAsk: a remote stream that dies mid-transfer
// fails the ask with a transient error; its prefix is never handed out as
// the whole answer.
func TestKilledSegmentStreamFailsTheAsk(t *testing.T) {
	addr := pairsServer(t, 5000, &remotedb.ListenerFaults{Seed: 30, StreamKillRate: 1, StreamKillAfter: 3})
	for _, strat := range []ie.Strategy{ie.StrategyInterpreted, ie.StrategyCompiled} {
		sys, _ := lazyRemoteSystem(t, addr, strat)
		sol, err := sys.AskText("q(X, Y)?")
		if err != nil {
			t.Fatal(err)
		}
		n := len(sol.All())
		if err := sol.Err(); !remotedb.IsTransient(err) {
			t.Errorf("%s: %d of 5000 answers, Err() = %v; want a transient error", strat, n, err)
		}
	}
}

// TestAbandonedAnswerReleasesRemoteStream: closing an answer cancels the
// remote stream it still reads, so the pool's one connection serves the next
// request instead of stalling behind a full stream window.
func TestAbandonedAnswerReleasesRemoteStream(t *testing.T) {
	addr := pairsServer(t, 50000, nil)
	sys, pool := lazyRemoteSystem(t, addr, ie.StrategyInterpreted)
	sol, err := sys.AskText("q(X, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sol.Next(); !ok {
		t.Fatalf("no first answer: %v", sol.Err())
	}
	sol.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := pool.ExecCtx(ctx, "SELECT b FROM p WHERE a = 7")
	if err != nil {
		t.Fatalf("the pool's next request: %v", err)
	}
	if res.Rel.Len() != 1 {
		t.Fatalf("the pool's next request answered %d rows, want 1", res.Rel.Len())
	}
	if got := sys.Stats().StreamsCanceled; got != 1 {
		t.Fatalf("StreamsCanceled = %d, want 1", got)
	}
}

// TestCanceledAskFreesThePool: an ask over a one-connection pool whose server
// takes 250 ms over every request stops as soon as its context is canceled
// or expires, with the typed error and well within the segment it waits on,
// and leaves the connection to the next ask, which answers in full. The
// CMS's dispatch books balance, and no goroutine outlives the pool and the
// server.
func TestCanceledAskFreesThePool(t *testing.T) {
	const slow, soon = 250 * time.Millisecond, 25 * time.Millisecond
	before := runtime.NumGoroutine()
	t.Run("asks", func(t *testing.T) {
		addr := pairsServer(t, 200, &remotedb.ListenerFaults{Seed: 1, DelayRate: 1, Delay: slow})
		pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 1, Costs: remotedb.DefaultCosts()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		kb, err := logic.ParseProgram(":- base(p/2).\nq(X, Z) :- p(X, Y), p(Y, Z).")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(kb, pool, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Catalog reads carry no context (bridge.DataSource's methods are
		// pinned), so the catalog copies are made current before any ask: a
		// request observes p's version, and the shape's compile and the
		// schema read after it fetch what they read once more.
		if _, err := pool.ExecCtx(context.Background(), "SELECT b FROM p WHERE a = 7"); err != nil {
			t.Fatal(err)
		}
		goal := logic.A("q", logic.V("X"), logic.V("Z"))
		if _, err := sys.Engine.Advice(goal); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.DS.RelationSchema("p", 2); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			ctx  func() (context.Context, context.CancelFunc)
			want error
		}{
			{"canceled", func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(soon, cancel)
				return ctx, cancel
			}, bridge.ErrCanceled},
			{"deadline", func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), soon)
			}, bridge.ErrDeadlineExceeded},
		} {
			ctx, cancel := tc.ctx()
			sol, err := sys.Engine.AskCtx(ctx, goal)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			sub, ok := sol.Next()
			took := time.Since(start)
			cancel()
			if ok || !errors.Is(sol.Err(), tc.want) {
				t.Fatalf("%s: Next = %v, %v; Err = %v, want %v", tc.name, sub, ok, sol.Err(), tc.want)
			}
			if took >= slow {
				t.Fatalf("%s: the ask took %v to stop, a segment takes %v", tc.name, took, slow)
			}
		}
		sol, err := sys.Engine.Ask(goal)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sol.All()); n != 200 || sol.Err() != nil {
			t.Fatalf("the next ask answered %d of 200: %v", n, sol.Err())
		}
		if st := sys.Stats(); !st.DispatchConserved() || st.Canceled+st.DeadlineExceeded != 2 {
			t.Fatalf("dispatch books: %+v", st)
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+3 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:runtime.Stack(buf, true)])
	}
}
