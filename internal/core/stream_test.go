package core

import (
	"context"
	"testing"
	"time"

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
