package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/ie"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// kinshipAsks are questions the cache answers in full once asked, among
// them bodies the shaper orders by catalog statistics: with p001 bound,
// elder_parent's age atom (one row per person) goes before its parent atom,
// and mother's female atom before its parent atom; without statistics both
// estimates tie.
var kinshipAsks = []string{"elder_parent(p001, Y)?", "mother(p003, Y)?", "grandfather(p001, Y)?", "uncle(X, p020)?", "anc(p000, Y)?", "cousin(X, Y)?"}

// kinshipOverPool serves a 30-person kinship forest over TCP and returns a
// one-connection pool to it with the server.
func kinshipOverPool(t *testing.T) (*workload.Workload, *remotedb.Server, *remotedb.PoolClient) {
	t.Helper()
	w := workload.Kinship(31, 30)
	srv := remotedb.NewServer(w.Engine())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 1, Costs: remotedb.DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return w, srv, pool
}

// askAll asks every question in turn and returns each one's answers, sorted.
func askAll(t *testing.T, eng *ie.Engine, asks []string) [][]string {
	t.Helper()
	var out [][]string
	for _, a := range asks {
		sol, err := eng.AskText(a)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		var rows []string
		for _, b := range sol.All() {
			rows = append(rows, fmt.Sprint(b))
		}
		if err := sol.Err(); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		slices.Sort(rows)
		out = append(out, rows)
	}
	return out
}

// TestCachedAskSendsNothing: a second round of asks the cache answers sends
// no frame at all, catalog requests included — the statistics the shaper
// orders bodies by come from the CMS's copy of the catalog.
func TestCachedAskSendsNothing(t *testing.T) {
	w, _, pool := kinshipOverPool(t)
	sys, err := NewSystem(w.KB, pool, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := askAll(t, sys.Engine, kinshipAsks)
	before := pool.Stats()
	if before.CatalogRequests == 0 {
		t.Fatal("the first round made no catalog request")
	}
	if again := askAll(t, sys.Engine, kinshipAsks); !slices.EqualFunc(again, first, slices.Equal) {
		t.Fatalf("second round answered %v, first %v", again, first)
	}
	after := pool.Stats()
	if after.FramesSent != before.FramesSent || after.Requests+after.CatalogRequests != before.Requests+before.CatalogRequests {
		t.Fatalf("the cached round sent %d frames: %d requests, %d catalog requests",
			after.FramesSent-before.FramesSent, after.Requests-before.Requests, after.CatalogRequests-before.CatalogRequests)
	}
}

// recordingSource is a DataSource whose sessions record every CAQL query
// they are asked, in order.
type recordingSource struct {
	bridge.DataSource
	mu      sync.Mutex
	queries []string
}

func (r *recordingSource) BeginSession(adv *advice.Advice) bridge.Session {
	return &recordingSession{Session: r.DataSource.BeginSession(adv), r: r}
}

// take returns the queries recorded since the last take.
func (r *recordingSource) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.queries
	r.queries = nil
	return q
}

type recordingSession struct {
	bridge.Session
	r *recordingSource
}

func (s *recordingSession) Query(q *caql.Query) (*bridge.Stream, error) {
	return s.QueryCtx(context.Background(), q)
}

func (s *recordingSession) QueryCtx(ctx context.Context, q *caql.Query) (*bridge.Stream, error) {
	s.r.mu.Lock()
	s.r.queries = append(s.r.queries, q.String())
	s.r.mu.Unlock()
	return s.Session.QueryCtx(ctx, q)
}

// TestDegradedAskIssuesTheSameQueries: with the server gone, an ask the
// cache can answer orders its bodies as it did with the server up — by the
// statistics the CMS kept, not by the shaper's fallback guesses — so it
// issues the same CAQL queries and makes no catalog request.
func TestDegradedAskIssuesTheSameQueries(t *testing.T) {
	w, srv, pool := kinshipOverPool(t)
	cfg := DefaultConfig()
	sys, err := NewSystem(w.KB, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSource{DataSource: sys.DS}
	eng := ie.New(w.KB, rec, cfg.IE)

	askAll(t, eng, kinshipAsks) // warm-up
	rec.take()
	up := askAll(t, eng, kinshipAsks)
	upQueries := rec.take()
	catalog := pool.Stats().CatalogRequests

	srv.Close()
	down := askAll(t, eng, kinshipAsks)
	downQueries := rec.take()
	if !slices.EqualFunc(down, up, slices.Equal) {
		t.Fatalf("with the server gone the asks answered %v, with it up %v", down, up)
	}
	if !slices.Equal(downQueries, upQueries) {
		i := 0
		for i < min(len(downQueries), len(upQueries)) && downQueries[i] == upQueries[i] {
			i++
		}
		t.Fatalf("with the server gone the asks issued %d queries, with it up %d; query %d is %q down, %q up",
			len(downQueries), len(upQueries), i, downQueries[min(i, len(downQueries)-1)], upQueries[min(i, len(upQueries)-1)])
	}
	if got := pool.Stats().CatalogRequests; got != catalog {
		t.Fatalf("%d catalog requests with the server gone", got-catalog)
	}
}
