package remotedb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// waitSpans polls the tracer until pred sees the spans it wants — the
// server's deferred span commits race with the client observing the final
// frame, so assertions on the server ring need a grace window.
func waitSpans(t *testing.T, tr *obs.Tracer, pred func([]*obs.Span) bool) []*obs.Span {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans := tr.Spans()
		if pred(spans) {
			return spans
		}
		if time.Now().After(deadline) {
			var names []string
			for _, s := range spans {
				names = append(names, s.Name)
			}
			t.Fatalf("spans never matched; ring has %v", names)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireTracePropagationV2: a client span's trace ID rides the v2 exec
// request, so the server's stream and engine spans land in the SAME trace —
// the client and server rings stitch into one cross-tier timeline.
func TestWireTracePropagationV2(t *testing.T) {
	e := newTestEngine(t)
	serverTr := obs.NewTracer(1, 64)
	e.SetTracer(serverTr)
	srv := NewServerWithOptions(e, ServerOptions{Tracer: serverTr})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{})

	clientTr := obs.NewTracer(1, 16)
	ctx, root := clientTr.Start(context.Background(), "client.query")
	if root == nil {
		t.Fatal("client root span not sampled at 1-in-1")
	}
	st, err := p.ExecStream(ctx, "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	if st.Err() != nil || n != 4 {
		t.Fatalf("join over wire: n=%d err=%v", n, st.Err())
	}
	root.End()

	spans := waitSpans(t, serverTr, func(spans []*obs.Span) bool {
		for _, s := range spans {
			if s.Name == "server.stream" && s.TraceID == root.TraceID {
				return true
			}
		}
		return false
	})
	// The join is planned, so engine spans must have joined the trace too.
	joined := map[string]bool{}
	for _, s := range spans {
		if s.TraceID == root.TraceID {
			joined[s.Name] = true
		}
	}
	if !joined["engine.plancache"] && !joined["engine.optimize"] && !joined["engine.execute"] {
		t.Fatalf("no engine span joined trace %x; server recorded %v", root.TraceID, joined)
	}
}

// TestStreamResumeKeepsTraceID: a resumed stream re-issues the request under
// the ORIGINAL trace ID, so the kill-and-resume pair shows up as two
// server.stream spans in one trace rather than a fresh unexplained stream.
func TestStreamResumeKeepsTraceID(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 120)
	serverTr := obs.NewTracer(1, 64)
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: 8, Tracer: serverTr})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{FrameTuples: 8})

	const traceID = 0xBEEF
	ctx := obs.WithTraceID(context.Background(), traceID)
	const src = "SELECT v FROM big WHERE k < 100"
	st, err := p.ExecStream(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	token, _ := st.(ResumeReporter).ResumeState()
	if token == "" {
		t.Fatal("no resume token on the scan header")
	}
	var head int64
	for i := 0; i < 37; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("tuple %d missing: %v", i, st.Err())
		}
		head++
	}
	p.breakConn()
	st.Close()

	var re TupleStream
	for attempt := 0; ; attempt++ {
		re, err = p.ExecStreamResume(ctx, src, token, head)
		if err == nil {
			break
		}
		if attempt > 50 || !IsTransient(err) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := drainTuples(re); err != nil {
		t.Fatal(err)
	}

	waitSpans(t, serverTr, func(spans []*obs.Span) bool {
		n := 0
		for _, s := range spans {
			if s.Name == "server.stream" && s.TraceID == traceID {
				n++
			}
		}
		return n >= 2
	})
}

// TestExplainAnalyzeJoinOverWire: EXPLAIN ANALYZE on a 2-table join reports
// per-node estimated vs actual rows/ops/time, both engine-direct and over
// the pooled wire transport (the `.explain` path braid-repl uses).
func TestExplainAnalyzeJoinOverWire(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const stmt = "EXPLAIN ANALYZE SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id"
	check := func(where string, rel fmt.Stringer) {
		t.Helper()
		out := rel.String()
		for _, want := range []string{"est rows", "actual rows", "ops", "time", "plan cache"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s EXPLAIN ANALYZE missing %q:\n%s", where, want, out)
			}
		}
	}

	rel, _, err := e.ExecuteSQL(stmt)
	if err != nil {
		t.Fatal(err)
	}
	check("engine", rel)

	p := dialTestPool(t, addr, PoolOptions{})
	res, err := p.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	check("wire", res.Rel)
	// Header (est vs actual totals) plus at least a join node and two scans.
	if res.Rel.Len() < 4 {
		t.Fatalf("EXPLAIN ANALYZE of a join returned %d lines, want >= 4:\n%s",
			res.Rel.Len(), res.Rel)
	}
}

// TestPoolStatsSnapshotUnderLoad reads client and server stats snapshots
// while streams are in flight; under -race this proves the counters are
// genuinely atomic rather than racily summed.
func TestPoolStatsSnapshotUnderLoad(t *testing.T) {
	e := newTestEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 2, FrameTuples: 1})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := p.ExecStream(context.Background(), "SELECT * FROM emp")
				if err != nil {
					continue
				}
				for _, ok := st.Next(); ok; _, ok = st.Next() {
				}
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		_ = p.Stats()
		_ = srv.ServerStats()
	}
	close(stop)
	wg.Wait()
	if st := p.Stats(); st.Streams == 0 || st.FramesRecv == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
}
