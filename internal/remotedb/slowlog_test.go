package remotedb

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func fmtHash(h uint64) string { return fmt.Sprintf("%016x", h) }

// syncBuffer serializes handler writes against the test's reads (the slow
// log emits from server goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLog: with a 1ns threshold every statement is "slow"; the
// structured record must carry the statement hash, row/frame counts, and the
// wall duration. With the log disabled (the default) nothing is emitted.
func TestSlowQueryLog(t *testing.T) {
	e := newTestEngine(t)
	var buf syncBuffer
	srv := NewServerWithOptions(e, ServerOptions{
		SlowQuery: time.Nanosecond,
		SlowLog:   slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{})

	const sql = "SELECT * FROM emp"
	st, err := p.ExecStream(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	if st.Err() != nil || n != 4 {
		t.Fatalf("stream: n=%d err=%v", n, st.Err())
	}

	deadline := time.Now().Add(2 * time.Second)
	var line string
	for {
		if out := buf.String(); strings.Contains(out, "slow query") {
			line = strings.SplitN(out, "\n", 2)[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-query record emitted; log: %q", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, line)
	}
	wantHash := StatementHash(sql)
	if got, _ := rec["stmt_hash"].(string); got == "" || got != fmtHash(wantHash) {
		t.Fatalf("stmt_hash = %v, want %s", rec["stmt_hash"], fmtHash(wantHash))
	}
	if rows, _ := rec["rows"].(float64); int(rows) != 4 {
		t.Fatalf("rows = %v, want 4", rec["rows"])
	}
	if frames, _ := rec["frames"].(float64); frames < 2 {
		t.Fatalf("frames = %v, want >= 2 (header + end)", rec["frames"])
	}
	if _, ok := rec["dur_ms"].(float64); !ok {
		t.Fatalf("dur_ms missing: %v", rec)
	}
}

// TestServerRunsStatementOnce: a statement that does not stream (an INSERT)
// leaves exactly one slow-query record, and a SELECT that fails to resolve is
// planned — and counted as a plan-cache miss — once, not once per execution
// path the server could have taken.
func TestServerRunsStatementOnce(t *testing.T) {
	e := newTestEngine(t)
	var buf syncBuffer
	srv := NewServerWithOptions(e, ServerOptions{
		SlowQuery: time.Nanosecond,
		SlowLog:   slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{})

	const insert = "INSERT INTO dept VALUES (40,'lab')"
	if _, err := p.Exec(insert); err != nil {
		t.Fatal(err)
	}
	before := e.PlanCacheStats().Misses
	if _, err := p.Exec("SELECT nosuch FROM emp"); err == nil {
		t.Fatal("SELECT of an unknown column succeeded")
	}
	if got := e.PlanCacheStats().Misses - before; got != 1 {
		t.Errorf("failing SELECT moved plan-cache misses by %d, want 1", got)
	}

	// Close joins every handler, so no record is still on its way.
	p.Close()
	srv.Close()
	if got := strings.Count(buf.String(), fmtHash(StatementHash(insert))); got != 1 {
		t.Errorf("INSERT left %d slow-query records, want 1; log:\n%s", got, buf.String())
	}
}
