package remotedb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

// Tests for the connection state a pool keeps between requests (pool.go):
// the header memo, the spare channels of streams that ended, and what a warm
// request costs end to end with both sides of the connection in the process.

// drainSorted drains a stream into its rows, printed and sorted, and fails
// the test on a stream error.
func drainSorted(t testing.TB, st TupleStream) []string {
	t.Helper()
	var rows []string
	for {
		tu, ok := st.Next()
		if !ok {
			break
		}
		rows = append(rows, fmt.Sprint(tu))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(rows)
	return rows
}

// TestRemoteRequestAllocs: a warm request through DialPool over loopback
// allocates, on both sides of the connection together, at most its budget: a
// point SELECT 16 times and a join 25, each shipping 7.5 rows on average.
// Before the server gave its request frames back, headers resolved to a kept
// schema and ended streams gave their channels back, the same requests read
// 32.0 and 43.8. Mallocs are the whole process's, the least of three rounds
// of 200 requests, compared as the nearest whole count: what the rest of the
// process allocates during a round is a fraction of an allocation a request.
func TestRemoteRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	e := newSuppliersEngine(t)
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 1})
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		shape  int
		budget float64
	}{{"point", 0, 16}, {"join", 3, 25}} {
		var sqls []string
		for k := 3; k < 11; k++ {
			sqls = append(sqls, translateShape(t, e, hitShapes[c.shape], k))
		}
		rows := 0
		request := func(sql string) {
			st, err := p.ExecStream(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				rows++
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			st.Close()
		}
		for _, sql := range sqls {
			request(sql) // plan cache, connection buffers, pooled frames
		}
		const n = 200
		least := -1.0
		for round := 0; round < 3; round++ {
			rows = 0
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < n; i++ {
				request(sqls[i%len(sqls)])
			}
			runtime.ReadMemStats(&m1)
			if per := float64(m1.Mallocs-m0.Mallocs) / n; least < 0 || per < least {
				least = per
			}
		}
		if rows == 0 {
			t.Fatalf("%s: no rows", c.name)
		}
		if math.Round(least) > c.budget {
			t.Errorf("%s: a warm remote request allocates %.1f times, want at most %.0f", c.name, least, c.budget)
		}
		t.Logf("%s: %.1f allocations a request, %.1f rows", c.name, least, float64(rows)/n)
	}
}

// TestHeaderSchemaShared: two statements of one result shape get the one
// schema the connection built for the first; a table replaced with other
// column kinds gets a new schema of those kinds; and however many result
// shapes a connection sees, its memo holds at most maxHeads.
func TestHeaderSchemaShared(t *testing.T) {
	e := NewEngine()
	// The columns of a table named t are c0, c1, ...; of any other table,
	// <name>_0, <name>_1, ..., so every such table's result shape differs.
	table := func(name string, kinds ...relation.Kind) *relation.Relation {
		var attrs []relation.Attr
		for i, k := range kinds {
			col := fmt.Sprintf("%s_%d", name, i)
			if name == "t" {
				col = fmt.Sprintf("c%d", i)
			}
			attrs = append(attrs, relation.Attr{Name: col, Kind: k})
		}
		return relation.New(name, relation.NewSchema(attrs...))
	}
	e.LoadTable(table("t", relation.KindInt, relation.KindString))
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 1})
	ctx := context.Background()
	schemaOf := func(sql string) *relation.Schema {
		t.Helper()
		st, err := p.ExecStream(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		drainSorted(t, st)
		return st.Schema()
	}
	first, second := schemaOf("SELECT * FROM t WHERE c0 = 1"), schemaOf("SELECT * FROM t WHERE c0 = 2")
	if first != second {
		t.Fatal("two statements of one shape got two schemas")
	}
	e.LoadTable(table("t", relation.KindFloat, relation.KindString))
	replaced := schemaOf("SELECT * FROM t WHERE c0 = 1")
	if replaced == first || replaced.Attr(0).Kind != relation.KindFloat || replaced.Attr(1).Kind != relation.KindString {
		t.Fatalf("the replaced table's schema is %v, was %v", replaced.Attrs(), first.Attrs())
	}

	c := p.conns[0]
	for i := 0; i < 2*maxHeads; i++ {
		name := fmt.Sprintf("w%d", i)
		kinds := make([]relation.Kind, 1+i%5)
		for j := range kinds {
			kinds[j] = relation.KindInt
		}
		e.LoadTable(table(name, kinds...))
		if sch := schemaOf("SELECT * FROM " + name); sch.Arity() != 1+i%5 {
			t.Fatalf("%s: arity %d, want %d", name, sch.Arity(), 1+i%5)
		}
		c.mu.Lock()
		n := len(c.heads)
		c.mu.Unlock()
		if n > maxHeads || n == 0 {
			t.Fatalf("the header memo holds %d entries, want 1 to %d", n, maxHeads)
		}
	}
}

// TestStreamChannelsReusedOnlyAfterEnd: a stream that read its end frame
// gives its channels to the next stream on its connection; one canceled,
// closed mid-stream or killed with its connection by a stream-kill fault
// never does. Four goroutines sharing one connection that runs four
// requests at once get the answers a serial run gets, and the channels left
// spare hold no frame.
func TestStreamChannelsReusedOnlyAfterEnd(t *testing.T) {
	e := newSuppliersEngine(t)
	srv := NewServerWithOptions(e, ServerOptions{ConnStreams: 4})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Two tuples a frame, so every stream below is many frames long.
	p := dialTestPool(t, addr, PoolOptions{Size: 1, FrameTuples: 2, streamWindow: 1})
	c := p.conns[0]
	ctx := context.Background()
	const scan = "SELECT * FROM part"
	spare := func(frames chan *wireFrame) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, ch := range c.spare {
			if ch.frames == frames {
				return true
			}
		}
		return false
	}
	open := func(ctx context.Context) *muxStream {
		t.Helper()
		st, err := p.ExecStream(ctx, scan)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Next(); !ok {
			t.Fatalf("no first row: %v", st.Err())
		}
		return st.(*muxStream)
	}

	ended := open(ctx)
	frames := ended.frames
	drainSorted(t, ended)
	if !spare(frames) {
		t.Fatal("a stream that read its end frame kept its channels")
	}
	if next := open(ctx); next.frames != frames {
		t.Fatal("the next stream made channels while a spare pair waited")
	} else {
		next.Close()
	}

	cctx, cancel := context.WithCancel(ctx)
	canceled := open(cctx)
	cancel()
	for {
		if _, ok := canceled.Next(); !ok {
			break
		}
	}
	if !errors.Is(canceled.Err(), context.Canceled) {
		t.Fatalf("canceled stream ended with %v", canceled.Err())
	}
	closed := open(ctx)
	closed.Close()
	for _, st := range []*muxStream{canceled, closed} {
		if st.frames == nil || spare(st.frames) {
			t.Fatal("a stream that ended early gave its channels back")
		}
	}

	ksrv := NewServerWithOptions(e, ServerOptions{Faults: &ListenerFaults{Seed: 5, StreamKillRate: 1, StreamKillAfter: 2}})
	kaddr, err := ksrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ksrv.Close()
	// A one-frame window: the read loop meets the end of the connection only
	// after the header has been taken, so the header always arrives.
	kp := dialTestPool(t, kaddr, PoolOptions{Size: 1, FrameTuples: 2, streamWindow: 1})
	st, err := kp.ExecStream(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	killed := st.(*muxStream)
	for {
		if _, ok := killed.Next(); !ok {
			break
		}
	}
	var te *TransportError
	if !errors.As(killed.Err(), &te) {
		t.Fatalf("killed stream ended with %v", killed.Err())
	}
	kc := kp.conns[0]
	kc.mu.Lock()
	kept := len(kc.spare)
	kc.mu.Unlock()
	if killed.frames == nil || kept != 0 {
		t.Fatalf("a stream killed with its connection gave its channels back (%d spare)", kept)
	}

	var stmts []string
	for k := 0; k < 12; k++ {
		for _, shape := range hitShapes {
			stmts = append(stmts, translateShape(t, e, shape, k))
		}
	}
	stmts = append(stmts, scan)
	want := make([][]string, len(stmts))
	for i, sql := range stmts {
		st, err := p.ExecStream(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = drainSorted(t, st)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range stmts {
					i := (i + 7*g) % len(stmts)
					st, err := p.ExecStream(ctx, stmts[i])
					if err != nil {
						t.Error(err)
						return
					}
					var got []string
					for {
						tu, ok := st.Next()
						if !ok {
							break
						}
						got = append(got, fmt.Sprint(tu))
					}
					slices.Sort(got)
					if st.Err() != nil || !slices.Equal(got, want[i]) {
						t.Errorf("goroutine %d, %s: %d rows (%v), want %d", g, stmts[i], len(got), st.Err(), len(want[i]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.spare {
		select {
		case <-ch.gone:
			t.Fatal("a spare gone channel is closed")
		default:
		}
		if len(ch.frames) != 0 {
			t.Fatalf("a spare frames channel holds %d frames", len(ch.frames))
		}
	}
}

// TestRepeatedColumnIsAnError: a schema that repeats a column name is an
// error wherever one is built from input — a CREATE TABLE statement, a
// header or a schema reply from a peer, a logged table — and a server sent
// such a statement keeps serving.
func TestRepeatedColumnIsAnError(t *testing.T) {
	const create = "CREATE TABLE t (x INT, x INT)"
	if _, err := ParseSQL(create); err == nil {
		t.Fatalf("%s parsed", create)
	}
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	p := dialTestPool(t, addr, PoolOptions{Size: 1})
	if _, err := p.Exec(create); err == nil {
		t.Fatalf("%s over the pool: no error", create)
	}
	if _, err := p.Exec("SELECT * FROM dept"); err != nil {
		t.Fatalf("the server stopped serving after %s: %v", create, err)
	}

	twice := []wireAttr{{Name: "x", Kind: 1}, {Name: "x", Kind: 2}}
	peer, _ := startFakePeer(t, func(_ int, conn net.Conn) {
		dec, ok := acceptHello(conn)
		if !ok {
			return
		}
		var buf []byte
		for {
			req, err := readFrame(dec)
			if err != nil {
				return
			}
			if req.Kind != frameReq {
				continue
			}
			f := &wireFrame{ID: req.ID, Kind: frameEnd, Attrs: twice}
			if req.Req.Op == "exec" {
				f = &wireFrame{ID: req.ID, Kind: frameHeader, Name: "r", Attrs: twice}
			}
			if writeFrame(conn, &buf, f) != nil {
				return
			}
		}
	})
	fp := dialTestPool(t, peer, PoolOptions{Size: 1})
	if _, err := fp.ExecStream(context.Background(), "SELECT x FROM r"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("a header repeating a name: %v, want ErrProtocol", err)
	}
	if _, err := fp.RelationSchema("r", -1); !errors.Is(err, ErrProtocol) {
		t.Fatalf("a schema reply repeating a name: %v, want ErrProtocol", err)
	}

	rel := &walTable{Name: "t", Attrs: twice, Rows: appendBatch(nil, 2, nil)}
	if _, err := rel.relation(); err == nil {
		t.Fatal("a logged table repeating a name decoded")
	}
	if err := NewEngine().replayRecord(&walRecord{Kind: walCreateTable, Name: "t", Attrs: twice}); err == nil {
		t.Fatal("a logged CREATE TABLE repeating a name replayed")
	}
}

// TestWideSchemaNamesLinear: the repeated-name check is linear in a schema's
// width wherever a schema is built from input. A 30 000-wide header's schema
// on a memo miss, CREATE TABLE and logged table each build in well under a
// second, where the pairwise check took seconds; a repeat at the end is
// still an error.
func TestWideSchemaNamesLinear(t *testing.T) {
	const width = 30_000
	attrs := make([]wireAttr, width)
	cols := make([]string, width)
	for i := range attrs {
		attrs[i] = wireAttr{Name: fmt.Sprintf("c%d", i), Kind: uint8(relation.KindInt)}
		cols[i] = attrs[i].Name + " INT"
	}
	for _, repeat := range []bool{false, true} {
		in := attrs
		if repeat {
			in = slices.Clone(attrs)
			in[width-1].Name = in[0].Name
			cols[width-1] = in[0].Name + " INT"
		}
		create := "CREATE TABLE w (" + strings.Join(cols, ", ") + ")"
		for _, c := range []struct {
			name  string
			build func() error
		}{
			{"header", func() error { _, err := fromWireAttrs(in); return err }},
			{"CREATE TABLE", func() error { _, err := ParseSQL(create); return err }},
			{"logged table", func() error {
				_, err := (&walTable{Name: "w", Attrs: in, Rows: appendBatch(nil, width, nil)}).relation()
				return err
			}},
		} {
			start := time.Now()
			err := c.build()
			took := time.Since(start)
			if (err != nil) != repeat {
				t.Errorf("%s, repeat %v: err %v", c.name, repeat, err)
			}
			if took > time.Second {
				t.Errorf("%s, repeat %v: %v, want well under a second", c.name, repeat, took)
			}
			t.Logf("%s, repeat %v: %v", c.name, repeat, took)
		}
	}
}
