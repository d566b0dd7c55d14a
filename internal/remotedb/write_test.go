package remotedb

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn is a server connection that counts its socket writes.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

// listenCounting starts srv on a loopback listener whose connections count
// the socket writes they are given, and returns its address and the count.
func listenCounting(t *testing.T, srv *Server) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := countingListener{ln, new(atomic.Int64)}
	srv.mu.Lock()
	srv.listener = cl
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.acceptLoop(cl)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), cl.writes
}

// TestSmallAnswerOneWrite: a stream's header shares the socket write of its
// first batch and its last batch that of its end frame, so an answer of at
// most frameTuples rows reaches the socket in one write, an INSERT's header
// and end share one, and an answer of n frames (n-2 batches) takes n-2
// writes. The frames themselves, and both ends' counts of them, are those of
// one write per frame.
func TestSmallAnswerOneWrite(t *testing.T) {
	const ft = 4
	e := NewEngine()
	loadBigTable(t, e, 20)
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: ft})
	addr, writes := listenCounting(t, srv)
	c := dialTestPool(t, addr, PoolOptions{Size: 1, FrameTuples: ft})
	if _, err := c.Tables(); err != nil { // the hello's write is behind us
		t.Fatal(err)
	}
	exec := func(sql string, wantRows int) (w, sent, recv int64) {
		t.Helper()
		w0, s0, r0 := writes.Load(), srv.ServerStats().FramesSent, c.Stats().FramesRecv
		res, err := c.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if wantRows >= 0 && res.Rel.Len() != wantRows {
			t.Fatalf("%s: %d rows, want %d", sql, res.Rel.Len(), wantRows)
		}
		return writes.Load() - w0, srv.ServerStats().FramesSent - s0, c.Stats().FramesRecv - r0
	}
	for rows := 0; rows <= 13; rows++ {
		sql := fmt.Sprintf("SELECT k, v FROM big WHERE k < %d", rows)
		batches := int64((rows + ft - 1) / ft)
		w, sent, recv := exec(sql, rows)
		if sent != batches+2 || recv != sent {
			t.Fatalf("%d rows: server sent %d frames, client read %d; want %d each", rows, sent, recv, batches+2)
		}
		if want := max(1, batches); w != want {
			t.Fatalf("%d rows in %d frames took %d socket writes, want %d", rows, sent, w, want)
		}
	}
	for i, sql := range []string{"INSERT INTO big VALUES (100, 'x')", "EXPLAIN SELECT k FROM big"} {
		if w, sent, recv := exec(sql, -1); w != 1 || sent < 2 || sent > 3 || recv != sent {
			t.Fatalf("statement %d: %d frames sent, %d read, in %d writes; want 2 or 3 frames in one write", i, sent, recv, w)
		}
	}
	w0, s0 := writes.Load(), srv.ServerStats().FramesSent
	if _, err := c.Tables(); err != nil {
		t.Fatal(err)
	}
	if w, sent := writes.Load()-w0, srv.ServerStats().FramesSent-s0; w != 1 || sent != 1 {
		t.Fatalf("a catalog request took %d writes of %d frames, want 1 of 1", w, sent)
	}
}

// TestStreamKillCountsFramesOnTheWire: a stream-kill fault counts only
// frames on the wire, and sends what the stream holds before it severs the
// connection, so a kill after one frame delivers exactly the header and a
// kill after two the header and the first batch — not the batch the header
// was held for, nor the end frame the last batch was.
func TestStreamKillCountsFramesOnTheWire(t *testing.T) {
	for _, tc := range []struct {
		after, rows int
		want        []uint8
	}{
		{1, 2, []uint8{frameHeader}},
		{1, 0, []uint8{frameHeader}},
		{2, 2, []uint8{frameHeader, frameBatch}},
		{2, 9, []uint8{frameHeader, frameBatch}},
		{3, 9, []uint8{frameHeader, frameBatch, frameBatch}},
		{3, 2, []uint8{frameHeader, frameBatch, frameEnd}}, // too short to be killed
	} {
		e := NewEngine()
		loadBigTable(t, e, 20)
		srv := NewServerWithOptions(e, ServerOptions{
			FrameTuples: 4,
			Faults:      &ListenerFaults{Seed: 1, StreamKillRate: 1, StreamKillAfter: tc.after},
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		got := rawExecFrames(t, addr, 4, fmt.Sprintf("SELECT k FROM big WHERE k < %d", tc.rows))
		srv.Close()
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("kill after %d, %d rows: the client read frames %v, want %v", tc.after, tc.rows, got, tc.want)
		}
	}
}

// rawExecFrames sends one exec request on a bare framed connection and
// returns the kinds of the frames that arrive until the end frame or the
// connection's end.
func rawExecFrames(t *testing.T, addr string, frameTuples int, sql string) []uint8 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(clientHello(protoV5, uint64(frameTuples))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := io.ReadFull(br, make([]byte, len(helloMagic)+1)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	if err := writeFrame(conn, &buf, &wireFrame{ID: 1, Kind: frameReq, Req: &wireRequest{Op: "exec", SQL: sql}}); err != nil {
		t.Fatal(err)
	}
	var kinds []uint8
	for {
		f, err := readFrame(br)
		if err != nil {
			return kinds
		}
		kinds = append(kinds, f.Kind)
		if f.Kind == frameEnd {
			return kinds
		}
	}
}
