package remotedb

import (
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startFakePeer listens on loopback and hands every accepted connection,
// with its accept order, to serve on its own goroutine. Connections stay open
// after serve returns — a peer that has gone mute, not one that hung up —
// until hangUp, which also runs when the test ends.
func startFakePeer(t *testing.T, serve func(n int, conn net.Conn)) (addr string, hangUp func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				serve(n, conn)
			}(n)
		}
	}()
	hangUp = func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
	t.Cleanup(hangUp)
	return ln.Addr().String(), hangUp
}

// answerHello reads the opener and answers it with resp.
func answerHello(conn net.Conn, resp wireResponse) {
	var req wireRequest
	if gob.NewDecoder(conn).Decode(&req) == nil {
		gob.NewEncoder(conn).Encode(resp)
	}
}

// TestPoolHandshakeMutePeerHonorsContext: a peer that accepts TCP and never
// answers hello must cost a caller its own deadline and nothing more — with
// no RequestTimeout configured, and without wedging the next caller behind
// the connection lock the handshake runs under.
func TestPoolHandshakeMutePeerHonorsContext(t *testing.T) {
	addr, hangUp := startFakePeer(t, func(n int, conn net.Conn) {
		if n == 0 {
			answerHello(conn, wireResponse{Proto: protoV4}) // let DialPool succeed
		}
	})
	p := dialTestPool(t, addr, PoolOptions{Size: 1})
	p.breakConn() // every later dial meets the mute peer

	type result struct {
		err  error
		took time.Duration
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := p.ExecStream(ctx, "SELECT * FROM dept")
			results <- result{err, time.Since(start)}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if !errors.Is(r.err, context.DeadlineExceeded) {
				t.Fatalf("ExecStream against a mute peer returned %v, want context.DeadlineExceeded", r.err)
			}
			if !IsTransient(r.err) {
				t.Fatalf("handshake timeout must be transient: %v", r.err)
			}
			if r.took > time.Second {
				t.Fatalf("ExecStream took %v under a 100ms context", r.took)
			}
		case <-time.After(3 * time.Second):
			hangUp() // or the pool's Close would wait on the wedged handshake too
			t.Fatal("ExecStream hung in the hello handshake of a mute peer")
		}
	}
}

// TestServerRejectsOtherOpener: a peer that opens with anything but hello at
// version 4 gets exactly one error response naming the unsupported protocol,
// then EOF — never a result, never a hang. Version 3 matters most: its client
// would drop the table versions on this build's frames and keep serving views
// the server has moved past; version 2 would read batch frames as empty.
func TestServerRejectsOtherOpener(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	openers := map[string]wireRequest{
		"bare exec":     {Op: "exec", SQL: "SELECT * FROM dept"},
		"hello proto 1": {Op: "hello", Proto: 1},
		"hello proto 2": {Op: "hello", Proto: 2},
		"hello proto 3": {Op: "hello", Proto: 3},
		"hello proto 5": {Op: "hello", Proto: 5},
	}
	for name, opener := range openers {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
			if err := enc.Encode(&opener); err != nil {
				t.Fatal(err)
			}
			var resp wireResponse
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("no response to the opener: %v", err)
			}
			if !strings.Contains(resp.Err, "unsupported protocol") {
				t.Fatalf("response does not name the unsupported protocol: %+v", resp)
			}
			if resp.Proto != 0 {
				t.Fatalf("rejected opener still got an answer: %+v", resp)
			}
			var next wireResponse
			if err := dec.Decode(&next); !errors.Is(err, io.EOF) {
				t.Fatalf("after the rejection: %v (%+v), want EOF", err, next)
			}
		})
	}
}

// TestDialPoolRejectsOtherServer: a server that answers hello with another
// version, or with an error, fails the dial with a typed hello ProtocolError.
func TestDialPoolRejectsOtherServer(t *testing.T) {
	answers := map[string]wireResponse{
		"proto 1": {Proto: 1},
		"proto 2": {Proto: 2},
		"proto 3": {Proto: 3},
		// What a version-3 server answers this build's hello with.
		"v3 refusal": {Err: `remotedb: unsupported protocol: a connection opens with hello at version 3, got op "hello" at version 4`},
		"unknown op": {Err: `remotedb: unknown op "hello"`},
	}
	for name, answer := range answers {
		t.Run(name, func(t *testing.T) {
			addr, _ := startFakePeer(t, func(_ int, conn net.Conn) { answerHello(conn, answer) })
			p, err := DialPool(addr, PoolOptions{Size: 1})
			if err == nil {
				p.Close()
				t.Fatal("DialPool succeeded against a server of another version")
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Op != "hello" {
				t.Fatalf("DialPool returned %v, want a ProtocolError{Op: \"hello\"}", err)
			}
		})
	}
}
