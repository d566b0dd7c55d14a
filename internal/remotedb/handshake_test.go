package remotedb

import (
	"bufio"
	"context"
	"encoding/binary"
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

// clientHello is the opener this build's client sends: magic, version and
// frame size.
func clientHello(version byte, frameTuples uint64) []byte {
	return binary.AppendUvarint(append([]byte(helloMagic), version), frameTuples)
}

// acceptHello reads a client's hello and accepts it, returning the reader its
// frames then arrive on.
func acceptHello(conn net.Conn) (*bufio.Reader, bool) {
	br := bufio.NewReader(conn)
	opener := make([]byte, len(helloMagic)+1)
	if _, err := io.ReadFull(br, opener); err != nil || string(opener) != helloMagic+"\x05" {
		return nil, false
	}
	if _, err := binary.ReadUvarint(br); err != nil {
		return nil, false
	}
	_, err := conn.Write(opener)
	return br, err == nil
}

// sayHello opens conn as a protocol-5 client, returning the reader frames
// arrive on.
func sayHello(t *testing.T, conn net.Conn) *bufio.Reader {
	t.Helper()
	if _, err := conn.Write(clientHello(protoV5, 0)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	answer := make([]byte, len(helloMagic)+1)
	if _, err := io.ReadFull(br, answer); err != nil || string(answer) != helloMagic+"\x05" {
		t.Fatalf("hello answered %q, %v", answer, err)
	}
	return br
}

// gobHello is the opener of the gob protocols 1–4, as the protocol-4 build
// encoded it: wireRequest{Op: "hello", Proto: proto}. A gob int n is the
// byte 2n, so the version is one byte of the value message.
func gobHello(proto byte) []byte {
	return []byte("h\x7f\x03\x01\x01\vwireRequest\x01\xff\x80\x00\x01\b\x01\x02Op\x01\f\x00\x01\x03SQL\x01\f\x00" +
		"\x01\x04Name\x01\f\x00\x01\x05Proto\x01\x04\x00\x01\vFrameTuples\x01\x04\x00\x01\x06Resume\x01\f\x00" +
		"\x01\x04Skip\x01\x04\x00\x01\x05Trace\x01\x06\x00\x00\x00\f\xff\x80\x01\x05hello\x03" + string(rune(2*proto)) + "\x00")
}

// gobRefusalV4 is what a protocol-4 server, which spoke gob, answers this
// build's hello with: a gob wireResponse whose Err is its decoder's complaint.
const gobRefusalV4 = "N\xff\x81\x03\x01\x01\fwireResponse\x01\xff\x82\x00\x01\x05\x01\x03Err\x01\f\x00\x01\x05Attrs" +
	"\x01\xff\x86\x00\x01\x05Stats\x01\xff\x88\x00\x01\x06Tables\x01\xff\x8c\x00\x01\x05Proto\x01\x04\x00" +
	"\x00\x00\"\xff\x85\x02\x01\x01\x13[]remotedb.wireAttr\x01\xff\x86\x00\x01\xff\x84\x00\x00(\xff\x83\x03" +
	"\x01\x01\bwireAttr\x01\xff\x84\x00\x01\x02\x01\x04Name\x01\f\x00\x01\x04Kind\x01\x06\x00\x00\x00/\xff" +
	"\x87\x03\x01\x01\nTableStats\x01\xff\x88\x00\x01\x02\x01\x04Rows\x01\x04\x00\x01\bDistinct\x01\xff" +
	"\x8a\x00\x00\x00\x13\xff\x89\x02\x01\x01\x05[]int\x01\xff\x8a\x00\x01\x04\x00\x00\x16\xff\x8b\x02" +
	"\x01\x01\b[]string\x01\xff\x8c\x00\x01\f\x00\x00;\xff\x82\x014protocol: gob: encoded unsigned integer" +
	" out of range\x02\x00\x00"

// TestPoolHandshakeMutePeerHonorsContext: a peer that accepts TCP and never
// answers hello must cost a caller its own deadline and nothing more — with
// no RequestTimeout configured, and without wedging the next caller behind
// the connection lock the handshake runs under.
func TestPoolHandshakeMutePeerHonorsContext(t *testing.T) {
	addr, hangUp := startFakePeer(t, func(n int, conn net.Conn) {
		if n == 0 {
			acceptHello(conn) // let DialPool succeed
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

// TestServerRejectsOtherOpener: a peer that opens with anything but the
// protocol-5 hello gets exactly one error frame naming the unsupported
// protocol, then EOF — never a result, never a hang. "hello proto N" is the
// gob hello of protocols 1–4 claiming version N: such a client fails to
// decode the frame, and reads no further.
func TestServerRejectsOtherOpener(t *testing.T) {
	addr, _, cleanup := startTestServer(t)
	defer cleanup()
	exec := encodeFrames(t, &wireFrame{ID: 1, Kind: frameReq, Req: &wireRequest{Op: "exec", SQL: "SELECT * FROM dept"}})
	openers := map[string][]byte{
		"bare exec":       exec,
		"hello proto 1":   gobHello(1),
		"hello proto 2":   gobHello(2),
		"hello proto 3":   gobHello(3),
		"hello proto 4":   gobHello(4),
		"hello proto 5":   gobHello(5),
		"hello version 4": clientHello(4, 0),
		"hello version 6": clientHello(6, 0),
	}
	for name, opener := range openers {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Write(opener); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			f, err := readFrame(br)
			if err != nil {
				t.Fatalf("no answer to the opener: %v", err)
			}
			if f.Kind != frameEnd || !strings.Contains(f.Err, "unsupported protocol") {
				t.Fatalf("answer is not an error frame naming the unsupported protocol: %+v", f)
			}
			if next, err := readFrame(br); err != io.EOF {
				t.Fatalf("after the refusal: %v (%+v), want EOF", err, next)
			}
		})
	}
}

// TestDialPoolRejectsOtherServer: a server that answers hello with another
// version, with an error frame, or in gob fails the dial with a typed hello
// ProtocolError — at once, though the peer keeps the connection open.
func TestDialPoolRejectsOtherServer(t *testing.T) {
	refusal := encodeFrames(t, &wireFrame{Kind: frameEnd, Err: `remotedb: unknown op "hello"`})
	answers := map[string]struct {
		bytes []byte
		says  string // what the dial error says
	}{
		"proto 1":    {append([]byte(helloMagic), 1), "server answered protocol 1"},
		"proto 2":    {append([]byte(helloMagic), 2), "server answered protocol 2"},
		"proto 3":    {append([]byte(helloMagic), 3), "server answered protocol 3"},
		"proto 6":    {append([]byte(helloMagic), 6), "server answered protocol 6"},
		"unknown op": {refusal, `unknown op "hello"`},
		"v4 refusal": {[]byte(gobRefusalV4), "does not answer hello at protocol 5"},
	}
	for name, answer := range answers {
		t.Run(name, func(t *testing.T) {
			addr, _ := startFakePeer(t, func(_ int, conn net.Conn) {
				io.ReadFull(conn, make([]byte, len(clientHello(protoV5, 0))))
				conn.Write(answer.bytes)
			})
			p, err := DialPool(addr, PoolOptions{Size: 1, RequestTimeout: 5 * time.Second})
			if err == nil {
				p.Close()
				t.Fatal("DialPool succeeded against a server of another protocol")
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Op != "hello" || !strings.Contains(err.Error(), answer.says) {
				t.Fatalf("DialPool returned %v, want a ProtocolError{Op: \"hello\"} saying %q", err, answer.says)
			}
		})
	}
}
