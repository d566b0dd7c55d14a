package remotedb

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
)

// encodeFrames frames a handshake-free frame sequence the way a connection's
// writer would: one reused buffer.
func encodeFrames(t testing.TB, frames ...*wireFrame) []byte {
	t.Helper()
	var out bytes.Buffer
	var buf []byte
	for _, f := range frames {
		if err := writeFrame(&out, &buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// frameReader reads frames from b as a connection's reader would.
func frameReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

func sampleFrames() []*wireFrame {
	return []*wireFrame{
		{ID: 1, Kind: frameHeader, Name: "result", Attrs: []wireAttr{{Name: "x", Kind: 1}}},
		{ID: 1, Kind: frameBatch, Batch: appendBatch(nil, 1, []relation.Tuple{{relation.Int(42)}, {relation.Null()}})},
		{ID: 1, Kind: frameEnd, Ops: 2},
	}
}

// TestFrameDecodeTruncated: every proper prefix of a valid frame stream
// decodes its complete frames and then fails fast with io.EOF (clean cut at a
// frame boundary) or a typed *ProtocolError (cut mid-frame) — never a hang,
// never a silent success.
func TestFrameDecodeTruncated(t *testing.T) {
	full := encodeFrames(t, sampleFrames()...)
	for cut := 0; cut < len(full); cut++ {
		dec := frameReader(full[:cut])
		for i := 0; ; i++ {
			f, err := readFrame(dec)
			if err == nil {
				if i >= 3 {
					t.Fatalf("cut %d: decoded more frames than were encoded", cut)
				}
				if f.Kind < frameHeader || f.Kind > frameEnd {
					t.Fatalf("cut %d: bad decoded frame %+v", cut, f)
				}
				continue
			}
			var pe *ProtocolError
			if !errors.Is(err, io.EOF) && !errors.As(err, &pe) {
				t.Fatalf("cut %d: untyped decode error %v", cut, err)
			}
			if errors.As(err, &pe) && !errors.Is(err, ErrProtocol) {
				t.Fatalf("cut %d: ProtocolError does not match ErrProtocol", cut)
			}
			break
		}
	}
}

// TestFrameDecodeCorrupted: flipping any byte of the stream either still
// yields structurally valid frames or fails with a typed *ProtocolError —
// corruption is never mistaken for a clean EOF mid-stream and never panics.
func TestFrameDecodeCorrupted(t *testing.T) {
	full := encodeFrames(t, sampleFrames()...)
	for pos := 0; pos < len(full); pos++ {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xff
		dec := frameReader(mut)
		for i := 0; i < 8; i++ { // a corrupted stream yields at most the 3 originals
			_, err := readFrame(dec)
			if err == nil {
				continue
			}
			var pe *ProtocolError
			if !errors.Is(err, io.EOF) && !errors.As(err, &pe) {
				t.Fatalf("flip at %d: untyped decode error %v", pos, err)
			}
			break
		}
	}
}

// TestFrameDecodeGarbage: arbitrary bytes that never were a frame stream
// fail fast with a typed error.
func TestFrameDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		junk := make([]byte, rng.Intn(256))
		for i := range junk {
			junk[i] = byte(rng.Intn(256))
		}
		_, err := readFrame(frameReader(junk))
		if err == nil {
			t.Fatalf("trial %d: garbage decoded as a frame", trial)
		}
		var pe *ProtocolError
		if !errors.Is(err, io.EOF) && !errors.As(err, &pe) {
			t.Fatalf("trial %d: untyped decode error %v", trial, err)
		}
	}
}

// TestFrameRejectsUnknownKind: a frame of a kind this build does not know is
// a protocol violation, not a decodable frame; so is a valid frame followed by
// bytes inside its length.
func TestFrameRejectsUnknownKind(t *testing.T) {
	for name, payload := range map[string][]byte{
		"kind 0":             {0, 3},
		"kind 200":           {200, 3},
		"cancel with tail":   {frameCancel, 3, 0},
		"header bool byte 2": append(appendFrame(nil, &wireFrame{ID: 3, Kind: frameHeader})[:5], 2, 0, 0),
		"empty request":      {frameReq, 4},
	} {
		raw := le.AppendUint32(nil, uint32(len(payload)))
		if _, err := readFrame(frameReader(append(raw, payload...))); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: got %v, want ErrProtocol", name, err)
		}
	}
}

// TestFrameRoundTripAllKinds: every kind survives write → read with every
// field it carries, and a reader's batch is the writer's bytes.
func TestFrameRoundTripAllKinds(t *testing.T) {
	moved := []wireVersion{{Table: "emp", Version: 9}, {Table: "dept", Version: 1 << 40}}
	frames := []*wireFrame{
		{ID: 1, Kind: frameReq, Req: &wireRequest{Op: "exec", SQL: "SELECT * FROM t WHERE s = 'käte'", Resume: "tok", Skip: 7, Trace: math.MaxUint64}},
		{ID: 1 << 62, Kind: frameCancel},
		{ID: 2, Kind: frameHeader, Name: "r", Attrs: []wireAttr{{"x", 1}, {"", 3}}, Resume: "t", Resumed: true, Epoch: 12, Versions: &moved},
		{ID: 3, Kind: frameBatch, Batch: appendBatch(nil, 1, []relation.Tuple{{relation.Str("a")}})},
		{ID: 4, Kind: frameEnd, Ops: -5, Code: wireCodeDeadline, Err: "late", Attrs: []wireAttr{{"y", 2}},
			Stats: TableStats{Rows: 3, Distinct: []int{1, 2}}, Tables: []string{"a", "b"}, Epoch: 13, Versions: &moved},
	}
	dec := frameReader(encodeFrames(t, frames...))
	for _, want := range frames {
		got, err := readFrame(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appendFrame(nil, got), appendFrame(nil, want)) {
			t.Fatalf("kind %d: read %+v, wrote %+v", want.Kind, got, want)
		}
	}
	if _, err := readFrame(dec); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// FuzzDecodeFrame: arbitrary bytes decode to a typed error or to a frame that
// re-encodes to exactly those bytes; never a panic. A header's or an end
// frame's attrs then build a schema or an error, a repeated name included.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(appendFrame(nil, fr))
	}
	twice := []wireAttr{{Name: "x", Kind: 1}, {Name: "x", Kind: 2}}
	f.Add(appendFrame(nil, &wireFrame{ID: 9, Kind: frameHeader, Name: "r", Attrs: twice}))
	f.Add(appendFrame(nil, &wireFrame{ID: 9, Kind: frameEnd, Attrs: twice}))
	f.Add(appendFrame(nil, &wireFrame{ID: 9, Kind: frameReq, Req: &wireRequest{Op: "exec", SQL: "SELECT 1", Skip: -1}}))
	f.Add(appendFrame(nil, &wireFrame{ID: 9, Kind: frameCancel}))
	f.Add(appendFrame(nil, &wireFrame{ID: 9, Kind: frameEnd, Err: "no", Stats: TableStats{Rows: 2, Distinct: []int{2}}, Tables: []string{"t"}}))
	f.Add([]byte{frameHeader, 0x80, 0x00, 0, 0, 0, 0, 0, 0}) // ID in two bytes where one does
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := decodeFrame(payload)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		}
		if again := appendFrame(nil, fr); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded %x, decoded from %x", again, payload)
		}
		attrs := fr.Attrs
		if fr.Kind == frameHeader {
			d := wireDec{b: fr.Head}
			d.string()
			if attrs = d.attrs(); d.done() != nil {
				t.Fatalf("a decoded header's Head %x does not decode: %v", fr.Head, d.done())
			}
			if _, _, err := decodeHead(fr.Head); (err == nil) != distinctNames(attrs) {
				t.Fatalf("decodeHead of %v: %v", attrs, err)
			}
		}
		sch, err := fromWireAttrs(attrs)
		if (err == nil) != distinctNames(attrs) || err == nil && sch.Arity() != len(attrs) {
			t.Fatalf("fromWireAttrs of %v: %v", attrs, err)
		}
	})
}

func distinctNames(attrs []wireAttr) bool {
	seen := map[string]bool{}
	for _, a := range attrs {
		if seen[a.Name] {
			return false
		}
		seen[a.Name] = true
	}
	return true
}

// TestStreamRejectsBatchOfWrongArity: a batch frame is checked against the
// header's schema before any tuple of it reaches the consumer — a peer that
// ships rows wider than it announced ends the stream with ErrProtocol.
func TestStreamRejectsBatchOfWrongArity(t *testing.T) {
	addr, _ := startFakePeer(t, func(_ int, conn net.Conn) {
		dec, ok := acceptHello(conn)
		if !ok {
			return
		}
		req, err := readFrame(dec)
		if err != nil {
			return
		}
		var buf []byte
		wide := appendBatch(nil, 2, []relation.Tuple{{relation.Int(1), relation.Int(2)}})
		writeFrame(conn, &buf, &wireFrame{ID: req.ID, Kind: frameHeader, Name: "r", Attrs: []wireAttr{{Name: "x", Kind: 1}}})
		writeFrame(conn, &buf, &wireFrame{ID: req.ID, Kind: frameBatch, Batch: wide})
		writeFrame(conn, &buf, &wireFrame{ID: req.ID, Kind: frameEnd})
	})
	p := dialTestPool(t, addr, PoolOptions{Size: 1})
	st, err := p.ExecStream(context.Background(), "SELECT x FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if tu, ok := st.Next(); ok {
		t.Fatalf("delivered %v from a batch wider than the header", tu)
	}
	if !errors.Is(st.Err(), ErrProtocol) {
		t.Fatalf("stream error %v, want ErrProtocol", st.Err())
	}
}

// TestWireAllocsPerTuple: what the wire adds to a bulk result is a constant
// per frame, not a cost per tuple. A 100 k-row SELECT * drained through
// DialPool → ExecStream may allocate, beyond the same statement drained from
// the engine's own stream, one value arena per batch frame plus one string per
// string column, and a constant per stream — with or without a RequestTimeout,
// whose one timer serves every wait of the stream. Mallocs are the whole
// process's, so the server's half of the connection counts too.
func TestWireAllocsPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const rows, perStream = 100_000, 40
	attrs := []relation.Attr{{Name: "k", Kind: relation.KindInt}, {Name: "g", Kind: relation.KindString}, {Name: "v", Kind: relation.KindFloat}}
	shapes := []struct {
		name     string
		cols     []int   // the columns of frameTuples kept
		perFrame float64 // the arena, and one string per string column
	}{{"int,string,float", []int{0, 1, 2}, 2}, {"int,float", []int{0, 2}, 1}}
	for _, shape := range shapes {
		var kept []relation.Attr
		for _, c := range shape.cols {
			kept = append(kept, attrs[c])
		}
		fact := relation.New("fact", relation.NewSchema(kept...))
		fact.Grow(rows)
		for i, tu := range keepColumns(frameTuples(rows), shape.cols) {
			tu[0] = relation.Int(int64(i))
			fact.MustAppend(tu)
		}
		e := NewEngine()
		e.LoadTable(fact)
		srv := NewServer(e)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, timeout := range []time.Duration{0, 30 * time.Second} {
			t.Run(fmt.Sprintf("%s/timeout=%v", shape.name, timeout), func(t *testing.T) {
				p := dialTestPool(t, addr, PoolOptions{Size: 1, RequestTimeout: timeout})
				const sql = "SELECT * FROM fact"
				// mallocs is the fewest of k readings: a collection during one
				// empties framePool, and the frames it makes again are no cost
				// of the wire's.
				mallocs := func(drain func() int) float64 {
					drain() // plan cache, connection buffers, pooled frames
					fewest := math.Inf(1)
					for range 5 {
						var m0, m1 runtime.MemStats
						runtime.ReadMemStats(&m0)
						if n := drain(); n != rows {
							t.Fatalf("drained %d tuples, want %d", n, rows)
						}
						runtime.ReadMemStats(&m1)
						fewest = min(fewest, float64(m1.Mallocs-m0.Mallocs))
					}
					return fewest
				}
				count := func(it relation.Iterator) (n int) {
					for {
						if _, ok := it.Next(); !ok {
							return n
						}
						n++
					}
				}
				direct := mallocs(func() int {
					ps, ok := e.ExecuteSQLPipelineCtx(context.Background(), sql)
					if !ok {
						t.Fatal("no pipeline for " + sql)
					}
					defer ps.Close()
					return count(ps)
				})
				var frames int64
				wire := mallocs(func() int {
					before := p.Stats().FramesRecv
					st, err := p.ExecStream(context.Background(), sql)
					if err != nil {
						t.Fatal(err)
					}
					n := count(st)
					if st.Err() != nil {
						t.Fatal(st.Err())
					}
					frames = p.Stats().FramesRecv - before - 2 // less the header and the end
					return n
				})
				budget := shape.perFrame*float64(frames) + perStream
				if over := wire - direct; over > budget {
					t.Fatalf("the wire costs %.0f allocations over %d batch frames (%.0f over the wire, %.0f direct), want at most %.0f per frame + %d",
						over, frames, wire, direct, shape.perFrame, perStream)
				} else {
					t.Logf("wire %.0f, direct %.0f: %.0f over %d batch frames, %.3f per frame with the stream's constant", wire, direct, over, frames, over/float64(frames))
				}
			})
		}
	}
}

// TestFrameVersionsAreAConnectionDelta: a connection's first header carries
// every table's version; after that, header and end frames carry only the
// tables whose data changed since the connection's previous report — none for
// read-only traffic or a DDL-only tick — and computing "none" allocates
// nothing.
func TestFrameVersionsAreAConnectionDelta(t *testing.T) {
	addr, e, cleanup := startTestServer(t)
	defer cleanup()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	dec := sayHello(t, conn)
	var buf []byte
	var id uint64
	exec := func() (hdr, end []wireVersion) {
		t.Helper()
		id++
		req := &wireRequest{Op: "exec", SQL: "SELECT id FROM dept"}
		if err := writeFrame(conn, &buf, &wireFrame{ID: id, Kind: frameReq, Req: req}); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := readFrame(dec)
			if err != nil {
				t.Fatal(err)
			}
			switch f.Kind {
			case frameHeader:
				hdr = f.versions()
			case frameEnd:
				return hdr, f.versions()
			}
		}
	}

	hdr, end := exec()
	first := map[string]uint64{}
	for _, v := range hdr {
		first[v.Table] = v.Version
	}
	if len(first) != 2 || first["emp"] == 0 || first["dept"] == 0 || end != nil {
		t.Fatalf("first request: header %v, end %v; want both tables on the header and nothing after", hdr, end)
	}
	if hdr, end = exec(); hdr != nil || end != nil {
		t.Fatalf("read-only request carried versions %v / %v", hdr, end)
	}
	if err := e.CreateIndex("dept", []int{0}); err != nil {
		t.Fatal(err)
	}
	if hdr, end = exec(); hdr != nil || end != nil {
		t.Fatalf("a DDL-only tick carried versions %v / %v", hdr, end)
	}
	if err := e.Insert("emp", []relation.Tuple{{relation.Int(5), relation.Str("eve"), relation.Int(20), relation.Float(90)}}); err != nil {
		t.Fatal(err)
	}
	if hdr, end = exec(); len(hdr) != 1 || hdr[0].Table != "emp" || hdr[0].Version <= first["emp"] || end != nil {
		t.Fatalf("after an insert into emp: header %v, end %v; want emp alone, past %d", hdr, end, first["emp"])
	}
	if n := testing.AllocsPerRun(100, func() { e.versionsSince(e.Epoch()) }); n != 0 {
		t.Fatalf("versionsSince with nothing new allocates %.0f times, want 0", n)
	}
}

// TestKeptTuplesSurvivePayloadReuse: a batch frame's payload buffer goes back
// to the pool once its tuples are decoded, and the next frame is read into it;
// the tuples a consumer keeps must not change when that happens.
func TestKeptTuplesSurvivePayloadReuse(t *testing.T) {
	t.Run("drained", func(t *testing.T) {
		e := NewEngine()
		for i := 0; i < 4; i++ {
			r := relation.New(fmt.Sprintf("s%d", i), relation.NewSchema(
				relation.Attr{Name: "k", Kind: relation.KindInt},
				relation.Attr{Name: "s", Kind: relation.KindString}))
			for k := 0; k < 2000; k++ {
				r.MustAppend(relation.Tuple{relation.Int(int64(k)), relation.Str(fmt.Sprintf("table %d row %d %s", i, k, strings.Repeat("x", k%17)))})
			}
			e.LoadTable(r)
		}
		srv := NewServer(e)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		p := dialTestPool(t, addr, PoolOptions{Size: 1})
		drain := func(sql string) []relation.Tuple {
			t.Helper()
			st, err := p.ExecStream(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			var out []relation.Tuple
			for tu, ok := st.Next(); ok; tu, ok = st.Next() {
				out = append(out, tu)
			}
			if st.Err() != nil {
				t.Fatal(st.Err())
			}
			return out
		}
		kept := drain("SELECT * FROM s0")
		for i := 1; i < 4; i++ {
			drain(fmt.Sprintf("SELECT * FROM s%d", i))
		}
		want, _, err := e.ExecuteSQL("SELECT * FROM s0")
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(kept, relationTuples(want)) {
			t.Fatal("tuples kept from the first stream changed while later streams reused its payloads")
		}
	})

	// A stream closed mid-flight: the frame the read loop holds when the
	// stream dies, and every frame that arrives after its cancel, are dropped
	// and released once each — so the read loop reuses one payload for all of
	// them, and the next stream's frames are not read into a buffer two
	// owners share.
	t.Run("canceled", func(t *testing.T) {
		const early, late = 12, 500
		batch := func(tag string, n int) []byte {
			tuples := make([]relation.Tuple, n)
			for i := range tuples {
				tuples[i] = relation.Tuple{relation.Str(fmt.Sprintf("%s %d", tag, i))}
			}
			return appendBatch(nil, 1, tuples)
		}
		// Encoded up front, so that the peer allocates nothing per frame.
		lateBatch := batch("late", 4)
		var (
			second [][]byte
			want   []relation.Tuple
		)
		for i := 0; i < 5; i++ {
			second = append(second, batch(fmt.Sprintf("second %d", i), 64))
			b, err := decodeBatch(second[i], 1)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b...)
		}
		addr, _ := startFakePeer(t, func(_ int, conn net.Conn) {
			dec, ok := acceptHello(conn)
			if !ok {
				return
			}
			var buf []byte
			send := func(f *wireFrame) bool { return writeFrame(conn, &buf, f) == nil }
			header := func(id uint64) bool {
				return send(&wireFrame{ID: id, Kind: frameHeader, Name: "r", Attrs: []wireAttr{{Name: "s", Kind: uint8(relation.KindString)}}})
			}
			req, err := readFrame(dec)
			if err != nil || !header(req.ID) {
				return
			}
			for i := 0; i < early; i++ {
				if !send(&wireFrame{ID: req.ID, Kind: frameBatch, Batch: batch(fmt.Sprintf("early %d", i), 4)}) {
					return
				}
			}
			if f, err := readFrame(dec); err != nil || f.Kind != frameCancel {
				return
			}
			for i := 0; i < late; i++ {
				if !send(&wireFrame{ID: req.ID, Kind: frameBatch, Batch: lateBatch}) {
					return
				}
			}
			if !send(&wireFrame{ID: req.ID, Kind: frameEnd}) {
				return
			}
			req, err = readFrame(dec)
			if err != nil || !header(req.ID) {
				return
			}
			for _, b := range second {
				if !send(&wireFrame{ID: req.ID, Kind: frameBatch, Batch: b}) {
					return
				}
			}
			send(&wireFrame{ID: req.ID, Kind: frameEnd})
		})
		p := dialTestPool(t, addr, PoolOptions{Size: 1})
		first, err := p.ExecStream(context.Background(), "first")
		if err != nil {
			t.Fatal(err)
		}
		keptFirst, ok := first.Next()
		if !ok {
			t.Fatal(first.Err())
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		first.Close()
		next, err := p.ExecStream(context.Background(), "second")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]relation.Tuple, 0, len(want))
		for tu, ok := next.Next(); ok; tu, ok = next.Next() {
			got = append(got, tu)
		}
		runtime.ReadMemStats(&m1)
		if next.Err() != nil {
			t.Fatal(next.Err())
		}
		if !sameTuples(got, want) {
			t.Fatal("the stream after a canceled one delivered other tuples than its peer sent")
		}
		if !sameTuples([]relation.Tuple{keptFirst}, []relation.Tuple{{relation.Str("early 0 0")}}) {
			t.Fatalf("the tuple kept from the canceled stream is now %v", keptFirst)
		}
		// Every frame the read loop reads went through the pool, so a late
		// frame that was not released costs a frame and a payload.
		if n := m1.Mallocs - m0.Mallocs; !raceEnabled && n >= late {
			t.Fatalf("%d allocations while %d late frames were dropped: they were not released to the pool", n, late)
		} else {
			t.Logf("%d allocations while %d late frames were dropped", n, late)
		}
		// A frame released twice sits in the pool twice.
		seen := map[*wireFrame]bool{}
		for f := framePool.Get().(*wireFrame); f.buf != nil; f = framePool.Get().(*wireFrame) {
			if seen[f] {
				t.Fatal("a frame was released to the pool twice")
			}
			seen[f] = true
		}
	})
}

// relationTuples lists r's tuples in order.
func relationTuples(r *relation.Relation) []relation.Tuple {
	out := make([]relation.Tuple, r.Len())
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}
