package remotedb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
)

// loadBigTable creates table big(k INT, v TEXT) with n rows (k = 0..n-1,
// v = "v<k>") on e. Insertion order is the scan order, so expected streamed
// deliveries can be computed directly from k.
func loadBigTable(t *testing.T, e *Engine, n int) {
	t.Helper()
	if _, _, err := e.ExecuteSQL("CREATE TABLE big (k INT, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	const batch = 250
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,'v%d')", i, i)
		}
		if _, _, err := e.ExecuteSQL(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// loadGroupedTable creates table ev(g INT, v TEXT) with n rows (g = i%7,
// v = "e<i>") on e: an equality on g matches n/7 rows spread over the whole
// extension, so an index bucket on g holds many positions.
func loadGroupedTable(e *Engine, n int) {
	r := relation.New("ev", relation.NewSchema(
		relation.Attr{Name: "g", Kind: relation.KindInt},
		relation.Attr{Name: "v", Kind: relation.KindString}))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 7)), relation.Str(fmt.Sprintf("e%d", i))})
	}
	e.LoadTable(r)
}

// drainScan collects a resumable stream's delivery as strings (first column).
func drainScan(sc *PlanStream) []string {
	var out []string
	for tup, ok := sc.Next(); ok; tup, ok = sc.Next() {
		out = append(out, tup[0].String())
	}
	return out
}

// drainTuples collects a TupleStream's delivery as strings (first column),
// returning the terminal error.
// resumeSQLStream opens src the way the framed server opens a request that
// presents a resume token: ok=false when the engine does not honour the token
// (the server then serves the stream it got as a fresh one).
func resumeSQLStream(e *Engine, src string, tok ResumeToken, skip int64) (*PlanStream, bool) {
	st, err := ParseSQL(src)
	if err != nil || st.Select == nil {
		return nil, false
	}
	ps, resumed, err := e.openStream(context.Background(), st.Select, src, &tok, skip)
	if err == nil && !resumed {
		ps.Close()
		return nil, false
	}
	return ps, err == nil
}

func drainTuples(st TupleStream) ([]string, error) {
	var out []string
	for tup, ok := st.Next(); ok; tup, ok = st.Next() {
		out = append(out, tup[0].String())
	}
	return out, st.Err()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestResumeTokenRoundTrip(t *testing.T) {
	for _, tok := range []ResumeToken{
		{StmtHash: 0, Table: "t", Version: 0, SnapLen: 0},
		{StmtHash: StatementHash("SELECT * FROM big"), Table: "big", Version: 7, SnapLen: 123456},
		{StmtHash: ^uint64(0), Table: "weird:name:with:colons", Version: ^uint64(0), SnapLen: 1<<62 - 1},
	} {
		got, err := ParseResumeToken(tok.Encode())
		if err != nil {
			t.Fatalf("round trip of %+v: %v", tok, err)
		}
		if got != tok {
			t.Fatalf("round trip of %+v returned %+v", tok, got)
		}
	}
}

func TestResumeTokenRejectsMalformed(t *testing.T) {
	valid := ResumeToken{StmtHash: StatementHash("SELECT v FROM big"), Table: "big", Version: 3, SnapLen: 500}.Encode()
	cases := []string{
		"",
		"brt1",
		"brt2:" + strings.TrimPrefix(valid, "brt1:"), // unknown version tag
		"brt1:zz:big:3:1f4:0",                        // bad hex
		strings.Replace(valid, "big", "bag", 1),      // table mutated: checksum mismatch
		valid + "0",                                  // checksum extended
		"brt1::" + strings.Repeat("x", 5000),         // oversized
	}
	// Every strict prefix of a valid encoding must be rejected (truncation in
	// transit), never panic, and never yield a token.
	for i := 0; i < len(valid); i++ {
		cases = append(cases, valid[:i])
	}
	for _, c := range cases {
		tok, err := ParseResumeToken(c)
		if err == nil {
			t.Fatalf("ParseResumeToken(%q) accepted, token %+v", c, tok)
		}
		if !errors.Is(err, ErrResumeToken) {
			t.Fatalf("ParseResumeToken(%q) error %v does not match ErrResumeToken", c, err)
		}
	}
}

// FuzzResumeTokenText: Encode renders every token, table names with
// separators and negative lengths included, byte for byte as its fmt
// rendering did, checksum included, and ParseResumeToken reads back every
// token it renders with a non-empty table and a length >= 0.
func FuzzResumeTokenText(f *testing.F) {
	f.Add(uint64(0), "t", uint64(0), int64(0))
	f.Add(StatementHash("SELECT v FROM big"), "big", uint64(2), int64(1000))
	f.Add(^uint64(0), "a:b|c", ^uint64(0), int64(-1))
	f.Add(uint64(1)<<63, strings.Repeat("shipment", 20), uint64(7), int64(1)<<62)
	f.Add(uint64(42), "", uint64(3), int64(9))
	f.Fuzz(func(t *testing.T, stmt uint64, table string, version uint64, snapLen int64) {
		tok := ResumeToken{StmtHash: stmt, Table: table, Version: version, SnapLen: snapLen}
		sum := StatementHash(fmt.Sprintf("%x|%s|%x|%x", stmt, table, version, snapLen))
		want := fmt.Sprintf("%s:%x:%s:%x:%x:%x", resumeTokenPrefix, stmt, table, version, snapLen, sum)
		if got := tok.Encode(); got != want {
			t.Fatalf("%+v encodes as %q, fmt rendered %q", tok, got, want)
		}
		if tok.checksum() != sum {
			t.Fatalf("%+v: checksum %x, fmt's %x", tok, tok.checksum(), sum)
		}
		if table == "" || snapLen < 0 {
			return
		}
		if got, err := ParseResumeToken(want); err != nil || got != tok {
			t.Fatalf("%q parses as %+v, %v; want %+v", want, got, err, tok)
		}
	})
}

func FuzzParseResumeToken(f *testing.F) {
	valid := ResumeToken{StmtHash: StatementHash("SELECT v FROM big WHERE k < 100"), Table: "big", Version: 2, SnapLen: 1000}
	enc := valid.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(strings.Replace(enc, "b", "c", 1))
	f.Add("brt1:0:t:0:0:0")
	f.Add(ResumeToken{Table: "a:b:c", SnapLen: 1}.Encode())
	f.Add("brt1:::::")
	f.Add(strings.Repeat(":", 64))
	f.Fuzz(func(t *testing.T, s string) {
		tok, err := ParseResumeToken(s) // must never panic
		if err != nil {
			return
		}
		// Any accepted token must survive a canonical re-encode round trip.
		again, err := ParseResumeToken(tok.Encode())
		if err != nil || again != tok {
			t.Fatalf("accepted token %+v does not round trip: %+v, %v", tok, again, err)
		}
		if tok.SnapLen < 0 || tok.Table == "" {
			t.Fatalf("accepted token violates invariants: %+v", tok)
		}
	})
}

// resumeStatements are the resumable shapes the resume property runs over:
// scans, filters, projections, LIMITs (skipped tuples count against them),
// and equalities and ranges on ev.g, the column checkResume indexes.
var resumeStatements = []string{
	"SELECT v FROM big",
	"SELECT v FROM big WHERE k < 500",
	"SELECT v, k FROM big WHERE k >= 100",
	"SELECT * FROM big WHERE k < 650",
	"SELECT v FROM big LIMIT 300",
	"SELECT v, k FROM big WHERE k >= 100 LIMIT 50",
	"SELECT v FROM ev WHERE g = 3",
	"SELECT v, g FROM ev WHERE g = 5 LIMIT 40",
	"SELECT v FROM ev WHERE g >= 2 AND g < 5",
	"SELECT v, g FROM ev WHERE g > 4 LIMIT 60",
	"SELECT v FROM ev WHERE g <= 1 AND v != 'e7'",
}

// checkResume interrupts one delivery of src after offset tuples (modulo the
// result size) and resumes it with the stream's own token: the prefix plus
// the resumed tail must equal an uninterrupted delivery — no duplicate, no
// gap, order preserved — unless the token is refused (honored=false).
// indexed builds the index on ev.g before the first open, indexBetween builds
// it between the break and the resume: CreateIndex does not bump the table
// version, so the token is honored across the access-path change and the
// index paths must emit in base order (bucket order = base order, and a
// range walks its candidates by position). inserted rows go into ev between
// the break and the resume, past an eighth of it the index is rebuilt: for a
// statement over ev the moved version refuses the token, and the fresh
// stream a client then skips into must begin with the rows already
// delivered, the appended ones last; one over big resumes as before.
func checkResume(t *testing.T, src string, offset int, indexed, indexBetween bool, inserted int) (honored bool) {
	t.Helper()
	e := NewEngine()
	loadBigTable(t, e, 700)
	loadGroupedTable(e, 700)
	createIndex := func() {
		if err := e.CreateIndex("ev", []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if indexed {
		createIndex()
	}
	full, ok := e.ExecuteSQLStream(src)
	if !ok {
		t.Fatalf("%q not streamable", src)
	}
	want := drainScan(full)

	broken, _ := e.ExecuteSQLStream(src)
	kill := offset % (len(want) + 1)
	var got []string
	for i := 0; i < kill; i++ {
		tup, ok := broken.Next()
		if !ok {
			t.Fatalf("%q ended at %d of %d", src, i, len(want))
		}
		got = append(got, tup[0].String())
	}
	if indexBetween {
		createIndex()
	}
	if inserted > 0 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO ev VALUES ")
		for i := range inserted {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,'n%d')", i%7, i)
		}
		if _, _, err := e.ExecuteSQL(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	if inserted > 0 && strings.Contains(src, "FROM ev") {
		if _, ok := resumeSQLStream(e, src, broken.ResumeToken(), int64(kill)); ok {
			t.Fatalf("resume of %q at %d honored a token minted before an insert", src, kill)
		}
		fresh, ok := e.ExecuteSQLStream(src)
		if !ok {
			t.Fatalf("%q not streamable after the insert", src)
		}
		after := drainScan(fresh)
		if len(after) < len(want) || !equalStrings(after[:len(want)], want) {
			t.Fatalf("%q after %d inserted rows does not begin with the %d rows before them", src, inserted, len(want))
		}
		return false
	}
	sc, ok := resumeSQLStream(e, src, broken.ResumeToken(), int64(kill))
	if !ok {
		return false
	}
	got = append(got, drainScan(sc)...)
	if !equalStrings(got, want) {
		t.Fatalf("resume of %q at %d (indexed=%v, indexBetween=%v): got %d tuples, want %d",
			src, kill, indexed, indexBetween, len(got), len(want))
	}
	return true
}

// TestScanResumeEqualsUninterrupted is the core determinism property at the
// engine layer: for random statements and random interruption points, with
// and without an index (present from the start, or created mid-delivery), the
// token is honored and the resumed delivery is exactly the tail.
func TestScanResumeEqualsUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 90; trial++ {
		src := resumeStatements[rng.Intn(len(resumeStatements))]
		indexed, indexBetween := trial%3 == 1, trial%3 == 2
		if !checkResume(t, src, rng.Intn(701), indexed, indexBetween, 0) {
			t.Fatalf("trial %d: resume of %q refused (indexed=%v, indexBetween=%v)", trial, src, indexed, indexBetween)
		}
	}
}

// FuzzPlanResume drives checkResume from fuzzed inputs: whatever the
// statement, interruption offset, index timing and rows inserted between the
// break and the resume, a resume either delivers exactly the tail or is
// refused — never a panic, a duplicate or a gap — and a refused one's fresh
// stream begins with what was delivered.
func FuzzPlanResume(f *testing.F) {
	f.Add(uint8(0), uint16(0), false, false, uint8(0))
	f.Add(uint8(3), uint16(649), false, false, uint8(0))
	f.Add(uint8(4), uint16(300), false, true, uint8(0))
	f.Add(uint8(6), uint16(57), true, false, uint8(0))
	f.Add(uint8(6), uint16(99), false, true, uint8(0))
	f.Add(uint8(7), uint16(40), true, true, uint8(0))
	f.Add(uint8(8), uint16(123), true, false, uint8(0))  // a range stream resumed
	f.Add(uint8(9), uint16(31), false, true, uint8(0))   // a range under LIMIT, indexed mid-delivery
	f.Add(uint8(8), uint16(200), true, false, uint8(30)) // rows inserted into the range's tail
	f.Add(uint8(10), uint16(77), true, false, uint8(99)) // past an eighth: the index is rebuilt
	f.Fuzz(func(t *testing.T, stmt uint8, offset uint16, indexed, indexBetween bool, inserted uint8) {
		checkResume(t, resumeStatements[int(stmt)%len(resumeStatements)], int(offset), indexed, indexBetween, int(inserted))
	})
}

// TestScanResumeInvalidatedByAppend: a durable Insert is a mutation like any
// other — a resume token minted against the pre-insert extension is refused,
// not silently resumed against a table whose state has moved on. Correctness
// is preserved end to end because a refused token falls back to a fresh
// stream plus client-side skip, and the append-only representation makes the
// re-read prefix byte-identical (asserted here).
func TestScanResumeInvalidatedByAppend(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 100)
	const src = "SELECT v FROM big"
	full, _ := e.ExecuteSQLStream(src)
	want := drainScan(full)
	tok := full.ResumeToken()

	if _, _, err := e.ExecuteSQL("INSERT INTO big VALUES (100,'late'),(101,'later')"); err != nil {
		t.Fatal(err)
	}
	if _, ok := resumeSQLStream(e, src, tok, 40); ok {
		t.Fatal("token minted before the insert was accepted after it")
	}

	// The client-side-skip fallback: a fresh stream's first len(want) rows
	// are byte-identical to the pre-insert delivery (append-only prefix), so
	// skipping the delivered count loses and duplicates nothing.
	fresh, ok := e.ExecuteSQLStream(src)
	if !ok {
		t.Fatalf("%q not streamable after append", src)
	}
	got := drainScan(fresh)
	if len(got) != len(want)+2 {
		t.Fatalf("fresh stream has %d rows, want %d", len(got), len(want)+2)
	}
	if !equalStrings(got[:len(want)], want) {
		t.Fatal("append changed the already-delivered prefix; client-side skip would corrupt")
	}
	if fresh.ResumeToken().Version == tok.Version {
		t.Fatalf("append did not bump the version: %+v vs %+v", fresh.ResumeToken(), tok)
	}
}

// TestInsertDuringScanStreamByteStable: an Insert landing while a streamed
// scan is mid-delivery must not disturb the stream — the snapshot pinned at open
// time delivers exactly the pre-insert rows, in order, and never sees the new
// ones. (The append-only relation representation is what makes the pinned
// prefix immutable; this is the test that holds that property in place.)
func TestInsertDuringScanStreamByteStable(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 120)
	const src = "SELECT v FROM big"

	ref, _ := e.ExecuteSQLStream(src)
	want := drainScan(ref)

	sc, ok := e.ExecuteSQLStream(src)
	if !ok {
		t.Fatalf("%q not streamable", src)
	}
	var got []string
	for i := 0; i < 50; i++ {
		tu, more := sc.Next()
		if !more {
			t.Fatalf("stream ended early at %d", i)
		}
		got = append(got, tu[0].String())
	}

	// Mutate mid-stream: both a plain append and a second batch.
	if _, _, err := e.ExecuteSQL("INSERT INTO big VALUES (120,'mid')"); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("big", []relation.Tuple{{relation.Int(121), relation.Str("mid2")}}); err != nil {
		t.Fatal(err)
	}

	for {
		tu, more := sc.Next()
		if !more {
			break
		}
		got = append(got, tu[0].String())
	}
	if !equalStrings(got, want) {
		t.Fatalf("mid-stream insert disturbed delivery: got %d tuples, want %d", len(got), len(want))
	}
	// And the stream's own token — minted against the pre-insert snapshot —
	// is refused afterwards rather than silently reused.
	if _, ok := resumeSQLStream(e, src, sc.ResumeToken(), 10); ok {
		t.Fatal("pre-insert token accepted after the inserts")
	}
}

func TestResumeSQLStreamRefusals(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 50)
	const src = "SELECT v FROM big WHERE k < 40"
	sc, _ := e.ExecuteSQLStream(src)
	tok := sc.ResumeToken()

	if _, ok := resumeSQLStream(e, "SELECT v FROM big", tok, 0); ok {
		t.Fatal("token accepted for a different statement")
	}
	if _, ok := resumeSQLStream(e, src, tok, -1); ok {
		t.Fatal("negative skip accepted")
	}
	forged := tok
	forged.SnapLen = 10_000 // beyond the extension: impossible under append-only
	if _, ok := resumeSQLStream(e, src, forged, 0); ok {
		t.Fatal("forged SnapLen accepted")
	}

	// Wholesale replacement bumps the version: the pinned snapshot is gone.
	repl := relation.New("big", relation.NewSchema(
		relation.Attr{Name: "k", Kind: relation.KindInt},
		relation.Attr{Name: "v", Kind: relation.KindString}))
	repl.MustAppend(relation.Tuple{relation.Int(0), relation.Str("fresh")})
	e.LoadTable(repl)
	if _, ok := resumeSQLStream(e, src, tok, 0); ok {
		t.Fatal("token accepted after the table was replaced")
	}
	// A fresh stream over the replaced table works and carries the new version.
	sc2, ok := e.ExecuteSQLStream(src)
	if !ok || sc2.ResumeToken().Version == tok.Version {
		t.Fatalf("replacement did not bump the version: %+v vs %+v", sc2.ResumeToken(), tok)
	}
}

// A resume token belongs to its statement's text, literals included: two
// statements of one shape share a cached plan, but a token minted for
// sid = 7 is refused for sid = 8 (the plan cache hit notwithstanding), and
// honoured for sid = 7.
func TestResumeTokenRefusedForAnotherLiteral(t *testing.T) {
	e := NewEngine()
	if _, _, err := e.ExecuteSQL("CREATE TABLE sh (sid INT, qty INT)"); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, fmt.Sprintf("(%d,%d)", 7+i%2, i))
	}
	if _, _, err := e.ExecuteSQL("INSERT INTO sh VALUES " + strings.Join(rows, ",")); err != nil {
		t.Fatal(err)
	}
	const seven, eight = "SELECT qty FROM sh WHERE sid = 7", "SELECT qty FROM sh WHERE sid = 8"
	sc, ok := e.ExecuteSQLStream(seven)
	if !ok {
		t.Fatalf("%q not streamable", seven)
	}
	want := drainScan(sc)
	tok := sc.ResumeToken()
	hits := e.PlanCacheStats().Hits
	if _, ok := resumeSQLStream(e, eight, tok, 5); ok {
		t.Fatal("a token minted for sid = 7 was honoured for sid = 8")
	}
	if e.PlanCacheStats().Hits != hits+1 {
		t.Fatal("sid = 8 did not share the plan of sid = 7")
	}
	resumed, ok := resumeSQLStream(e, seven, tok, 5)
	if !ok {
		t.Fatal("the token was refused for its own statement")
	}
	if got := drainScan(resumed); !equalStrings(got, want[5:]) {
		t.Fatalf("resumed sid = 7 delivered %v, want %v", got, want[5:])
	}
}

// TestPoolStreamResumeServerSide drives the wire path by hand: establish a
// stream, consume part of it, sever the connection, then re-issue with the
// header's token — the server must skip the delivered prefix (Resumed=true)
// and the concatenation must equal the uninterrupted delivery.
func TestPoolStreamResumeServerSide(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 120)
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: 8})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{FrameTuples: 8})

	const src = "SELECT v FROM big WHERE k < 100"
	baseline, err := p.ExecStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainTuples(baseline)
	if err != nil || len(want) != 100 {
		t.Fatalf("baseline: %d tuples, err %v", len(want), err)
	}

	st, err := p.ExecStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	token, _ := st.(ResumeReporter).ResumeState()
	if token == "" {
		t.Fatal("scan stream header carried no resume token")
	}
	var head []string
	for i := 0; i < 37; i++ {
		tup, ok := st.Next()
		if !ok {
			t.Fatalf("tuple %d missing: %v", i, st.Err())
		}
		head = append(head, tup[0].String())
	}
	p.breakConn()
	st.Close()

	// The raw pool does not retry (that is ResilientClient's job) and the
	// break races with teardown noticing it, so re-issue by hand until a
	// redialed connection serves the resume.
	var re TupleStream
	for attempt := 0; ; attempt++ {
		re, err = p.ExecStreamResume(context.Background(), src, token, int64(len(head)))
		if err == nil {
			break
		}
		if attempt > 50 || !IsTransient(err) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tok2, resumed := re.(ResumeReporter).ResumeState(); !resumed || tok2 == "" {
		t.Fatalf("server did not honor the token: resumed=%v token=%q", resumed, tok2)
	}
	tail, err := drainTuples(re)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(head, tail...); !equalStrings(got, want) {
		t.Fatalf("resumed delivery != uninterrupted: %d+%d tuples vs %d", len(head), len(tail), len(want))
	}
	// >= 1, not == 1: a retried re-issue can reach the server even when the
	// client-side call that carried it failed.
	if srv.ServerStats().StreamResumes < 1 {
		t.Fatalf("server StreamResumes = %d, want >= 1", srv.ServerStats().StreamResumes)
	}
}

// TestPoolStreamResumeFallbackFreshStream: when the pinned snapshot is gone
// (table replaced between kill and resume), the server serves a FRESH stream
// and the header says Resumed=false, telling the client to skip client-side.
func TestPoolStreamResumeFallbackFreshStream(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 60)
	srv := NewServerWithOptions(e, ServerOptions{FrameTuples: 8})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{FrameTuples: 8})

	const src = "SELECT v FROM big"
	st, err := p.ExecStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	token, _ := st.(ResumeReporter).ResumeState()
	if _, ok := st.Next(); !ok {
		t.Fatal(st.Err())
	}
	st.Close()

	// Replace the table: version bump, snapshot gone.
	repl := relation.New("big", relation.NewSchema(
		relation.Attr{Name: "k", Kind: relation.KindInt},
		relation.Attr{Name: "v", Kind: relation.KindString}))
	for i := 0; i < 25; i++ {
		repl.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str(fmt.Sprintf("new%d", i))})
	}
	e.LoadTable(repl)

	re, err := p.ExecStreamResume(context.Background(), src, token, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, resumed := re.(ResumeReporter).ResumeState(); resumed {
		t.Fatal("server claimed to honor a token whose snapshot is gone")
	}
	rows, err := drainTuples(re)
	if err != nil || len(rows) != 25 || rows[0] != `"new0"` {
		t.Fatalf("fallback fresh stream wrong: %d rows, err %v", len(rows), err)
	}
	if srv.ServerStats().StreamResumes != 0 {
		t.Fatal("fallback must not count as a server-side resume")
	}
}

// ---- ResilientStream unit property: exactly-once under scripted failures ----

// scriptedStream is a TupleStream over a fixed row set that dies with a
// transient transport error after dieAt deliveries (-1: never).
type scriptedStream struct {
	rows    []relation.Tuple
	schema  *relation.Schema
	pos     int
	dieAt   int
	token   string
	resumed bool
	err     error
	closed  bool
}

func (s *scriptedStream) Next() (relation.Tuple, bool) {
	if s.err != nil || s.closed {
		return nil, false
	}
	if s.dieAt >= 0 && s.pos >= s.dieAt {
		s.err = &TransportError{Op: "exec", Err: errors.New("scripted mid-stream death")}
		return nil, false
	}
	if s.pos >= len(s.rows) {
		return nil, false
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true
}

func (s *scriptedStream) Schema() *relation.Schema    { return s.schema }
func (s *scriptedStream) Name() string                { return "result" }
func (s *scriptedStream) Err() error                  { return s.err }
func (s *scriptedStream) Ops() int64                  { return int64(s.pos) }
func (s *scriptedStream) SimMS() float64              { return 0.25 }
func (s *scriptedStream) Close() error                { s.closed = true; return nil }
func (s *scriptedStream) ResumeState() (string, bool) { return s.token, s.resumed }

// scriptedClient serves scripted streams over a fixed row set, injecting a
// bounded number of mid-stream deaths and honoring resume tokens with
// probability honorRate (otherwise it serves a full fresh stream with
// Resumed=false, forcing the wrapper's client-side skip path).
type scriptedClient struct {
	rows      []relation.Tuple
	schema    *relation.Schema
	rng       *rand.Rand
	deaths    int
	honorRate float64

	resumeCalls int
	honored     int
	fresh       int
}

func (c *scriptedClient) newStream(rows []relation.Tuple, resumed bool) *scriptedStream {
	die := -1
	if c.deaths > 0 {
		c.deaths--
		die = c.rng.Intn(len(rows) + 1)
	}
	return &scriptedStream{rows: rows, schema: c.schema, dieAt: die, token: "tok", resumed: resumed}
}

func (c *scriptedClient) ExecStream(ctx context.Context, sql string) (TupleStream, error) {
	return c.newStream(c.rows, false), nil
}

func (c *scriptedClient) ExecStreamResume(ctx context.Context, sql, token string, skip int64) (TupleStream, error) {
	c.resumeCalls++
	if c.rng.Float64() < c.honorRate {
		c.honored++
		return c.newStream(c.rows[skip:], true), nil
	}
	c.fresh++
	return c.newStream(c.rows, false), nil
}

func (c *scriptedClient) Exec(sql string) (*Result, error) { return nil, errors.New("unused") }
func (c *scriptedClient) ExecCtx(context.Context, string) (*Result, error) {
	return nil, errors.New("unused")
}
func (c *scriptedClient) ObservedEpoch() uint64 { return 0 }
func (c *scriptedClient) RelationSchema(name string, arity int) (*relation.Schema, error) {
	return c.schema, nil
}
func (c *scriptedClient) TableStats(name string) (TableStats, error) { return TableStats{}, nil }
func (c *scriptedClient) Tables() ([]string, error)                  { return nil, nil }
func (c *scriptedClient) Stats() Stats                               { return Stats{} }
func (c *scriptedClient) Close() error                               { return nil }

// TestResilientStreamExactlyOnceProperty: for random row counts, random kill
// points, and a random mix of server-side skip (token honored) and full
// restart (client-side skip), the wrapper's delivery always equals the
// uninterrupted sequence exactly once, in order.
func TestResilientStreamExactlyOnceProperty(t *testing.T) {
	schema := relation.NewSchema(relation.Attr{Name: "v", Kind: relation.KindString})
	rng := rand.New(rand.NewSource(7))
	sawHonored, sawFresh := false, false
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(41)
		rows := make([]relation.Tuple, n)
		want := make([]string, n)
		for i := range rows {
			rows[i] = relation.Tuple{relation.Str(fmt.Sprintf("v%d", i))}
			want[i] = rows[i][0].String()
		}
		sc := &scriptedClient{
			rows:      rows,
			schema:    schema,
			rng:       rand.New(rand.NewSource(int64(trial) * 31)),
			deaths:    rng.Intn(7),
			honorRate: rng.Float64(),
		}
		rc := NewResilientClient(sc, Resilience{
			MaxRetries: 100, // deaths are bounded; never give up first
			Sleep:      func(time.Duration) {},
		})
		st, err := rc.ExecStream(context.Background(), "SELECT v FROM big")
		if err != nil {
			t.Fatalf("trial %d: establish: %v", trial, err)
		}
		got, err := drainTuples(st)
		if err != nil {
			t.Fatalf("trial %d: terminal err %v (deaths=%d honors=%d fresh=%d)",
				trial, err, sc.resumeCalls, sc.honored, sc.fresh)
		}
		if !equalStrings(got, want) {
			t.Fatalf("trial %d: delivery corrupted: got %d tuples want %d (resumes=%d honored=%d fresh=%d)",
				trial, len(got), len(want), sc.resumeCalls, sc.honored, sc.fresh)
		}
		sawHonored = sawHonored || sc.honored > 0
		sawFresh = sawFresh || sc.fresh > 0
	}
	if !sawHonored || !sawFresh {
		t.Fatalf("property too weak: honored-path=%v fresh-path=%v", sawHonored, sawFresh)
	}
}

// ---- End-to-end kill storms over the wire ----

// TestResilientStreamSurvivesKillStorm: EVERY stream is killed after two
// response frames (header + one batch), so completing a 150-row result takes
// dozens of resumes, each landing on another pooled connection. The consumer
// must still see the exact uninterrupted delivery and a nil terminal error.
func TestResilientStreamSurvivesKillStorm(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 150)

	before := runtime.NumGoroutine()

	// Baseline from a fault-free server.
	srv0 := NewServerWithOptions(e, ServerOptions{FrameTuples: 4})
	addr0, err := srv0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p0 := dialTestPool(t, addr0, PoolOptions{FrameTuples: 4})
	const src = "SELECT v FROM big WHERE k < 140"
	st0, err := p0.ExecStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainTuples(st0)
	if err != nil || len(want) != 140 {
		t.Fatalf("baseline: %d tuples, %v", len(want), err)
	}
	p0.Close()
	srv0.Close()

	srv := NewServerWithOptions(e, ServerOptions{
		FrameTuples: 4,
		Faults:      &ListenerFaults{Seed: 11, StreamKillRate: 1.0, StreamKillAfter: 2},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 2, FrameTuples: 4})
	// MaxRetries is generous: a killed connection can discard the response
	// frames the client had not yet drained, so individual lives may deliver
	// nothing — the storm only needs the bound to exceed any plausible run of
	// zero-progress lives, not to be tight.
	rc := NewResilientClient(p, Resilience{
		JitterSeed: 1,
		MaxRetries: 50,
		Sleep:      func(time.Duration) {},
	})

	st, err := rc.ExecStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainTuples(st)
	if err != nil {
		t.Fatalf("storm stream terminal err: %v (resumes=%d)", err, rc.ResilienceStats().StreamResumes)
	}
	if !equalStrings(got, want) {
		t.Fatalf("storm delivery != baseline: %d vs %d tuples", len(got), len(want))
	}
	rs := rc.ResilienceStats()
	if rs.StreamResumes < 10 {
		t.Fatalf("StreamResumes = %d; a kill-every-stream storm should force many", rs.StreamResumes)
	}
	ss := srv.ServerStats()
	if ss.StreamKills == 0 || ss.StreamResumes == 0 {
		t.Fatalf("server counters not exercised: %+v", ss)
	}

	// Goroutine hygiene across dozens of kills, redials, and resumes.
	rc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak after kill storm: before=%d now=%d\n%s", before, now, buf[:n])
	}
}

// TestBarePoolStreamSurfacesKill is the control for the kill-storm tests: a
// bare PoolClient never resumes, so the same storm surfaces the mid-stream
// failure to the consumer as a transport-classed error.
func TestBarePoolStreamSurfacesKill(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 150)
	srv := NewServerWithOptions(e, ServerOptions{
		FrameTuples: 4,
		Faults:      &ListenerFaults{Seed: 11, StreamKillRate: 1.0, StreamKillAfter: 2},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 2, FrameTuples: 4})
	st, err := p.ExecStream(context.Background(), "SELECT v FROM big")
	if err != nil {
		return // establishment itself may die under the storm: also a surfaced failure
	}
	rows, err := drainTuples(st)
	if err == nil {
		t.Fatalf("a kill-every-stream storm delivered %d tuples cleanly to a bare pool", len(rows))
	}
	if !IsTransient(err) && !IsUnavailable(err) {
		t.Fatalf("surfaced error is not transport-classed: %v", err)
	}
	if n := srv.ServerStats().StreamResumes; n != 0 {
		t.Fatalf("a bare pool resumed %d streams", n)
	}
}

// TestResilientStreamNoProgressBound: killing every stream right after its
// header means no resume ever delivers a tuple; the wrapper must give up with
// a typed unavailability error instead of resuming forever.
func TestResilientStreamNoProgressBound(t *testing.T) {
	e := NewEngine()
	loadBigTable(t, e, 50)
	srv := NewServerWithOptions(e, ServerOptions{
		FrameTuples: 4,
		Faults:      &ListenerFaults{Seed: 5, StreamKillRate: 1.0, StreamKillAfter: 1},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 2, FrameTuples: 4})
	rc := NewResilientClient(p, Resilience{
		MaxRetries: 2,
		Sleep:      func(time.Duration) {},
	})
	st, err := rc.ExecStream(context.Background(), "SELECT v FROM big")
	if err != nil {
		// The header-then-kill race can also fail establishment; both give-up
		// paths must end in the typed unavailability error.
		if !IsUnavailable(err) && !IsTransient(err) {
			t.Fatalf("establishment gave up with an untyped error: %v", err)
		}
		return
	}
	rows, err := drainTuples(st)
	if err == nil {
		t.Fatalf("kill-after-header storm completed with %d tuples; should be impossible", len(rows))
	}
	if !IsUnavailable(err) {
		t.Fatalf("no-progress give-up error = %v, want unavailability", err)
	}
}
