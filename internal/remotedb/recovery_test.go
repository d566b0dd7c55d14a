package remotedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relation"
)

// openDurable opens a durable engine on dir with fsync=always, failing the
// test on error.
func openDurable(t *testing.T, dir string, mut func(*Durability)) (*Engine, *RecoveryStats) {
	t.Helper()
	d := Durability{Dir: dir, Fsync: FsyncAlways}
	if mut != nil {
		mut(&d)
	}
	e, st, err := OpenEngine(d)
	if err != nil {
		t.Fatalf("OpenEngine(%s): %v", dir, err)
	}
	return e, st
}

// tableStrings drains a table's first column as strings via a full scan.
func tableStrings(t *testing.T, e *Engine, table string) []string {
	t.Helper()
	rel, _, err := e.ExecuteSQL("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tu := range rel.Tuples() {
		out = append(out, tu[0].String())
	}
	return out
}

// TestRecoveryRoundTrip: every mutation kind — CreateTable, Insert, LoadTable,
// CreateIndex — lands in the log and is rebuilt by a reopen, with the restart
// record bumping versions and epoch past anything the first process minted.
func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, st := openDurable(t, dir, nil)
	if st.Replayed != 0 || st.CheckpointTables != 0 || st.Epoch != 0 {
		t.Fatalf("fresh directory recovered state: %+v", st)
	}
	if _, _, err := e.ExecuteSQL("CREATE TABLE emp (id INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ExecuteSQL("INSERT INTO emp VALUES (1,'ada'),(2,'bob')"); err != nil {
		t.Fatal(err)
	}
	dept := relation.New("dept", relation.NewSchema(
		relation.Attr{Name: "d", Kind: relation.KindInt},
		relation.Attr{Name: "title", Kind: relation.KindString},
	))
	dept.MustAppend(relation.Tuple{relation.Int(10), relation.Str("eng")})
	e.LoadTable(dept)
	if err := e.CreateIndex("emp", []int{0}); err != nil {
		t.Fatal(err)
	}
	epochBefore := e.Epoch()
	wantEmp := tableStrings(t, e, "emp")
	wantDept := tableStrings(t, e, "dept")
	// What a client was told before the crash: every version it observed is
	// at most the epoch it observed.
	before := NewInProcClient(e, DefaultCosts())
	if _, err := before.Exec("SELECT * FROM emp"); err != nil {
		t.Fatal(err)
	}
	if before.ObservedVersion("emp") == 0 || before.ObservedVersion("dept") == 0 || before.ObservedEpoch() != epochBefore {
		t.Fatalf("pre-crash client observed emp %d, dept %d at epoch %d; want both set at epoch %d",
			before.ObservedVersion("emp"), before.ObservedVersion("dept"), before.ObservedEpoch(), epochBefore)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	r, st2 := openDurable(t, dir, nil)
	defer r.CloseWAL()
	// Every table's version is past every version reported before the crash,
	// so a CMS view or resume token stamped then is stale now.
	after := NewInProcClient(r, DefaultCosts())
	if _, err := after.Tables(); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"emp", "dept"} {
		if v := after.ObservedVersion(tbl); v <= before.ObservedEpoch() {
			t.Fatalf("%s recovered at version %d, not past the pre-crash epoch %d", tbl, v, before.ObservedEpoch())
		}
	}
	if st2.Replayed == 0 {
		t.Fatalf("reopen replayed nothing: %+v", st2)
	}
	if got := tableStrings(t, r, "emp"); !equalStrings(got, wantEmp) {
		t.Fatalf("emp after recovery: %v, want %v", got, wantEmp)
	}
	if got := tableStrings(t, r, "dept"); !equalStrings(got, wantDept) {
		t.Fatalf("dept after recovery: %v, want %v", got, wantDept)
	}
	if len(r.indexes["emp"]) != 1 || r.indexes["emp"][0].Cols()[0] != 0 {
		t.Fatal("index on emp(id) did not survive recovery")
	}
	// The recovered index answers every key, and an absent one, with the
	// rows, in the order, that an index built afresh over the recovered table
	// does.
	emp := r.tables["emp"]
	fresh := relation.BuildIndex(emp, []int{0})
	keys := []relation.Value{relation.Int(99)}
	for _, tu := range emp.Tuples() {
		keys = append(keys, tu[0])
	}
	for _, k := range keys {
		got := r.indexes["emp"][0].AppendLookup(nil, []relation.Value{k})
		want := fresh.AppendLookup(nil, []relation.Value{k})
		if len(got) != len(want) {
			t.Fatalf("recovered index finds %v for %v, a fresh one %v", got, k, want)
		}
		for i := range got {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("recovered index finds %v for %v, a fresh one %v", got, k, want)
			}
		}
	}
	if st2.Epoch <= epochBefore {
		t.Fatalf("recovery epoch %d not past pre-restart epoch %d", st2.Epoch, epochBefore)
	}
	// The recovered engine keeps working durably.
	if _, _, err := r.ExecuteSQL("INSERT INTO emp VALUES (3,'eve')"); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryTornTail: a partial frame at the end of the live segment —
// what a crash mid-write leaves — is truncated (counted in the stats and cut
// from the file), and every record before it is recovered.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, nil)
	if _, _, err := e.ExecuteSQL("CREATE TABLE t (k INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := e.ExecuteSQL(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	e.CloseWAL()

	seg := walSegmentPath(dir, 0)
	clean, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write: a partial frame header after the clean log.
	torn := append(append([]byte(nil), clean...), 0x00, 0x00, 0x01)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, st := openDurable(t, dir, nil)
	defer r.CloseWAL()
	if st.TruncatedBytes != 3 {
		t.Fatalf("TruncatedBytes = %d, want 3", st.TruncatedBytes)
	}
	if got := tableStrings(t, r, "t"); len(got) != 5 {
		t.Fatalf("recovered %d rows, want 5", len(got))
	}
	// The tail was physically cut before the restart record was appended, so
	// the segment is valid again: a third open must see no new truncation.
	r.CloseWAL()
	_, st2 := openDurable(t, dir, nil)
	if st2.TruncatedBytes != 0 {
		t.Fatalf("second recovery still truncating: %+v", st2)
	}
}

// TestRecoveryRefusesMidLogCorruption: damage before the final frame aborts
// recovery with ErrWALCorrupt instead of silently dropping acknowledged
// writes.
func TestRecoveryRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, nil)
	if _, _, err := e.ExecuteSQL("CREATE TABLE t (k INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := e.ExecuteSQL(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	e.CloseWAL()

	seg := walSegmentPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record — unambiguously mid-log (five
	// acknowledged records follow it). A flip landing in a length field can
	// masquerade as a torn tail; a payload CRC mismatch cannot.
	data[walFrameHeader+5] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenEngine(Durability{Dir: dir}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("OpenEngine on corrupt log: err=%v, want ErrWALCorrupt", err)
	}
}

// TestRecoveryAfterInjectedCrash: the seeded crashpoint tears an append
// mid-frame and kills the WAL; reopening the directory recovers exactly the
// acknowledged prefix — the torn record is truncated, never half-applied.
func TestRecoveryAfterInjectedCrash(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, func(d *Durability) {
		d.crash = &walCrash{Seed: 7, Rate: 0.2}
	})
	if _, _, err := e.ExecuteSQL("CREATE TABLE t (k INT, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	var acked []string
	crashed := false
	for i := 0; i < 200; i++ {
		_, _, err := e.ExecuteSQL(fmt.Sprintf("INSERT INTO t VALUES (%d,'v%d')", i, i))
		if err == nil {
			acked = append(acked, fmt.Sprintf("%d", i))
			continue
		}
		if !errors.Is(err, errWALCrashed) {
			t.Fatalf("insert %d: %v", i, err)
		}
		crashed = true
		// Everything after the crashpoint is refused, like a dead process.
		if _, _, err := e.ExecuteSQL("INSERT INTO t VALUES (999,'x')"); err == nil {
			t.Fatal("insert accepted after the WAL crashed")
		}
		break
	}
	if !crashed {
		t.Fatal("crashpoint never fired at rate 0.2 over 200 appends")
	}

	r, st := openDurable(t, dir, nil)
	defer r.CloseWAL()
	if st.TruncatedBytes == 0 {
		t.Fatal("crashpoint left no torn tail to truncate")
	}
	got := tableStrings(t, r, "t")
	if !equalStrings(got, acked) {
		t.Fatalf("recovered %d rows, want the %d acked (prefix durability): %v vs %v",
			len(got), len(acked), got, acked)
	}
}

// TestRecoveryBatchAtomicity: a multi-row INSERT is one WAL record; a crash
// tearing it recovers NONE of its rows — never a partially applied batch.
func TestRecoveryBatchAtomicity(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, func(d *Durability) {
		d.crash = &walCrash{Seed: 1, Rate: 1} // next append tears
	})
	// The crashpoint fires on the very first append (CREATE TABLE), so set up
	// schema first WITHOUT the crash, then reopen with it.
	_, _, err := e.ExecuteSQL("CREATE TABLE t (k INT)")
	if !errors.Is(err, errWALCrashed) {
		t.Fatalf("rate-1 crashpoint did not fire: %v", err)
	}

	// Fresh directory: schema durable first, then the torn batch.
	dir2 := t.TempDir()
	e2, _ := openDurable(t, dir2, nil)
	if _, _, err := e2.ExecuteSQL("CREATE TABLE t (k INT)"); err != nil {
		t.Fatal(err)
	}
	e2.CloseWAL()
	// Reopening non-empty state appends a restart record, which draws from the
	// crash RNG too: seed 0 at rate 0.5 lets that first append through
	// (draw 0.945) and tears the second — the batch insert (draw 0.245).
	e3, _ := openDurable(t, dir2, func(d *Durability) {
		d.crash = &walCrash{Seed: 0, Rate: 0.5}
	})
	if _, _, err := e3.ExecuteSQL("INSERT INTO t VALUES (1),(2),(3)"); !errors.Is(err, errWALCrashed) {
		t.Fatalf("batch insert under rate-1 crashpoint: %v", err)
	}
	r, _ := openDurable(t, dir2, nil)
	defer r.CloseWAL()
	if got := tableStrings(t, r, "t"); len(got) != 0 {
		t.Fatalf("torn batch partially recovered: %v", got)
	}
}

// TestRecoveryInvalidatesResumeTokens: a resume token minted before a crash is
// refused after recovery — and stays refused across a SECOND crash, because
// the restart record that bumps the version is itself logged.
func TestRecoveryInvalidatesResumeTokens(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, nil)
	if _, _, err := e.ExecuteSQL("CREATE TABLE t (k INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ExecuteSQL("INSERT INTO t VALUES (1),(2),(3)"); err != nil {
		t.Fatal(err)
	}
	const src = "SELECT k FROM t"
	sc, ok := e.ExecuteSQLStream(src)
	if !ok {
		t.Fatalf("%q not streamable", src)
	}
	drainScan(sc)
	tok := sc.ResumeToken()
	e.CloseWAL()

	r1, _ := openDurable(t, dir, nil)
	if _, ok := resumeSQLStream(r1, src, tok, 1); ok {
		t.Fatal("pre-crash resume token accepted after first recovery")
	}
	tok1 := mustToken(t, r1, src)
	r1.CloseWAL()

	// Second crash cycle: the first recovery's token must ALSO be dead, and
	// the original one must still be dead (versions move strictly forward).
	r2, _ := openDurable(t, dir, nil)
	defer r2.CloseWAL()
	if _, ok := resumeSQLStream(r2, src, tok, 1); ok {
		t.Fatal("pre-crash resume token accepted after second recovery")
	}
	if _, ok := resumeSQLStream(r2, src, tok1, 1); ok {
		t.Fatal("first recovery's token accepted after second recovery")
	}
	if _, ok := resumeSQLStream(r2, src, mustToken(t, r2, src), 1); !ok {
		t.Fatal("a token minted by the live engine must resume")
	}
}

func mustToken(t *testing.T, e *Engine, src string) ResumeToken {
	t.Helper()
	sc, ok := e.ExecuteSQLStream(src)
	if !ok {
		t.Fatalf("%q not streamable", src)
	}
	drainScan(sc)
	return sc.ResumeToken()
}

// TestRecoveryRotationBoundsLog: with a tiny segment budget the WAL rotates
// behind checkpoints, old generations are deleted, and recovery from
// checkpoint + tail rebuilds the same state as replaying everything would.
func TestRecoveryRotationBoundsLog(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, func(d *Durability) {
		d.SegmentBytes = 4 << 10
	})
	if _, _, err := e.ExecuteSQL("CREATE TABLE t (k INT, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if _, _, err := e.ExecuteSQL(fmt.Sprintf("INSERT INTO t VALUES (%d,'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The index goes on last: inserts invalidate indexes (they are snapshots),
	// so only a post-insert index exists at close to survive recovery.
	if err := e.CreateIndex("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	ws := e.WALStats()
	if ws.Rotations == 0 {
		t.Fatalf("no rotations over %d bytes of appends with a 4KiB budget", ws.Bytes)
	}
	e.CloseWAL()

	// Exactly one generation remains on disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs, ckpts int
	for _, ent := range ents {
		switch filepath.Ext(ent.Name()) {
		case ".log":
			segs++
		case ".ckpt":
			ckpts++
		}
	}
	if segs != 1 || ckpts != 1 {
		t.Fatalf("directory holds %d segments and %d checkpoints, want 1 and 1", segs, ckpts)
	}

	r, st := openDurable(t, dir, nil)
	defer r.CloseWAL()
	if st.CheckpointTables != 1 || st.Gen == 0 {
		t.Fatalf("recovery did not start from a rotated checkpoint: %+v", st)
	}
	if got := tableStrings(t, r, "t"); len(got) != n {
		t.Fatalf("recovered %d rows, want %d", len(got), n)
	}
	if len(r.indexes["t"]) != 1 {
		t.Fatal("index did not survive checkpointed recovery")
	}
}

// TestRecoveryFsyncPolicies: interval and off policies still recover a cleanly
// closed log (Close syncs); always syncs at least once per acknowledged
// mutation; the flag parser round-trips every policy.
func TestRecoveryFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		parsed, err := ParseFsyncPolicy(pol.String())
		if err != nil || parsed != pol {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", pol.String(), parsed, err)
		}
		dir := t.TempDir()
		e, _ := openDurable(t, dir, func(d *Durability) { d.Fsync = pol })
		base := e.WALStats().Syncs
		mutations := []string{"CREATE TABLE t (k INT)", "INSERT INTO t VALUES (1),(2)"}
		for _, sql := range mutations {
			if _, _, err := e.ExecuteSQL(sql); err != nil {
				t.Fatal(err)
			}
		}
		if syncs := e.WALStats().Syncs - base; pol == FsyncAlways && syncs < int64(len(mutations)) {
			t.Fatalf("fsync=always synced %d times for %d acknowledged mutations", syncs, len(mutations))
		}
		e.CloseWAL()
		r, _ := openDurable(t, dir, nil)
		if got := tableStrings(t, r, "t"); len(got) != 2 {
			t.Fatalf("policy %v: recovered %d rows, want 2", pol, len(got))
		}
		r.CloseWAL()
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

// TestWALStickyError: after any WAL failure the engine refuses all further
// mutations instead of diverging from its log.
func TestWALStickyError(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDurable(t, dir, func(d *Durability) {
		d.crash = &walCrash{Seed: 3, Rate: 1}
	})
	if _, _, err := e.ExecuteSQL("CREATE TABLE t (k INT)"); !errors.Is(err, errWALCrashed) {
		t.Fatalf("want errWALCrashed, got %v", err)
	}
	// The failed mutation must not have been applied...
	if _, err := e.Schema("t"); err == nil {
		t.Fatal("crashed CREATE TABLE was applied in memory")
	}
	// ...and every later mutation fails fast on the sticky error.
	if err := e.CreateIndex("t", []int{0}); err == nil {
		t.Fatal("mutation accepted after a WAL failure")
	}
}

// TestRecoveryRefusesOlderLogFormat: testdata/walformat1 and walformat2 hold
// two segments (a create and an insert; a load) and a checkpoint as the gob
// builds wrote them — format 1 with rows as gob structs, format 2 with rows as
// column batches. Each is refused whole — ErrWALCorrupt naming the format this
// build reads, no engine — not replayed and not migrated.
func TestRecoveryRefusesOlderLogFormat(t *testing.T) {
	for name, files := range map[string][2]string{
		"segment/create then insert": {"create-then-insert.log", "wal-000000.log"},
		"segment/load":               {"load.log", "wal-000000.log"},
		"checkpoint":                 {"checkpoint.ckpt", "checkpoint-000001.ckpt"},
	} {
		t.Run(name, func(t *testing.T) {
			for _, format := range []string{"walformat1", "walformat2"} {
				data, err := os.ReadFile(filepath.Join("testdata", format, files[0]))
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, files[1]), data, 0o644); err != nil {
					t.Fatal(err)
				}
				e, _, err := OpenEngine(Durability{Dir: dir})
				var ce *WALCorruptError
				if !errors.Is(err, ErrWALCorrupt) || !errors.As(err, &ce) || e != nil {
					t.Fatalf("%s: OpenEngine: engine %v, err %v; want no engine and a *WALCorruptError", format, e, err)
				}
				if !strings.Contains(err.Error(), "walFormat 3") {
					t.Fatalf("%s: the refusal does not name the format this build reads: %v", format, err)
				}
			}
		})
	}
}

// TestRecoveryRefusesRowsOfWrongArity: a record that passes its CRC and names
// the current format but whose batch does not fit the table it targets is
// corruption at that record, not rows of the wrong width in the table.
func TestRecoveryRefusesRowsOfWrongArity(t *testing.T) {
	dir := t.TempDir()
	recs := []*walRecord{
		{Seq: 1, Kind: walCreateTable, Name: "t", Attrs: []wireAttr{{Name: "k", Kind: 1}}},
		{Seq: 2, Kind: walInsert, Name: "t", Rows: appendBatch(nil, 2, []relation.Tuple{{relation.Int(1), relation.Int(2)}})},
	}
	var data []byte
	for _, rec := range recs {
		var err error
		if data, err = encodeWALRecord(data, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(walSegmentPath(dir, 0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenEngine(Durability{Dir: dir})
	var ce *WALCorruptError
	if !errors.As(err, &ce) || ce.Offset == 0 {
		t.Fatalf("OpenEngine: %v; want a *WALCorruptError at the second record", err)
	}
}

// TestInsertAllocs: a durable INSERT pays per statement, not per row or
// token: ParseSQL and Engine.Insert of 250 rows allocate as many objects as of
// 25, give or take two. The values repeat, so the per-column distinct sets
// stop growing after the first statement.
func TestInsertAllocs(t *testing.T) {
	e, _ := openDurable(t, t.TempDir(), func(d *Durability) { d.Fsync = FsyncOff })
	defer e.CloseWAL()
	if _, _, err := e.ExecuteSQL("CREATE TABLE log (sid INT, pid INT, qty FLOAT, note TEXT)"); err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int) float64 {
		var b strings.Builder
		b.WriteString("INSERT INTO log VALUES ")
		for r := 0; r < rows; r++ {
			if r > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d,%d,%d,'n%06d')", r%7, r%5, r%3, r%11) // qty: an int coerced to float
		}
		src := b.String()
		return testing.AllocsPerRun(50, func() {
			st, err := ParseSQL(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Insert(st.Insert.Table, st.Insert.Rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(25), allocs(250)
	if large > small+2 || large < small-2 {
		t.Fatalf("a 25-row INSERT allocates %.0f objects, a 250-row one %.0f; want equal within 2", small, large)
	}
	t.Logf("%.0f allocations at 25 rows, %.0f at 250", small, large)
}

// TestEncodeBuffersDropPastReuseLimit: the WAL's frame buffer and the
// engine's row batch are reused from write to write, but one that a large
// record grew is dropped: after a LoadTable of more than 1 MiB, and after an
// INSERT past the limit, neither keeps more than reuseLimit.
func TestEncodeBuffersDropPastReuseLimit(t *testing.T) {
	e, _ := openDurable(t, t.TempDir(), func(d *Durability) { d.Fsync = FsyncOff })
	defer e.CloseWAL()
	kept := func(when string) {
		t.Helper()
		if w, r := cap(e.wal.buf), cap(e.rowBuf); w > reuseLimit || r > reuseLimit {
			t.Fatalf("%s: the WAL keeps %d bytes of frame buffer and the engine %d of row batch; want at most %d each", when, w, r, reuseLimit)
		}
	}
	schema := relation.NewSchema(relation.Attr{Name: "k", Kind: relation.KindInt}, relation.Attr{Name: "s", Kind: relation.KindString})
	big := relation.New("big", schema)
	for i := 0; i < 40_000; i++ {
		big.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str(fmt.Sprintf("%024d", i))})
	}
	e.LoadTable(big)
	if n := e.WALStats().Bytes; n < 1<<20 {
		t.Fatalf("the load logged %d bytes, want more than 1 MiB", n)
	}
	kept("after a 1 MiB LoadTable")
	if err := e.Insert("big", big.Tuples()[:5000]); err != nil {
		t.Fatal(err)
	}
	kept("after a 5000-row INSERT")
	if err := e.Insert("big", big.Tuples()[:10]); err != nil {
		t.Fatal(err)
	}
	if cap(e.wal.buf) == 0 || cap(e.rowBuf) == 0 {
		t.Fatal("a small INSERT did not leave its buffers for the next")
	}
	kept("after a small INSERT")
}

// TestIndexSurvivesInsert: an INSERT keeps its table's indexes. On a 10 000-
// row table indexed on id, a one-row INSERT leaves WHERE id = 5 on the index:
// it costs at most its pre-insert ops plus the rows appended since the build,
// and answers what a scan does. The checkpoint the insert's rotation writes
// names the index, and a reopen rebuilds it to answer as a fresh BuildIndex
// does. Rows appended past an eighth of those indexed rebuild the index.
func TestIndexSurvivesInsert(t *testing.T) {
	const n = 10_000
	dir := t.TempDir()
	e, _ := openDurable(t, dir, func(d *Durability) { d.SegmentBytes = 1 }) // every mutation checkpoints
	if _, _, err := e.ExecuteSQL("CREATE TABLE t (id INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i))}
	}
	if err := e.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT v FROM t WHERE id = 5"
	_, before, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("t", []relation.Tuple{{relation.Int(n), relation.Int(n)}}); err != nil {
		t.Fatal(err)
	}
	if len(e.indexes["t"]) != 1 {
		t.Fatalf("after an insert the table has %d indexes, want 1", len(e.indexes["t"]))
	}
	tail := e.tables["t"].Len() - e.indexes["t"][0].Rows()
	_, after, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if after > before+int64(tail) {
		t.Errorf("after a one-row insert %s costs %d ops, before it %d, with %d rows appended since the build", sql, after, before, tail)
	}
	// The appended rows answer from the tail, and in row order after the
	// indexed ones. (Ops count every row each operator passes: a scan then
	// a projection, two a row.)
	if got, ops, err := e.ExecuteSQL(fmt.Sprintf("SELECT v FROM t WHERE id = %d", n)); err != nil || fmt.Sprint(got.Tuples()) != fmt.Sprintf("[(%d)]", n) || ops > before {
		t.Errorf("the appended row's key answers %v in %d ops (%v), want [(%d)] in %d", got, ops, err, n, before)
	}
	if err := e.Insert("t", []relation.Tuple{{relation.Int(5), relation.Int(n + 1)}}); err != nil {
		t.Fatal(err)
	}
	if got, _, err := e.ExecuteSQL(sql); err != nil || fmt.Sprint(got.Tuples()) != fmt.Sprintf("[(5) (%d)]", n+1) {
		t.Errorf("after a second insert %s answers %v (%v)", sql, got, err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	r, _ := openDurable(t, dir, func(d *Durability) { d.SegmentBytes = 1 })
	defer r.CloseWAL()
	if len(r.indexes["t"]) != 1 || !r.indexes["t"][0].Covers([]int{0}) {
		t.Fatalf("the index on t(id) did not survive an insert, a checkpoint and a reopen: %d indexes", len(r.indexes["t"]))
	}
	tbl := r.tables["t"]
	fresh := relation.BuildIndex(tbl, []int{0})
	for _, k := range []int64{0, 5, 77, n - 1, n, -1} {
		key := []relation.Value{relation.Int(k)}
		got, want := r.indexes["t"][0].AppendLookupIn(nil, tbl.Tuples(), key), fresh.AppendLookupIn(nil, tbl.Tuples(), key)
		if len(got) != len(want) {
			t.Fatalf("the recovered index finds %v for %d, a fresh one %v", got, k, want)
		}
		for i := range got {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("the recovered index finds %v for %d, a fresh one %v", got, k, want)
			}
		}
	}

	more := make([]relation.Tuple, tbl.Len()/8+1)
	for i := range more {
		more[i] = relation.Tuple{relation.Int(int64(n + 1 + i)), relation.Int(0)}
	}
	if err := r.Insert("t", more); err != nil {
		t.Fatal(err)
	}
	if ix := r.indexes["t"][0]; ix.Rows() != r.tables["t"].Len() {
		t.Errorf("%d rows appended to %d indexed: the index covers %d of %d, want it rebuilt", len(more), tbl.Len()-len(more), ix.Rows(), r.tables["t"].Len())
	}
}
