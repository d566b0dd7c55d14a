package remotedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/relation"
)

// walTestRecords is one record of every kind, with the fields that kind uses
// populated — the framing round-trip corpus.
func walTestRecords() []*walRecord {
	return []*walRecord{
		{Kind: walCreateTable, Name: "emp", Attrs: []wireAttr{{Name: "id", Kind: 1}, {Name: "name", Kind: 3}}},
		{Kind: walLoadTable, Rel: &walTable{
			Name:  "dept",
			Attrs: []wireAttr{{Name: "d", Kind: 1}, {Name: "title", Kind: 3}},
			Rows: appendBatch(nil, 2, []relation.Tuple{
				{relation.Int(1), relation.Str("eng")}, {relation.Int(2), relation.Str("ops")}}),
		}},
		{Kind: walInsert, Name: "emp", Rows: appendBatch(nil, 2, []relation.Tuple{
			{relation.Int(7), relation.Str("ada")},
			{relation.Int(8), relation.Str("käte")}, // non-ASCII survives framing
			{relation.Int(-1), relation.Null()},     // NULL value
		})},
		{Kind: walCreateIndex, Name: "emp", Cols: []int{0, 1}},
		{Kind: walRestart},
	}
}

// writeWALFile frames recs (assigning contiguous sequence numbers from 1) into
// one segment file and returns its path.
func writeWALFile(t *testing.T, recs []*walRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal-000000.log")
	var data []byte
	for i, rec := range recs {
		rec.Seq = uint64(i + 1)
		var err error
		if data, err = encodeWALRecord(data, rec); err != nil {
			t.Fatalf("encode record %d: %v", i, err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanAll scans path collecting every delivered record.
func scanAll(t *testing.T, path string, final bool) ([]*walRecord, walScanResult, error) {
	t.Helper()
	var got []*walRecord
	res, err := scanWALSegment(path, final, func(rec *walRecord) error {
		got = append(got, rec)
		return nil
	})
	return got, res, err
}

// TestWALFrameRoundTripAllKinds: every record kind survives encode → scan with
// all fields intact.
func TestWALFrameRoundTripAllKinds(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	got, res, err := scanAll(t, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.truncated != 0 || res.records != len(recs) || len(got) != len(recs) {
		t.Fatalf("scan of clean log: %+v, %d records delivered", res, len(got))
	}
	for i, rec := range recs {
		g := got[i]
		if g.Seq != rec.Seq || g.Kind != rec.Kind || g.Name != rec.Name {
			t.Fatalf("record %d header mismatch: got %+v want %+v", i, g, rec)
		}
		switch rec.Kind {
		case walCreateTable:
			if len(g.Attrs) != len(rec.Attrs) || g.Attrs[1] != rec.Attrs[1] {
				t.Fatalf("CreateTable attrs mismatch: %+v", g.Attrs)
			}
		case walLoadTable:
			if g.Rel == nil || g.Rel.Name != rec.Rel.Name || !bytes.Equal(g.Rel.Rows, rec.Rel.Rows) {
				t.Fatalf("LoadTable relation mismatch: %+v", g.Rel)
			}
		case walInsert:
			rows, err := decodeBatch(g.Rows, 2)
			if err != nil || len(rows) != 3 || rows[1][1].AsString() != "käte" || !rows[2][1].IsNull() {
				t.Fatalf("Insert rows mismatch: %v, %v", rows, err)
			}
		case walCreateIndex:
			if len(g.Cols) != 2 || g.Cols[0] != 0 || g.Cols[1] != 1 {
				t.Fatalf("CreateIndex cols mismatch: %+v", g.Cols)
			}
		}
	}
}

// TestWALScanTruncation: for EVERY strict prefix of a valid log, the final
// segment scan recovers exactly the fully framed records and reports the rest
// as a torn tail — while a non-final segment refuses the same damage as
// corruption. No prefix may hang, panic, or deliver a partial record.
func TestWALScanTruncation(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: offsets at which a prefix is a whole number of records.
	bounds := map[int]int{0: 0} // prefix length → records contained
	off, n := 0, 0
	for off < len(full) {
		length := int(binary.BigEndian.Uint32(full[off : off+4]))
		off += walFrameHeader + length
		n++
		bounds[off] = n
	}

	cut := filepath.Join(t.TempDir(), "wal-000000.log")
	for i := 0; i <= len(full); i++ {
		if err := os.WriteFile(cut, full[:i], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res, err := scanAll(t, cut, true)
		if err != nil {
			t.Fatalf("prefix %d/%d: final-segment scan errored: %v", i, len(full), err)
		}
		wantRecs, whole := boundsBelow(bounds, i)
		if len(got) != wantRecs || res.records != wantRecs {
			t.Fatalf("prefix %d: delivered %d records, want %d", i, len(got), wantRecs)
		}
		if whole && res.truncated != 0 {
			t.Fatalf("prefix %d is whole records but reported %d truncated bytes", i, res.truncated)
		}
		if !whole && res.truncated == 0 {
			t.Fatalf("prefix %d ends mid-frame but reported no truncation", i)
		}
		if res.goodSize+res.truncated != int64(i) {
			t.Fatalf("prefix %d: goodSize %d + truncated %d != file size", i, res.goodSize, res.truncated)
		}

		// The same prefix as a NON-final segment: mid-frame damage is
		// corruption, whole-record prefixes are clean.
		_, _, err = scanAll(t, cut, false)
		if whole && err != nil {
			t.Fatalf("prefix %d: non-final scan of whole records errored: %v", i, err)
		}
		if !whole && !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("prefix %d: non-final scan of torn frame: err=%v, want ErrWALCorrupt", i, err)
		}
	}
}

// boundsBelow returns the record count of the longest whole-record boundary at
// or below i, and whether i itself is a boundary.
func boundsBelow(bounds map[int]int, i int) (recs int, whole bool) {
	if n, ok := bounds[i]; ok {
		return n, true
	}
	best := 0
	for off, n := range bounds {
		if off < i && n > best {
			best = n
		}
	}
	return best, false
}

// TestWALScanMidLogCorruption: a bit flip anywhere before the final frame is
// refused with ErrWALCorrupt even on the final segment — torn writes only
// damage the tail, so mid-log damage means acknowledged history is gone.
func TestWALScanMidLogCorruption(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the final frame.
	off, lastStart := 0, 0
	for off < len(full) {
		lastStart = off
		length := int(binary.BigEndian.Uint32(full[off : off+4]))
		off += walFrameHeader + length
	}

	cut := filepath.Join(t.TempDir(), "wal-000000.log")
	for _, pos := range []int{4, walFrameHeader + 2, lastStart - 3} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xff
		if err := os.WriteFile(cut, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := scanAll(t, cut, true)
		if !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("flip at %d: err=%v, want ErrWALCorrupt", pos, err)
		}
		var ce *WALCorruptError
		if !errors.As(err, &ce) || ce.Path != cut {
			t.Fatalf("flip at %d: error %v is not a located WALCorruptError", pos, err)
		}
	}

	// A CRC mismatch on the FINAL frame of the final segment is a torn tail
	// (out-of-order block writeback), not corruption.
	mut := append([]byte(nil), full...)
	mut[len(mut)-1] ^= 0xff
	if err := os.WriteFile(cut, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res, err := scanAll(t, cut, true)
	if err != nil {
		t.Fatalf("final-frame flip: %v", err)
	}
	if len(got) != len(recs)-1 || res.truncated == 0 {
		t.Fatalf("final-frame flip: %d records, %d truncated; want %d records and a torn tail",
			len(got), res.truncated, len(recs)-1)
	}
	// But the same flip mid-segment (non-final) is corruption.
	if _, _, err := scanAll(t, cut, false); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("final-frame flip on non-final segment: err=%v, want ErrWALCorrupt", err)
	}
}

// TestWALScanGarbageLength: a zero or implausibly large length field is
// corruption ANYWHERE, including at EOF of the final segment — no torn write
// produces one, and honoring it would attempt a giant allocation.
func TestWALScanGarbageLength(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "wal-000000.log")
	for name, length := range map[string]uint32{"zero": 0, "huge": 1 << 31} {
		garbage := make([]byte, walFrameHeader)
		binary.BigEndian.PutUint32(garbage[0:4], length)
		mut := append(append([]byte(nil), full...), garbage...)
		if err := os.WriteFile(cut, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := scanAll(t, cut, true)
		if !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("%s length at EOF: err=%v, want ErrWALCorrupt", name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s length: %d records delivered before refusal, want %d", name, len(got), len(recs))
		}
	}
}

// walFrame frames payload as Append would, with a valid length and CRC.
func walFrame(payload []byte) []byte {
	frame := append(make([]byte, walFrameHeader), payload...)
	if err := sealWALFrame(frame, 0); err != nil {
		panic(err)
	}
	return frame
}

// TestWALScanUndecodablePayload: a payload whose CRC is valid but whose bytes
// do not decode to a walRecord is corruption (the bytes are provably what the
// writer wrote, so the record is alien).
func TestWALScanUndecodablePayload(t *testing.T) {
	junk := walFrame([]byte("not a record at all"))
	path := filepath.Join(t.TempDir(), "wal-000000.log")
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanAll(t, path, true); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("CRC-valid garbage payload: err=%v, want ErrWALCorrupt", err)
	}
}

// TestWALScanSequenceGap: records must be contiguous; a gap means a record
// went missing and the log cannot be trusted.
func TestWALScanSequenceGap(t *testing.T) {
	recs := walTestRecords()
	path := writeWALFile(t, recs)
	// Re-frame with a gap: drop the middle record's frame bytes entirely.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	off := 0
	for off < len(full) {
		offs = append(offs, off)
		off += walFrameHeader + int(binary.BigEndian.Uint32(full[off:off+4]))
	}
	gapped := append(append([]byte(nil), full[:offs[1]]...), full[offs[2]:]...)
	cut := filepath.Join(t.TempDir(), "wal-000000.log")
	if err := os.WriteFile(cut, gapped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanAll(t, cut, true); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("sequence gap: err=%v, want ErrWALCorrupt", err)
	}
}

// TestCheckpointRoundTrip: a checkpoint survives write → read, and damage to
// any single byte is refused with ErrWALCorrupt.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := &walCheckpoint{
		Gen:      3,
		Epoch:    17,
		Versions: map[string]uint64{"emp": 4, "dept": 1},
		Tables: []*walTable{{
			Name:  "emp",
			Attrs: []wireAttr{{Name: "id", Kind: 1}},
			Rows:  appendBatch(nil, 1, []relation.Tuple{{relation.Int(42)}}),
		}},
		Indexes: map[string][][]int{"emp": {{0}}},
	}
	if err := writeCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	got, err := readCheckpoint(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 3 || got.Epoch != 17 || got.Versions["emp"] != 4 ||
		len(got.Tables) != 1 || len(got.Indexes["emp"]) != 1 {
		t.Fatalf("checkpoint round trip mismatch: %+v", got)
	}
	if emp, err := got.Tables[0].relation(); err != nil || emp.Len() != 1 || emp.Tuples()[0][0].AsInt() != 42 {
		t.Fatalf("checkpoint table round trip: %v, %v", emp, err)
	}

	path := walCheckpointPath(dir, 3)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 5, walFrameHeader + 1, len(full) - 1} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readCheckpoint(dir, 3); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("checkpoint flip at %d: err=%v, want ErrWALCorrupt", pos, err)
		}
	}
	// Truncated checkpoint (torn rename cannot produce this — the write is
	// atomic via rename — but a damaged disk can): refused, not replayed.
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(dir, 3); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("truncated checkpoint: err=%v, want ErrWALCorrupt", err)
	}
}

// FuzzScanWALSegment: arbitrary file bytes must never panic the scanner, never
// hang it, and never deliver a record from an invalid frame. Mirrors the wire
// frame fuzz (PR 5): the decoder's attack surface is the raw file.
func FuzzScanWALSegment(f *testing.F) {
	recs := walTestRecords()
	var valid []byte
	for i, rec := range recs {
		rec.Seq = uint64(i + 1)
		var err error
		if valid, err = encodeWALRecord(valid, rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal-000000.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, final := range []bool{true, false} {
			res, err := scanWALSegment(path, final, func(rec *walRecord) error {
				// Every delivered record passed length, CRC, decode, and kind
				// validation; re-encoding it must produce a valid frame.
				if rec.Kind < walCreateTable || rec.Kind > walRestart {
					t.Fatalf("delivered record with invalid kind %d", rec.Kind)
				}
				if _, err := encodeWALRecord(nil, rec); err != nil {
					t.Fatalf("delivered record does not re-encode: %v", err)
				}
				return nil
			})
			if err != nil {
				if !errors.Is(err, ErrWALCorrupt) {
					t.Fatalf("scan error is not ErrWALCorrupt: %v", err)
				}
				continue
			}
			if res.goodSize+res.truncated > int64(len(data)) {
				t.Fatalf("goodSize %d + truncated %d exceeds input %d", res.goodSize, res.truncated, len(data))
			}
			if !final && res.truncated != 0 {
				t.Fatal("non-final scan reported a torn tail instead of corruption")
			}
		}
	})
}

// FuzzDecodeWALRecord: arbitrary payload bytes decode to an error or to a
// record that re-encodes to exactly those bytes; never a panic. Scanning
// wraps a decode error as ErrWALCorrupt at the record's offset.
func FuzzDecodeWALRecord(f *testing.F) {
	for i, rec := range walTestRecords() {
		rec.Seq = uint64(i + 1)
		f.Add(appendWALRecord(nil, rec))
	}
	f.Add([]byte{walFormat, 1, walCreateIndex, 1, 't', 2, 1, 0x7f}) // a negative column
	f.Add([]byte{2, 1, walRestart})                                 // another format
	f.Add([]byte{walFormat, 0x81, 0x00, walRestart})                // a sequence in two bytes where one does
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			path := filepath.Join(t.TempDir(), "wal-000000.log")
			if err := os.WriteFile(path, walFrame(payload), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := scanAll(t, path, true); !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("scan of an undecodable record: %v, want ErrWALCorrupt", err)
			}
			return
		}
		if again := appendWALRecord(nil, rec); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded %x, decoded from %x", again, payload)
		}
	})
}

// A table is encoded once, straight into its frame, which is sized for it
// before the rows go in: a checkpoint of a 100 000-row, 4-column table, and a
// LoadTable record of it, each allocate at most twice their frame. When the
// rows went into a batch of their own first and the frame grew by appending,
// the checkpoint allocated 6.1 times its frame.
func TestWALTableEncodesOnce(t *testing.T) {
	r := relation.New("wide", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindFloat},
		relation.Attr{Name: "c", Kind: relation.KindString},
		relation.Attr{Name: "d", Kind: relation.KindInt}))
	for i := 0; i < 100_000; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Float(float64(i) / 3),
			relation.Str(strconv.Itoa(i % 1000)), relation.Null()})
	}
	e := NewEngine()
	e.LoadTable(r)
	dir := t.TempDir()
	var frame int
	checkpoint := func() {
		e.mu.Lock()
		ck := e.checkpointLocked()
		e.mu.Unlock()
		ck.Gen = 1
		if err := writeCheckpoint(dir, ck); err != nil {
			t.Fatal(err)
		}
	}
	record := func() {
		b, err := encodeWALRecord(nil, &walRecord{Seq: 1, Kind: walLoadTable, Rel: toWALTable(r)})
		if err != nil {
			t.Fatal(err)
		}
		frame = len(b)
	}
	for _, tc := range []struct {
		name string
		f    func()
		path string
	}{
		{"checkpoint", checkpoint, walCheckpointPath(dir, 1)},
		{"LoadTable record", record, ""},
	} {
		var m0, m1 runtime.MemStats
		tc.f()
		runtime.ReadMemStats(&m0)
		tc.f()
		runtime.ReadMemStats(&m1)
		if tc.path != "" {
			fi, err := os.Stat(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			frame = int(fi.Size())
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; float64(alloc) > 2*float64(frame) {
			t.Errorf("%s: %d bytes allocated for a %d-byte frame, budget twice the frame", tc.name, alloc, frame)
		}
	}
	ck, err := readCheckpoint(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ck.Tables[0].relation()
	if err != nil || back.Len() != r.Len() || !back.Tuples()[99_999].Equal(r.Tuples()[99_999]) {
		t.Fatalf("checkpointed table reads back as %v rows (%v)", back.Len(), err)
	}
}
