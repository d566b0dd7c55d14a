package remotedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// Write-ahead log for the engine's mutations (CreateTable / LoadTable /
// Insert / CreateIndex). Every mutation is logged BEFORE it is applied to the
// in-memory catalog, so an acknowledged write is on disk when the engine's
// reply leaves the process; on restart, recovery (recovery.go) replays the
// log and rebuilds the exact acknowledged state.
//
// On-disk format. A data directory holds at most one checkpoint and one live
// segment per generation:
//
//	wal-<gen>.log          length-prefixed CRC32-framed records
//	checkpoint-<gen>.ckpt  full engine snapshot as of the START of wal-<gen>
//
// Each log record is framed as
//
//	[4B big-endian payload length][4B CRC32-IEEE of payload][payload]
//	payload = [format byte][seq uvarint][kind byte] then the kind's fields
//
// in the primitives of wire.go: a record is individually decodable, so a
// damaged one does not desynchronize the rest of the file. The rows a record
// or checkpoint carries are column batches (batch.go), the same bytes a
// response frame ships. Append encodes each record straight into the WAL's
// frame buffer, reused from record to record (and dropped when a record grew
// it past reuseLimit, so a bulk load does not stay resident).
//
// Format. Every record and checkpoint begins with the payload format byte,
// and recovery refuses — as ErrWALCorrupt, never by replaying — any other.
// Formats 1 and 2 were gob; a directory written in them is not read, and not
// migrated: it is reloaded from its source.
//
// Torn tails vs corruption. A crashed writer leaves at most a *prefix* of its
// final frame (the frame is written with one Write call). Recovery therefore
// truncates an incomplete frame at the end of the final segment — short
// header, short payload, or a CRC mismatch on the very last frame — but
// refuses a damaged frame that has valid data after it (or a garbage length
// field, which no torn write can produce) with the typed ErrWALCorrupt:
// mid-log damage means acknowledged history is gone, and silently dropping it
// would violate the durability contract.
//
// Rotation. When the live segment exceeds SegmentBytes, the engine snapshots
// its full state into checkpoint-<gen+1> (written to a temp file, fsynced,
// renamed), opens wal-<gen+1>.log, and deletes the previous generation — so
// the log is bounded by roughly SegmentBytes plus one snapshot regardless of
// the write history's length.

// FsyncPolicy selects when the WAL forces its writes to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every appended record: an acknowledged write
	// survives any crash. This is the policy the durability invariant (and
	// the restart-storm chaos suite) is stated under.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per FsyncInterval, amortizing the
	// sync over a burst: a crash loses at most the writes acknowledged since
	// the last sync.
	FsyncInterval
	// FsyncOff never syncs explicitly; the OS writes back on its own
	// schedule. Fastest, weakest: a crash may lose any unflushed suffix.
	FsyncOff
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off", "none":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("remotedb: unknown fsync policy %q (want always, interval, or off)", s)
}

// ErrWALCorrupt reports unrecoverable mid-log damage: a record that fails its
// CRC or length validation while acknowledged records follow it. Recovery
// refuses to proceed — replaying around the hole would silently drop
// acknowledged writes. Errors carry position detail and match this sentinel
// under errors.Is.
var ErrWALCorrupt = errors.New("remotedb: wal corrupt")

// WALCorruptError is the typed form of ErrWALCorrupt with location detail.
type WALCorruptError struct {
	Path   string
	Offset int64
	Reason string
}

// Error implements error.
func (e *WALCorruptError) Error() string {
	return fmt.Sprintf("remotedb: wal corrupt: %s at %s+%d", e.Reason, e.Path, e.Offset)
}

// Is matches the ErrWALCorrupt sentinel.
func (e *WALCorruptError) Is(target error) bool { return target == ErrWALCorrupt }

// errWALCrashed is returned by appends after an injected crashpoint fired:
// the WAL behaves as if the process died mid-write (a torn frame is on disk,
// nothing later is accepted). Only fault-injected WALs return it.
var errWALCrashed = errors.New("remotedb: wal crashed (injected)")

// WAL record kinds, one per logged engine mutation plus the restart marker.
const (
	walCreateTable uint8 = 1
	walLoadTable   uint8 = 2
	walInsert      uint8 = 3
	walCreateIndex uint8 = 4
	// walRestart is appended once per recovery: replaying it bumps every
	// table version (and the catalog epoch), so resume tokens minted before a
	// crash are durably refused after it — across any number of crashes.
	walRestart uint8 = 5
)

// walFormat is the payload format this build writes and the only one it
// reads: 3, the envelopes in wire.go's primitives, rows as column batches.
const walFormat = 3

// walRecord is one logged mutation. Which fields are meaningful depends on
// Kind:
//
//	walCreateTable  Name, Attrs
//	walLoadTable    Rel
//	walInsert       Name, Rows (to the end of the payload)
//	walCreateIndex  Name, Cols
//	walRestart      nothing
type walRecord struct {
	Seq  uint64 // position in the segment, starting at 1; replay verifies contiguity
	Kind uint8

	Name  string     // CreateTable/Insert/CreateIndex: table name
	Attrs []wireAttr // CreateTable: schema
	Rel   *walTable  // LoadTable: full extension
	Rows  []byte     // Insert: validated (coerced) rows, one batch of the table's arity
	Cols  []int      // CreateIndex: indexed columns
}

// walTable is a whole table in the log: its schema and its rows as one batch.
// A decoded table holds the batch in Rows. One bound for the log holds its
// relation instead, which is encoded straight into the frame: rowBytes, the
// batch's size, lets the frame make room for it once.
type walTable struct {
	Name  string
	Attrs []wireAttr
	Rows  []byte

	rel      *relation.Relation
	rowBytes int
}

func toWALTable(r *relation.Relation) *walTable {
	return &walTable{
		Name:     r.Name,
		Attrs:    toWireAttrs(r.Schema()),
		rel:      r,
		rowBytes: batchSize(r.Schema().Arity(), r.Tuples()),
	}
}

// maxSize bounds t's encoding: its rows exactly, every count at its widest.
func (t *walTable) maxSize() int {
	n := len(t.Name) + len(t.Rows) + t.rowBytes + 3*binary.MaxVarintLen64
	for _, a := range t.Attrs {
		n += len(a.Name) + binary.MaxVarintLen64 + 1
	}
	return n
}

func (w *walTable) relation() (*relation.Relation, error) {
	sch, err := fromWireAttrs(w.Attrs)
	if err != nil {
		return nil, err
	}
	r := relation.New(w.Name, sch)
	rows, err := decodeBatch(w.Rows, len(w.Attrs))
	if err != nil {
		return nil, err
	}
	return r, r.AppendAll(rows)
}

func appendWALTable(dst []byte, t *walTable) []byte {
	if n := t.maxSize(); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = appendAttrs(appendString(dst, t.Name), t.Attrs)
	if t.rel == nil {
		dst = binary.AppendUvarint(dst, uint64(len(t.Rows)))
		return append(dst, t.Rows...)
	}
	dst = binary.AppendUvarint(dst, uint64(t.rowBytes))
	return appendBatch(dst, len(t.Attrs), t.rel.Tuples())
}

func (d *wireDec) walTable() *walTable {
	return &walTable{Name: d.string(), Attrs: d.attrs(), Rows: d.bytes()}
}

// walCheckpoint is a full engine snapshot, written at segment rotation. It is
// framed exactly like a log record (one frame per file):
//
//	[format byte][gen uvarint][epoch uvarint]
//	[versions: count, then table name, version]
//	[tables: count, then walTable]
//	[indexes: count, then table name, count of column sets, each a count of columns]
type walCheckpoint struct {
	Gen      uint64
	Epoch    uint64
	Versions map[string]uint64
	Tables   []*walTable
	Indexes  map[string][][]int
}

// walCrash seeds deterministic crashpoint injection, the WAL's rider on the
// package's fault-injection machinery (ListenerFaults, FaultConfig): with
// probability Rate, an append writes only a prefix of its frame — exactly the
// torn tail a real mid-write crash leaves — and the WAL refuses all further
// work with errWALCrashed, as a dead process would. Reopening the directory
// then exercises recovery's truncation path deterministically.
type walCrash struct {
	Seed int64
	Rate float64
}

// Durability configures OpenEngine (recovery.go): where the log lives and how
// hard it pushes bytes to disk.
type Durability struct {
	// Dir is the data directory (created if missing).
	Dir string
	// Fsync is the sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes triggers rotation + checkpoint when the live segment
	// exceeds it (default 64 MiB).
	SegmentBytes int64
	// crash enables seeded crashpoint injection (tests only).
	crash *walCrash
	// Tracer records the recovery span and is installed on the recovered
	// engine (nil: untraced).
	Tracer *obs.Tracer
}

const (
	defaultSegmentBytes = 64 << 20
	defaultFsyncEvery   = 100 * time.Millisecond

	// maxWALRecord bounds one record's payload. A length field above it is
	// corruption by definition (the writer never produces one), so the reader
	// can refuse it without attempting a giant allocation.
	maxWALRecord = 256 << 20

	walFrameHeader = 8 // 4B length + 4B CRC
)

// WALStats are cumulative WAL counters, read-through for the metrics registry.
type WALStats struct {
	Appends   int64
	Syncs     int64
	Rotations int64
	Bytes     int64
}

// WAL is the append side of the log. All methods are called with the engine
// mutex held (the engine serializes mutations), so the WAL itself needs no
// lock; the counters are atomics only so metrics can read them concurrently.
type WAL struct {
	dir          string
	fsync        FsyncPolicy
	fsyncEvery   time.Duration
	segmentBytes int64

	f        *os.File
	gen      uint64
	seq      uint64 // last record sequence written in the current segment
	size     int64
	lastSync time.Time

	crash   *walCrash
	rng     *rand.Rand
	crashed bool

	buf []byte // the frame being appended, reused from record to record

	appends   atomic.Int64
	syncs     atomic.Int64
	rotations atomic.Int64
	bytes     atomic.Int64
}

func (d Durability) withDefaults() Durability {
	if d.SegmentBytes <= 0 {
		d.SegmentBytes = defaultSegmentBytes
	}
	if d.FsyncEvery <= 0 {
		d.FsyncEvery = defaultFsyncEvery
	}
	return d
}

func walSegmentPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", gen))
}

func walCheckpointPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%06d.ckpt", gen))
}

// walGens scans the data directory and returns the generations that have a
// segment and/or a checkpoint, sorted ascending.
func walGens(dir string) (segs, ckpts []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		n, err := strconv.ParseUint(mid, 10, 64)
		return n, err == nil
	}
	for _, ent := range ents {
		if g, ok := parse(ent.Name(), "wal-", ".log"); ok {
			segs = append(segs, g)
		}
		if g, ok := parse(ent.Name(), "checkpoint-", ".ckpt"); ok {
			ckpts = append(ckpts, g)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	return segs, ckpts, nil
}

// sealWALFrame fills in the header of the frame at dst[start:], whose payload
// is everything after the header.
func sealWALFrame(dst []byte, start int) error {
	payload := dst[start+walFrameHeader:]
	if len(payload) > maxWALRecord {
		return fmt.Errorf("remotedb: wal record of %d bytes exceeds the %d limit", len(payload), maxWALRecord)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return nil
}

// encodeWALRecord appends rec to dst as one frame.
func encodeWALRecord(dst []byte, rec *walRecord) ([]byte, error) {
	start := len(dst)
	dst = appendWALRecord(append(dst, make([]byte, walFrameHeader)...), rec)
	return dst, sealWALFrame(dst, start)
}

// appendWALRecord appends rec's payload to dst.
func appendWALRecord(dst []byte, rec *walRecord) []byte {
	dst = append(binary.AppendUvarint(append(dst, walFormat), rec.Seq), rec.Kind)
	switch rec.Kind {
	case walCreateTable:
		dst = appendAttrs(appendString(dst, rec.Name), rec.Attrs)
	case walLoadTable:
		dst = appendWALTable(dst, rec.Rel)
	case walInsert:
		dst = append(appendString(dst, rec.Name), rec.Rows...)
	case walCreateIndex:
		dst = appendInts(appendString(dst, rec.Name), rec.Cols)
	}
	return dst
}

// decodeWALRecord decodes one CRC-validated payload. A payload that passes its
// CRC but does not decode is corruption (the bytes are provably what the
// writer wrote, so the record itself is damaged or alien). The record's byte
// fields alias payload.
func decodeWALRecord(payload []byte) (*walRecord, error) {
	d := wireDec{b: payload}
	if f := d.u8(); d.err == nil && f != walFormat {
		return nil, errWALFormat("record", f)
	}
	rec := &walRecord{Seq: d.uvarint(), Kind: d.u8()}
	switch rec.Kind {
	case walCreateTable:
		rec.Name, rec.Attrs = d.string(), d.attrs()
	case walLoadTable:
		rec.Rel = d.walTable()
	case walInsert:
		rec.Name, rec.Rows = d.string(), d.rest()
	case walCreateIndex:
		rec.Name, rec.Cols = d.string(), d.ints()
	case walRestart:
	default:
		d.fail("unknown wal record kind %d", rec.Kind)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return rec, nil
}

// walScanResult is one segment's replay outcome.
type walScanResult struct {
	records   int   // valid records delivered
	truncated int64 // torn-tail bytes dropped (0: clean end)
	goodSize  int64 // offset of the end of the last valid record
	lastSeq   uint64
}

// scanWALSegment reads every record of one segment in order, delivering each
// to apply; a record apply refuses is corruption at that record. final marks
// the last (live) segment: only there may a damaged frame at EOF be treated
// as a torn tail. The function never blocks beyond the file and never
// delivers a partially validated record.
func scanWALSegment(path string, final bool, apply func(*walRecord) error) (walScanResult, error) {
	res := walScanResult{}
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	off := int64(0)
	total := int64(len(data))
	corrupt := func(reason string) (walScanResult, error) {
		return res, &WALCorruptError{Path: path, Offset: off, Reason: reason}
	}
	tornOrCorrupt := func(reason string) (walScanResult, error) {
		if final {
			res.truncated = total - off
			res.goodSize = off
			return res, nil
		}
		return corrupt(reason)
	}
	var wantSeq uint64
	for off < total {
		rest := data[off:]
		if int64(len(rest)) < walFrameHeader {
			// A frame prefix shorter than its header: torn tail on the final
			// segment, corruption elsewhere.
			return tornOrCorrupt("short frame header")
		}
		length := int64(binary.BigEndian.Uint32(rest[0:4]))
		crc := binary.BigEndian.Uint32(rest[4:8])
		if length == 0 || length > maxWALRecord {
			// No torn write produces a garbage length (the header is the
			// frame's first bytes): refuse it anywhere, even at EOF.
			return corrupt(fmt.Sprintf("implausible record length %d", length))
		}
		if int64(len(rest)) < walFrameHeader+length {
			return tornOrCorrupt("short record payload")
		}
		payload := rest[walFrameHeader : walFrameHeader+length]
		if crc32.ChecksumIEEE(payload) != crc {
			if final && off+walFrameHeader+length == total {
				// The final frame of the final segment: a crash mid-write can
				// leave exactly this (blocks of one write can land out of
				// order), so it is a torn tail, not history damage.
				res.truncated = total - off
				res.goodSize = off
				return res, nil
			}
			return corrupt("record CRC mismatch")
		}
		rec, derr := decodeWALRecord(payload)
		if derr != nil {
			return corrupt(fmt.Sprintf("undecodable record: %v", derr))
		}
		if wantSeq != 0 && rec.Seq != wantSeq {
			return corrupt(fmt.Sprintf("sequence gap: record %d follows %d", rec.Seq, wantSeq-1))
		}
		wantSeq = rec.Seq + 1
		if err := apply(rec); err != nil {
			return corrupt(err.Error())
		}
		off += walFrameHeader + length
		res.records++
		res.goodSize = off
		res.lastSeq = rec.Seq
	}
	return res, nil
}

// errWALFormat refuses a payload whose first byte is not walFormat.
func errWALFormat(what string, f uint8) error {
	return fmt.Errorf("%s format byte %d: this build reads only walFormat %d (formats 1 and 2 were gob and are not read)", what, f, walFormat)
}

// maxSize bounds ck's payload: its tables' rows exactly, every count and
// every other field at its widest.
func (ck *walCheckpoint) maxSize() int {
	n := 1 + 5*binary.MaxVarintLen64
	for name := range ck.Versions {
		n += len(name) + 2*binary.MaxVarintLen64
	}
	for _, t := range ck.Tables {
		n += t.maxSize()
	}
	for name, sets := range ck.Indexes {
		n += len(name) + 2*binary.MaxVarintLen64
		for _, cols := range sets {
			n += (1 + len(cols)) * binary.MaxVarintLen64
		}
	}
	return n
}

// appendWALCheckpoint appends ck's payload to dst.
func appendWALCheckpoint(dst []byte, ck *walCheckpoint) []byte {
	dst = append(dst, walFormat)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, ck.Gen), ck.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(ck.Versions)))
	for n, v := range ck.Versions {
		dst = binary.AppendUvarint(appendString(dst, n), v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ck.Tables)))
	for _, t := range ck.Tables {
		dst = appendWALTable(dst, t)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ck.Indexes)))
	for n, sets := range ck.Indexes {
		dst = binary.AppendUvarint(appendString(dst, n), uint64(len(sets)))
		for _, cols := range sets {
			dst = appendInts(dst, cols)
		}
	}
	return dst
}

// decodeWALCheckpoint decodes one CRC-validated checkpoint payload.
func decodeWALCheckpoint(payload []byte) (*walCheckpoint, error) {
	d := wireDec{b: payload}
	if f := d.u8(); d.err == nil && f != walFormat {
		return nil, errWALFormat("checkpoint", f)
	}
	ck := &walCheckpoint{Gen: d.uvarint(), Epoch: d.uvarint(), Versions: map[string]uint64{}, Indexes: map[string][][]int{}}
	for n := d.count(2); n > 0; n-- {
		name := d.string()
		ck.Versions[name] = d.uvarint()
	}
	ck.Tables = make([]*walTable, d.count(3))
	for i := range ck.Tables {
		ck.Tables[i] = d.walTable()
	}
	for n := d.count(2); n > 0; n-- {
		name := d.string()
		sets := make([][]int, d.count(1))
		for i := range sets {
			sets[i] = d.ints()
		}
		ck.Indexes[name] = sets
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return ck, nil
}

// writeCheckpoint atomically writes one checkpoint file: temp file, fsync,
// rename, directory fsync — a crash at any point leaves either the old state
// or a complete new checkpoint, never a half-visible one.
func writeCheckpoint(dir string, ck *walCheckpoint) error {
	frame := appendWALCheckpoint(make([]byte, walFrameHeader, walFrameHeader+ck.maxSize()), ck)
	if err := sealWALFrame(frame, 0); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), walCheckpointPath(dir, ck.Gen)); err != nil {
		return err
	}
	return syncDir(dir)
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(dir string, gen uint64) (*walCheckpoint, error) {
	path := walCheckpointPath(dir, gen)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) < walFrameHeader {
		return nil, &WALCorruptError{Path: path, Reason: "short checkpoint"}
	}
	length := int64(binary.BigEndian.Uint32(data[0:4]))
	crc := binary.BigEndian.Uint32(data[4:8])
	if length <= 0 || length > maxWALRecord || walFrameHeader+length != int64(len(data)) {
		return nil, &WALCorruptError{Path: path, Reason: "checkpoint length mismatch"}
	}
	payload := data[walFrameHeader:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, &WALCorruptError{Path: path, Reason: "checkpoint CRC mismatch"}
	}
	ck, err := decodeWALCheckpoint(payload)
	if err != nil {
		return nil, &WALCorruptError{Path: path, Reason: fmt.Sprintf("undecodable checkpoint: %v", err)}
	}
	return ck, nil
}

// syncDir fsyncs a directory so renames/creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// openWALSegment opens (creating or appending to) the live segment of gen.
// size must be the validated length (recovery truncates a torn tail before
// appending after it).
func openWALSegment(d Durability, gen uint64, size int64, lastSeq uint64) (*WAL, error) {
	f, err := os.OpenFile(walSegmentPath(d.Dir, gen), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{
		dir:          d.Dir,
		fsync:        d.Fsync,
		fsyncEvery:   d.FsyncEvery,
		segmentBytes: d.SegmentBytes,
		f:            f,
		gen:          gen,
		seq:          lastSeq,
		size:         size,
		crash:        d.crash,
	}
	if d.crash != nil {
		w.rng = rand.New(rand.NewSource(d.crash.Seed))
	}
	return w, nil
}

// Append logs one record, assigning its sequence number, and syncs per the
// policy. The caller (the engine, holding its mutex) must not apply the
// mutation unless Append returns nil: log-before-apply is what makes an
// acknowledged write durable.
func (w *WAL) Append(rec *walRecord) error {
	if w.crashed {
		return errWALCrashed
	}
	rec.Seq = w.seq + 1
	frame, err := encodeWALRecord(w.buf[:0], rec)
	w.buf = reuse(frame)
	if err != nil {
		return err
	}
	if w.crash != nil && w.rng.Float64() < w.crash.Rate {
		// Injected crashpoint: die mid-write. A prefix of the frame lands on
		// disk (never the whole frame, so the record is provably torn) and
		// the WAL refuses everything afterwards, like the dead process would.
		torn := frame[:w.rng.Intn(len(frame)-1)+1]
		if len(torn) == len(frame) {
			torn = frame[:len(frame)-1]
		}
		w.f.Write(torn)
		w.f.Sync()
		w.crashed = true
		return errWALCrashed
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("remotedb: wal append: %w", err)
	}
	w.seq = rec.Seq
	w.size += int64(len(frame))
	w.appends.Add(1)
	w.bytes.Add(int64(len(frame)))
	switch w.fsync {
	case FsyncAlways:
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("remotedb: wal sync: %w", err)
		}
		w.syncs.Add(1)
	case FsyncInterval:
		if now := time.Now(); now.Sub(w.lastSync) >= w.fsyncEvery {
			if err := w.f.Sync(); err != nil {
				return fmt.Errorf("remotedb: wal sync: %w", err)
			}
			w.syncs.Add(1)
			w.lastSync = now
		}
	}
	return nil
}

// shouldRotate reports whether the live segment has outgrown its budget.
func (w *WAL) shouldRotate() bool {
	return !w.crashed && w.size >= w.segmentBytes
}

// Rotate seals the live segment behind a checkpoint of the full engine state
// and starts the next generation, deleting the old files. The caller holds
// the engine mutex, so the snapshot is consistent with the log tail.
func (w *WAL) Rotate(ck *walCheckpoint) error {
	if w.crashed {
		return errWALCrashed
	}
	next := w.gen + 1
	ck.Gen = next
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := writeCheckpoint(w.dir, ck); err != nil {
		return err
	}
	f, err := os.OpenFile(walSegmentPath(w.dir, next), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	old := w.f
	oldGen := w.gen
	w.f, w.gen, w.size, w.seq = f, next, 0, 0
	w.lastSync = time.Time{}
	old.Close()
	os.Remove(walSegmentPath(w.dir, oldGen))
	os.Remove(walCheckpointPath(w.dir, oldGen))
	w.rotations.Add(1)
	return syncDir(w.dir)
}

// Stats returns cumulative counters (safe to call concurrently with appends).
func (w *WAL) Stats() WALStats {
	return WALStats{
		Appends:   w.appends.Load(),
		Syncs:     w.syncs.Load(),
		Rotations: w.rotations.Load(),
		Bytes:     w.bytes.Load(),
	}
}

// Close syncs and closes the live segment.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	if !w.crashed && w.fsync != FsyncOff {
		w.f.Sync()
	}
	err := w.f.Close()
	w.f = nil
	return err
}
