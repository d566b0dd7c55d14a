package remotedb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Wire protocol v5: after the hello (wire.go), a connection carries frames in
// both directions, each one write of
//
//	[4B little-endian payload length][payload]
//	payload = [kind byte][request ID uvarint] then the kind's fields
//
// in the primitives of wire.go. A frame is self-contained: no state carries
// from one to the next, so the writer of each side keeps only a byte buffer.
// The tuples of a batch frame are the payload's tail, one opaque column batch
// (batch.go), which the stream's consumer decodes, not the connection's
// reader. The reader takes a frame of at most reuseLimit bytes from
// framePool and decodes it in place over the payload buffer the frame keeps;
// the batch aliases that buffer until the consumer decodes it and releases
// the frame.
//
// Frames are tagged with a request ID, so any number of requests can be in
// flight on one connection and responses interleave at frame granularity: a
// large result does not block the connection for its full transfer, and the
// client sees the first tuple batch after one frame instead of after the
// whole relation.
//
// Client→server frames: frameReq (start a request), frameCancel (stop one
// stream mid-flight; only that stream dies).
// Server→client frames: frameHeader (result schema), frameBatch (a bounded
// number of tuples), frameEnd (terminal: ops count, or an error/code; also
// carries the whole payload for the small catalog ops).

// Frame kinds, and the fields each carries after its ID.
const (
	frameReq    uint8 = 1 // Op, SQL, Name, Resume, Skip, Trace
	frameCancel uint8 = 2 // nothing
	frameHeader uint8 = 3 // Name, Attrs, Resume, Resumed, Epoch, Versions
	frameBatch  uint8 = 4 // Batch, to the end of the payload
	frameEnd    uint8 = 5 // Ops, Code, Err, Attrs, Stats, Tables, Epoch, Versions
)

// maxFrame bounds one frame's payload: a length above it is refused, and the
// writer never produces one.
const maxFrame = 256 << 20

// wireFrame is one framed protocol message. Which fields are meaningful
// depends on Kind; the rest stay at their zero values and are not sent.
type wireFrame struct {
	ID      uint64
	Kind    uint8
	Resumed bool // frameHeader (see Resume); declared here, where it packs into Kind's word

	Req *wireRequest // frameReq

	Name  string     // frameHeader, as written: result relation name
	Attrs []wireAttr // frameHeader, as written; frameEnd for the "schema" op
	Batch []byte     // frameBatch: one column batch of the header's arity

	// Head, on a header frame readFrame decoded, is the header's encoded Name
	// and Attrs, checked but not built: it aliases the payload, and the
	// client resolves it to a schema it keeps (muxConn.resolveHead). Name and
	// Attrs stay empty on such a frame, and appendFrame writes Head back.
	Head []byte

	// Resume, on a header frame, is the encoded resume token (resume.go) when
	// this stream is resumable — empty for the materializing execution path.
	// Resumed reports that the server honored the token of a re-issued request
	// by skipping already-delivered tuples itself; false on a resume request
	// means full restart, and the client must skip its delivered prefix.
	Resume string // frameHeader

	Ops    int64      // frameEnd: server-side tuple operations
	Err    string     // frameEnd: semantic or classified error
	Code   int        // frameEnd: wireCode* classification of Err
	Stats  TableStats // frameEnd for the "stats" op
	Tables []string   // frameEnd for the "tables" op

	// Epoch, on header and end frames, is the engine clock; Versions are the
	// tables whose data changed after the Epoch this connection last carried,
	// each with its new version (nil when none did). Folded together they
	// give a client every table's version as of the highest Epoch it has
	// seen, which is what the CMS checks a cached view's stamp against.
	// Versions is a pointer, not a slice: 8 bytes on every frame rather than
	// 24, for the frames that are not pooled (the ones a side writes).
	Epoch    uint64         // frameHeader, frameEnd
	Versions *[]wireVersion // frameHeader, frameEnd

	// buf is the payload buffer of a frame readFrame took from framePool; it
	// outlives the frame's fields, which release clears.
	buf []byte
}

// framePool holds the frames readFrame decodes, each with the payload buffer
// it keeps between uses. Both sides of a connection read through it and give
// back every frame they read: the server a request or cancel frame once it
// has copied out the ID and the request (serveFramed); the client a header
// once it has resolved it, a batch once its consumer has decoded it, an end
// frame once its stream or catalog request has taken its outcome, and a frame
// for a stream that is gone at once (readLoop). A sync.Pool rather than a
// free list: what it holds does not outlive a collection, so an idle client
// keeps no payload resident.
var framePool = sync.Pool{New: func() any { return new(wireFrame) }}

// release hands a frame readFrame returned back to framePool, keeping its
// payload buffer; nothing of the frame may be used after. Decoded fields
// never alias the buffer except Batch and Head (strings are copied), so only
// those must be used first. A frame that was not pooled (one past
// reuseLimit) is left to the collector.
func (f *wireFrame) release() {
	if f.buf == nil {
		return
	}
	*f = wireFrame{buf: f.buf[:0]}
	framePool.Put(f)
}

// versions returns the frame's version entries, nil when it carries none.
func (f *wireFrame) versions() []wireVersion {
	if f.Versions == nil {
		return nil
	}
	return *f.Versions
}

// appendFrame appends f's payload to dst.
func appendFrame(dst []byte, f *wireFrame) []byte {
	dst = binary.AppendUvarint(append(dst, f.Kind), f.ID)
	switch f.Kind {
	case frameReq:
		r := f.Req
		dst = appendString(appendString(appendString(appendString(dst, r.Op), r.SQL), r.Name), r.Resume)
		dst = binary.AppendUvarint(binary.AppendVarint(dst, r.Skip), r.Trace)
	case frameHeader:
		if f.Head != nil {
			dst = append(dst, f.Head...)
		} else {
			dst = appendAttrs(appendString(dst, f.Name), f.Attrs)
		}
		dst = appendBool(appendString(dst, f.Resume), f.Resumed)
		dst = appendVersions(binary.AppendUvarint(dst, f.Epoch), f.versions())
	case frameBatch:
		dst = append(dst, f.Batch...)
	case frameEnd:
		dst = append(binary.AppendVarint(dst, f.Ops), uint8(f.Code))
		dst = appendAttrs(appendString(dst, f.Err), f.Attrs)
		dst = appendInts(binary.AppendVarint(dst, int64(f.Stats.Rows)), f.Stats.Distinct)
		dst = binary.AppendUvarint(dst, uint64(len(f.Tables)))
		for _, t := range f.Tables {
			dst = appendString(dst, t)
		}
		dst = appendVersions(binary.AppendUvarint(dst, f.Epoch), f.versions())
	}
	return dst
}

// decodeFrame decodes one payload into a fresh frame.
func decodeFrame(payload []byte) (*wireFrame, error) {
	f := new(wireFrame)
	if err := f.decode(payload); err != nil {
		return nil, err
	}
	return f, nil
}

// decode decodes one payload into f, whose fields must be zero. The input is
// not trusted: every failure is a *ProtocolError, never a panic. A batch
// frame's Batch and a header's Head alias payload.
func (f *wireFrame) decode(payload []byte) error {
	d := wireDec{b: payload}
	f.Kind, f.ID = d.u8(), d.uvarint()
	switch f.Kind {
	case frameReq:
		f.Req = &wireRequest{Op: d.op(), SQL: d.string(), Name: d.string(), Resume: d.string(), Skip: d.varint(), Trace: d.uvarint()}
	case frameCancel:
	case frameHeader:
		f.Head, f.Resume, f.Resumed = d.head(), d.string(), d.bool()
		f.Epoch, f.Versions = d.uvarint(), d.versions()
	case frameBatch:
		f.Batch = d.rest()
	case frameEnd:
		f.Ops, f.Code, f.Err, f.Attrs = d.varint(), int(d.u8()), d.string(), d.attrs()
		f.Stats = TableStats{Rows: int(d.varint()), Distinct: d.ints()}
		if n := d.count(1); n > 0 {
			f.Tables = make([]string, n)
			for i := range f.Tables {
				f.Tables[i] = d.string()
			}
		}
		f.Epoch, f.Versions = d.uvarint(), d.versions()
	default:
		d.fail("unknown frame kind %d", f.Kind)
	}
	if err := d.done(); err != nil {
		return &ProtocolError{Op: "read frame", Err: err}
	}
	return nil
}

// writeFrame frames each of fs in *buf, the writer's buffer reused from
// write to write, back to back, and writes them with one Write. The caller
// serializes writes; a failed one may have left part of a frame on the wire,
// so the caller must treat it as fatal for the connection.
func writeFrame(w io.Writer, buf *[]byte, fs ...*wireFrame) error {
	// Sized for the batches up front: frames past reuseLimit are one
	// allocation.
	n := 0
	for _, f := range fs {
		n += 4 + 1 + binary.MaxVarintLen64 + len(f.Batch)
	}
	b := slices.Grow((*buf)[:0], n)
	for _, f := range fs {
		at := len(b)
		b = appendFrame(append(b, 0, 0, 0, 0), f)
		if len(b)-at-4 > maxFrame {
			*buf = reuse(b)
			return &ProtocolError{Op: "write frame", Err: fmt.Errorf("frame of %d bytes exceeds the %d limit", len(b)-at-4, maxFrame)}
		}
		le.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	*buf = reuse(b)
	if _, err := w.Write(b); err != nil {
		return &ProtocolError{Op: "write frame", Err: err}
	}
	return nil
}

// readFrame reads and decodes the next frame. Every failure is a typed
// *ProtocolError (matching ErrProtocol under errors.Is) except a clean EOF at
// a frame boundary, which is returned as io.EOF so callers can distinguish an
// orderly close from a truncated or corrupted stream. A frame of at most
// reuseLimit bytes comes from framePool, and the caller may release it.
func readFrame(r *bufio.Reader) (*wireFrame, error) {
	h, err := r.Peek(4)
	if len(h) == 0 && errors.Is(err, io.EOF) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, readError(err)
	}
	n := int(le.Uint32(h))
	if n == 0 || n > maxFrame {
		return nil, &ProtocolError{Op: "read frame", Err: fmt.Errorf("frame length %d", n)}
	}
	r.Discard(4)
	if n <= reuseLimit {
		f := framePool.Get().(*wireFrame)
		f.buf = slices.Grow(f.buf[:0], n)[:n]
		if _, err := io.ReadFull(r, f.buf); err != nil {
			f.release()
			return nil, readError(err)
		}
		if err := f.decode(f.buf); err != nil {
			f.release()
			return nil, err
		}
		return f, nil
	}
	// Past 1 MiB the payload grows as its bytes arrive, doubling: a length
	// the peer does not follow with bytes costs what it sent, not what it
	// claimed.
	payload := make([]byte, min(n, 1<<20))
	for read := 0; ; {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return nil, readError(err)
		}
		if read = len(payload); read == n {
			return decodeFrame(payload)
		}
		payload = append(payload, make([]byte, min(n-read, read))...)
	}
}

// readError classifies a failed read inside a frame: an end of input there
// is a truncated frame.
func readError(err error) error {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return &ProtocolError{Op: "read frame", Err: err}
}

// clampFrameTuples bounds a frame-size request to sane limits: at least 1
// tuple per frame, at most 64k (a frame decodes into one arena of
// tuples × arity values, so the cap bounds peak decode memory per stream).
func clampFrameTuples(n, fallback int) int {
	if n <= 0 {
		n = fallback
	}
	if n <= 0 {
		n = DefaultFrameTuples
	}
	if n > 1<<16 {
		n = 1 << 16
	}
	return n
}

// DefaultFrameTuples is the response frame size used when neither side
// configures one. Frames trade first-tuple latency and peak memory (small
// frames) against per-frame overhead (large frames).
const DefaultFrameTuples = 512
