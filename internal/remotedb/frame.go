package remotedb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Wire protocol v4: after the hello handshake (wire.go), a connection carries
// gob-encoded wireFrame values in both directions on the SAME per-connection
// gob encoder/decoder pair that carried the handshake (gob transmits a type
// descriptor the first time each type crosses an encoder, so a per-frame
// encoder would resend descriptors on every message). gob is the envelope
// only: the tuples of a batch frame travel as one opaque column batch
// (batch.go), which the stream's consumer decodes, not the connection's
// reader.
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

// Frame kinds.
const (
	frameReq    uint8 = 1 // client→server: wireRequest under an ID
	frameCancel uint8 = 2 // client→server: abandon stream ID
	frameHeader uint8 = 3 // server→client: result relation name + schema
	frameBatch  uint8 = 4 // server→client: one batch of tuples
	frameEnd    uint8 = 5 // server→client: terminal frame (ops, error, payload)
)

// wireFrame is one framed protocol message. Which fields are meaningful
// depends on Kind; everything else stays at its zero value on the wire.
type wireFrame struct {
	ID      uint64
	Kind    uint8
	Resumed bool // frameHeader (see Resume); declared here, where it packs into Kind's word

	Req *wireRequest // frameReq

	Name  string     // frameHeader: result relation name
	Attrs []wireAttr // frameHeader; frameEnd for the "schema" op
	Batch []byte     // frameBatch: one column batch of the header's arity

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
	// Versions is a pointer, not a slice, so it adds 8 bytes to every frame
	// rather than 24, and a frame (decoded into a fresh wireFrame each time)
	// stays in its 208-byte size class.
	Epoch    uint64         // frameHeader, frameEnd
	Versions *[]wireVersion // frameHeader, frameEnd
}

// versions returns the frame's version entries, nil when it carries none.
func (f *wireFrame) versions() []wireVersion {
	if f.Versions == nil {
		return nil
	}
	return *f.Versions
}

// validFrameKind reports whether k is a kind this build understands.
func validFrameKind(k uint8) bool { return k >= frameReq && k <= frameEnd }

// writeFrame encodes one frame onto the connection's shared encoder. Any
// failure means the gob stream may be desynchronized, so callers must treat
// it as fatal for the connection.
func writeFrame(enc *gob.Encoder, f *wireFrame) error {
	if err := enc.Encode(f); err != nil {
		return &ProtocolError{Op: "write frame", Err: err}
	}
	return nil
}

// readFrame decodes one frame from the connection's shared decoder and
// validates it. Every failure is a typed *ProtocolError (matching ErrProtocol
// under errors.Is) except clean EOF, which is returned as io.EOF so callers
// can distinguish an orderly close from a truncated or corrupted stream.
// Decoding never blocks beyond the underlying reader: truncated input
// surfaces as io.ErrUnexpectedEOF from gob, corrupt input as a gob error —
// both fail fast, wrapped and classified.
func readFrame(dec *gob.Decoder) (*wireFrame, error) {
	var f wireFrame
	if err := dec.Decode(&f); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, &ProtocolError{Op: "read frame", Err: err}
	}
	if !validFrameKind(f.Kind) {
		return nil, &ProtocolError{Op: "read frame", Err: fmt.Errorf("unknown frame kind %d", f.Kind)}
	}
	if f.Kind == frameReq && f.Req == nil {
		return nil, &ProtocolError{Op: "read frame", Err: errors.New("request frame without a request")}
	}
	return &f, nil
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
// frames) against per-frame overhead (large frames); E14 measures the curve.
const DefaultFrameTuples = 512
