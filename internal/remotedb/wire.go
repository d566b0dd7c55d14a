package remotedb

import (
	"encoding/binary"
	"fmt"

	"repro/internal/relation"
)

// Envelope types of the TCP protocol and the WAL, and the primitives both
// encode them with: unsigned and zigzag varints, single bytes, and strings or
// byte runs prefixed by their varint length. Tuples travel as column batches
// (batch.go) inside these envelopes.
//
// Every encoding is canonical, so a decoded message re-encodes to the bytes it
// came from: the decoder refuses a varint with superfluous high bytes, a bool
// byte other than 0 or 1, and bytes after the last field. Every length and
// count is checked against the bytes present before anything is sized by it.

type wireAttr struct {
	Name string
	Kind uint8
}

func toWireAttrs(sch *relation.Schema) []wireAttr {
	if sch == nil {
		return nil
	}
	attrs := make([]wireAttr, sch.Arity())
	for i := range attrs {
		a := sch.Attr(i)
		attrs[i] = wireAttr{Name: a.Name, Kind: uint8(a.Kind)}
	}
	return attrs
}

func fromWireAttrs(attrs []wireAttr) *relation.Schema {
	out := make([]relation.Attr, len(attrs))
	for i, a := range attrs {
		out[i] = relation.Attr{Name: a.Name, Kind: relation.Kind(a.Kind)}
	}
	return relation.NewSchema(out...)
}

// wireRequest is one protocol request, carried by a frameReq frame. Op
// selects the action: "exec", "schema", "stats" or "tables".
type wireRequest struct {
	Op   string
	SQL  string
	Name string
	// Resume is the encoded resume token of a re-issued streamed request
	// ("exec" only): the client saw the original stream die after
	// delivering Skip tuples and asks the server to serve the remainder of
	// the same snapshot. A server that cannot honor it (snapshot gone, bad
	// token) serves a fresh stream and clears the header's Resumed flag.
	Resume string
	// Skip is the number of result tuples the client already delivered to its
	// consumer before the stream died (meaningful with Resume).
	Skip int64
	// Trace is the client's trace ID for this request (0: untraced). The
	// server adopts it for the spans its execution records, stitching client
	// and server into one distributed trace.
	Trace uint64
}

// wireVersion is one table's data version on a header or end frame.
type wireVersion struct {
	Table   string
	Version uint64
}

// The hello. Every connection opens with helloMagic, the client's protocol
// version byte and its preferred response frame size in tuples (a uvarint; 0
// lets the server choose, and the server clamps it). The server accepts with
// helloMagic and its own version byte, and from then on the connection
// carries frames in both directions (frame.go). Any other opener, or any
// version but protoV5, is answered with one error frame and a close; a client
// whose hello is answered with anything but the accepting bytes fails the
// dial with a ProtocolError{Op: "hello"}.
//
// The magic's first byte is not ASCII and, read as a gob message length, is
// out of range: a protocol-4 peer, which speaks gob, refuses this build's
// hello at its first byte, as this build refuses its gob opener at the magic.
const helloMagic = "\x89BrAID"

// protoV5 is the one protocol version this build speaks: framed, with
// request-ID multiplexing, tuples streamed as column batches, table versions
// on header and end frames, and every envelope in the primitives of this
// file. Version 4 carried the same frames in gob; it is refused, not
// translated.
const protoV5 = 5

// Wire error codes: Err carries the human-readable message, Code the machine
// classification, so clients can distinguish overload shedding, server
// deadlines, and stream cancellation from semantic failures without string
// matching.
const (
	wireCodeNone       = 0 // no error, or a semantic error (Err set)
	wireCodeOverloaded = 1 // request shed by the server's admission limit
	wireCodeDeadline   = 2 // request stopped at the server's deadline
	wireCodeCanceled   = 3 // stream stopped by a client cancel frame
)

// reuseLimit bounds the encode buffers kept between uses — the WAL's frame
// buffer, the engine's row batch, each connection's write buffer: one that a
// larger message grew is dropped, so a bulk load or a wide frame does not stay
// resident after it.
const reuseLimit = 64 << 10

// reuse returns b emptied for the next message, or nil if it grew past
// reuseLimit.
func reuse(b []byte) []byte {
	if cap(b) > reuseLimit {
		return nil
	}
	return b[:0]
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendAttrs(dst []byte, attrs []wireAttr) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for _, a := range attrs {
		dst = append(appendString(dst, a.Name), a.Kind)
	}
	return dst
}

func appendInts(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

func appendVersions(dst []byte, vs []wireVersion) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(appendString(dst, v.Table), v.Version)
	}
	return dst
}

// wireDec reads the primitives back from one message. The first failure
// sticks: every later read returns a zero value, and err reports the first.
type wireDec struct {
	b   []byte
	err error
}

func (d *wireDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

func (d *wireDec) u8() uint8 {
	if len(d.b) == 0 {
		d.fail("message ends early")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *wireDec) bool() bool {
	v := d.u8()
	if v > 1 {
		d.fail("bool byte %d", v)
	}
	return v == 1
}

// varintLen checks the result of binary.Uvarint or Varint on d.b: the varint
// must be complete, fit 64 bits and have no superfluous high byte.
func (d *wireDec) varintLen(n int) bool {
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail("malformed varint")
		return false
	}
	d.b = d.b[n:]
	return true
}

func (d *wireDec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if !d.varintLen(n) {
		return 0
	}
	return v
}

func (d *wireDec) varint() int64 {
	v, n := binary.Varint(d.b)
	if !d.varintLen(n) {
		return 0
	}
	return v
}

// count reads a list length whose every element takes at least least bytes,
// so a lying count is refused before anything is allocated for it.
func (d *wireDec) count(least int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/least) {
		d.fail("count %d past the end of the message", n)
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte run; the result aliases the message.
func (d *wireDec) bytes() []byte {
	n := d.count(1)
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *wireDec) string() string { return string(d.bytes()) }

// rest takes every byte left: the last field of a message needs no length.
func (d *wireDec) rest() []byte {
	out := d.b
	d.b = d.b[len(d.b):]
	return out
}

func (d *wireDec) attrs() []wireAttr {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	attrs := make([]wireAttr, n)
	for i := range attrs {
		attrs[i] = wireAttr{Name: d.string(), Kind: d.u8()}
	}
	return attrs
}

func (d *wireDec) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(d.varint())
	}
	return xs
}

func (d *wireDec) versions() []wireVersion {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	vs := make([]wireVersion, n)
	for i := range vs {
		vs[i] = wireVersion{Table: d.string(), Version: d.uvarint()}
	}
	return vs
}

// done reports the first failure, or bytes left after the last field.
func (d *wireDec) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d bytes after the last field", len(d.b))
	}
	return d.err
}
