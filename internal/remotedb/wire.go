package remotedb

import "repro/internal/relation"

// Envelope types of the TCP protocol, encoded with encoding/gob: requests,
// the hello answer and schema attributes. Tuples never meet gob — they travel
// as column batches (batch.go).

type wireAttr struct {
	Name string
	Kind uint8
}

func toWireAttrs(sch *relation.Schema) []wireAttr {
	if sch == nil {
		return nil
	}
	attrs := make([]wireAttr, sch.Arity())
	for i, a := range sch.Attrs() {
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

// wireRequest is one protocol request. Op selects the action.
//
// Op "hello" opens every connection: the client sends its protocol version in
// Proto and its preferred frame size in FrameTuples as a bare wireRequest, the
// server answers with one bare wireResponse carrying its version, and from
// then on the connection carries frames in both directions (frame.go). Any
// other opener, or any version but protoV4, is answered with one error
// response and a close.
type wireRequest struct {
	Op   string // "exec", "schema", "stats", "tables", "hello"
	SQL  string
	Name string
	// Proto is the client's protocol version (hello only).
	Proto int
	// FrameTuples is the client's preferred response frame size in tuples
	// (hello only; 0 lets the server choose). The server clamps it.
	FrameTuples int
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

// protoV4 is the one protocol version this build speaks: framed, with
// request-ID multiplexing, tuples streamed as column batches, and table
// versions on header and end frames. gob drops the fields a receiver does not
// declare, so no other version may be mixed in: a version-3 client would
// read this build's frames without their versions and keep serving views the
// server has moved past; a version-2 peer would read batch frames as empty.
const protoV4 = 4

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

// wireResponse is the answer to hello on the wire, and the in-process answer
// of Server.handle that the framed path ships in a terminal frame.
type wireResponse struct {
	Err    string
	Attrs  []wireAttr
	Stats  TableStats
	Tables []string
	// Proto is the server's protocol version (hello response only).
	Proto int
}
