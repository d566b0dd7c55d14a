package remotedb

import (
	"fmt"

	"repro/internal/relation"
)

// Wire representation for the TCP protocol. relation.Value keeps its fields
// unexported (by design), so the protocol uses explicit, versionable mirror
// types encoded with encoding/gob.

type wireValue struct {
	Kind uint8
	I    int64
	F    float64
	S    string
	B    bool
}

func toWireValue(v relation.Value) wireValue {
	switch v.Kind() {
	case relation.KindInt:
		return wireValue{Kind: 1, I: v.AsInt()}
	case relation.KindFloat:
		return wireValue{Kind: 2, F: v.AsFloat()}
	case relation.KindString:
		return wireValue{Kind: 3, S: v.AsString()}
	case relation.KindBool:
		return wireValue{Kind: 4, B: v.AsBool()}
	default:
		return wireValue{Kind: 0}
	}
}

func fromWireValue(w wireValue) (relation.Value, error) {
	switch w.Kind {
	case 0:
		return relation.Null(), nil
	case 1:
		return relation.Int(w.I), nil
	case 2:
		return relation.Float(w.F), nil
	case 3:
		return relation.Str(w.S), nil
	case 4:
		return relation.Bool(w.B), nil
	default:
		return relation.Value{}, fmt.Errorf("remotedb: bad wire value kind %d", w.Kind)
	}
}

type wireAttr struct {
	Name string
	Kind uint8
}

type wireRelation struct {
	Name   string
	Attrs  []wireAttr
	Tuples [][]wireValue
}

func toWireRelation(r *relation.Relation) *wireRelation {
	if r == nil {
		return nil
	}
	w := &wireRelation{Name: r.Name}
	for _, a := range r.Schema().Attrs() {
		w.Attrs = append(w.Attrs, wireAttr{Name: a.Name, Kind: uint8(a.Kind)})
	}
	for _, t := range r.Tuples() {
		w.Tuples = append(w.Tuples, toWireTuple(t))
	}
	return w
}

// toWireTuple converts one tuple to its wire form.
func toWireTuple(t relation.Tuple) []wireValue {
	row := make([]wireValue, len(t))
	for i, v := range t {
		row[i] = toWireValue(v)
	}
	return row
}

func fromWireRelation(w *wireRelation) (*relation.Relation, error) {
	if w == nil {
		return nil, nil
	}
	attrs := make([]relation.Attr, len(w.Attrs))
	for i, a := range w.Attrs {
		attrs[i] = relation.Attr{Name: a.Name, Kind: relation.Kind(a.Kind)}
	}
	r := relation.New(w.Name, relation.NewSchema(attrs...))
	tuples, err := fromWireTuples(w.Tuples)
	if err != nil {
		return nil, err
	}
	// Bulk append: one arity validation pass and one slice growth for the
	// whole payload instead of per-tuple checks on the hot decode path.
	if err := r.AppendAll(tuples); err != nil {
		return nil, err
	}
	return r, nil
}

// wireRequest is one protocol request. Op selects the action.
//
// Op "hello" opens every connection: the client sends its protocol version in
// Proto and its preferred frame size in FrameTuples as a bare wireRequest, the
// server answers with one bare wireResponse carrying its version, and from
// then on the connection carries frames in both directions (frame.go). Any
// other opener, or a version below protoV2, is answered with one error
// response and a close.
// Op "ping" is a liveness probe: the server answers with an empty frameEnd
// without touching the engine.
type wireRequest struct {
	Op   string // "exec", "schema", "stats", "tables", "hello", "ping"
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

// protoV2 is the one protocol version this build speaks: framed, with
// streamed tuple batches and request-ID multiplexing.
const protoV2 = 2

// Wire error codes: Err carries the human-readable message, Code the machine
// classification, so clients can distinguish overload shedding, server
// deadlines, and stream cancellation from semantic failures without string
// matching.
const (
	wireCodeNone       = 0 // no error, or a semantic error (Err set)
	wireCodeOverloaded = 1 // request shed by the server's admission limit
	wireCodeDeadline   = 2 // request abandoned at the server's deadline
	wireCodeCanceled   = 3 // stream stopped by a client cancel frame
)

// wireResponse is the answer to hello on the wire, and the in-process result
// of Server.handle that the framed path ships as header/batch/end frames.
type wireResponse struct {
	Err    string
	Code   int // wireCode* classification of Err
	Rel    *wireRelation
	Ops    int64
	Attrs  []wireAttr
	Stats  TableStats
	Tables []string
	// Proto is the server's protocol version (hello response only).
	Proto int
}

// toWireTuples converts a slice of tuples to wire rows (one response frame's
// payload).
func toWireTuples(tuples []relation.Tuple) [][]wireValue {
	rows := make([][]wireValue, len(tuples))
	for i, t := range tuples {
		row := make([]wireValue, len(t))
		for j, v := range t {
			row[j] = toWireValue(v)
		}
		rows[i] = row
	}
	return rows
}

// fromWireTuples decodes wire rows into tuples without schema revalidation
// (the caller bulk-appends via Relation.AppendAll, which validates arity once
// per batch).
func fromWireTuples(rows [][]wireValue) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, len(rows))
	for i, row := range rows {
		t := make(relation.Tuple, len(row))
		for j, wv := range row {
			v, err := fromWireValue(wv)
			if err != nil {
				return nil, err
			}
			t[j] = v
		}
		out[i] = t
	}
	return out, nil
}
