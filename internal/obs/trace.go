package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records lightweight spans into a fixed-size ring. Sampling is
// counter-based (every Nth root span starts a trace) so the hot path never
// touches a random source; child spans of a recorded parent are always
// recorded, and spans whose trace ID was adopted from the wire are recorded
// unconditionally — the client already made the sampling decision.
//
// All methods are nil-safe: a nil *Tracer starts no spans, and the nil
// *Span it returns ignores Set and End. Instrumented code therefore never
// branches on "is tracing on".
type Tracer struct {
	sampleEvery int64
	tick        atomic.Int64
	nextTrace   atomic.Uint64
	nextSpan    atomic.Uint64

	mu   sync.Mutex
	ring []*Span
	pos  int
	full bool
}

// NewTracer returns a tracer sampling one in every sampleEvery root spans
// (<= 1 samples everything) and retaining the last capacity completed spans.
func NewTracer(sampleEvery, capacity int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if capacity < 1 {
		capacity = 1024
	}
	t := &Tracer{sampleEvery: int64(sampleEvery), ring: make([]*Span, capacity)}
	// Seed the trace-ID space from the clock so traces from separate
	// processes (client and server rings) do not collide on small integers.
	t.nextTrace.Store(uint64(time.Now().UnixNano()))
	return t
}

// Span is one timed operation. Completed spans live in the tracer ring;
// fields are exported for JSON export and tests.
type Span struct {
	tr       *Tracer
	TraceID  uint64        `json:"trace"`
	SpanID   uint64        `json:"span"`
	ParentID uint64        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Begin    time.Time     `json:"begin"`
	Dur      time.Duration `json:"dur_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	done     atomic.Bool
}

// Attr is one span annotation.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

type ctxKey int

const (
	ctxSpan    ctxKey = iota // the active *Span (parenting)
	ctxTraceID               // a trace ID adopted from the wire (server side)
)

// WithTraceID marks ctx as belonging to an existing trace (an ID received
// over the wire). Spans started under it are recorded with that trace ID
// regardless of the local sampler. A zero id is a no-op.
func WithTraceID(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, ctxTraceID, id)
}

// TraceID returns the trace ID the work under ctx belongs to: the active
// span's, or an adopted wire ID, or 0 when untraced.
func TraceID(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	if s, ok := ctx.Value(ctxSpan).(*Span); ok && s != nil {
		return s.TraceID
	}
	if id, ok := ctx.Value(ctxTraceID).(uint64); ok {
		return id
	}
	return 0
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxSpan).(*Span)
	return s
}

// Start begins a span named name. If ctx carries an active span the new
// span is its child (always recorded); if ctx carries an adopted trace ID
// the span joins that trace; otherwise the sampler decides whether a new
// trace begins. Returns ctx unchanged and a nil span when not recording.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var trace, parent uint64
	if p, ok := ctx.Value(ctxSpan).(*Span); ok && p != nil {
		trace, parent = p.TraceID, p.SpanID
	} else if id, ok := ctx.Value(ctxTraceID).(uint64); ok && id != 0 {
		trace = id
	} else {
		if t.tick.Add(1)%t.sampleEvery != 0 {
			return ctx, nil
		}
		trace = t.nextTrace.Add(1)
	}
	s := &Span{
		tr:       t,
		TraceID:  trace,
		SpanID:   t.nextSpan.Add(1),
		ParentID: parent,
		Name:     name,
		Begin:    time.Now(),
	}
	return context.WithValue(ctx, ctxSpan, s), s
}

// Set annotates the span. Nil-safe.
func (s *Span) Set(key, val string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// End completes the span and commits it to the tracer ring. Nil-safe and
// idempotent.
func (s *Span) End() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	s.Dur = time.Since(s.Begin)
	t := s.tr
	t.mu.Lock()
	t.ring[t.pos] = s
	t.pos++
	if t.pos == len(t.ring) {
		t.pos, t.full = 0, true
	}
	t.mu.Unlock()
}

// Spans returns a snapshot of the retained completed spans, oldest first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	if t.full {
		out = append(out, t.ring[t.pos:]...)
	}
	out = append(out, t.ring[:t.pos]...)
	return out
}

// Reset drops all retained spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.ring {
		t.ring[i] = nil
	}
	t.pos, t.full = 0, false
	t.mu.Unlock()
}

// Dump renders the retained spans grouped by trace, each trace as an
// indented tree ordered by start time — the `.trace` output in braid-repl.
func (t *Tracer) Dump() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(no traces recorded)"
	}
	byTrace := map[uint64][]*Span{}
	var order []uint64
	for _, s := range spans {
		if _, ok := byTrace[s.TraceID]; !ok {
			order = append(order, s.TraceID)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	var b strings.Builder
	for _, id := range order {
		ss := byTrace[id]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Begin.Before(ss[j].Begin) })
		depth := map[uint64]int{}
		fmt.Fprintf(&b, "trace %016x (%d spans)\n", id, len(ss))
		for _, s := range ss {
			d := 0
			if s.ParentID != 0 {
				d = depth[s.ParentID] + 1
			}
			depth[s.SpanID] = d
			fmt.Fprintf(&b, "  %s%-24s %10.1fus", strings.Repeat("  ", d), s.Name,
				float64(s.Dur.Nanoseconds())/1e3)
			for _, a := range s.Attrs {
				fmt.Fprintf(&b, "  %s=%s", a.Key, a.Val)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// WriteJSON exports the retained spans as a JSON array, oldest first.
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	if spans == nil {
		spans = []*Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}
