package remotedb

import (
	"context"
	"errors"

	"repro/internal/relation"
)

// ResilientStream extends the resilience policy past stream establishment:
// before it, a connection dying after frame 3 of 40 surfaced as a hard
// Stream.Err to the consumer, even though the other 37 frames were one
// re-issue away. The wrapper repairs a mid-stream transport failure in place:
//
//   - the consumer's delivered-tuple count is tracked HERE, not in the inner
//     stream — tuples the transport buffered but never handed out must be
//     re-fetched, so the count that matters is what crossed Next();
//   - on a transient inner failure, the statement is re-dispatched through
//     the owning ResilientClient's doCtx (breaker, backoff, retries — a
//     re-dispatch is a request like any other) carrying the stream's resume
//     token and the delivered count, landing on the least-loaded pooled
//     connection (redialed first if it is the one that died);
//   - when the server honored the token (header Resumed=true), it already
//     skipped the delivered prefix; when it could not (snapshot gone — the
//     table was replaced), it served a fresh stream and the wrapper skips the
//     prefix itself. The scan path's emission order is deterministic, so both
//     concatenations equal the uninterrupted delivery (resume_test.go);
//   - the consumer observes none of this: each tuple is delivered exactly
//     once, in order, across any number of connection deaths.
//
// Only streams that carry a resume token are repaired. A tokenless stream
// has no determinism guarantee to skip against, so its mid-stream failure
// surfaces as Err.
//
// Termination: each successful resume must make progress (the finite result
// shrinks), so delivery completes even under repeated kills. A resume that
// delivers NOTHING new before dying again burns one of MaxRetries+1
// no-progress attempts, bounding the pathological kill-every-header case.
type ResilientStream struct {
	r   *ResilientClient
	ctx context.Context
	sql string

	inner  TupleStream
	schema *relation.Schema
	name   string

	token     string
	delivered int64 // tuples handed to the consumer across all inners
	skipLocal int64 // prefix of the current inner to drop (client-side skip)

	// lastDelivered/noProgress bound resumes that deliver nothing new.
	lastDelivered int64
	noProgress    int

	ops  int64
	sim  float64
	err  error
	done bool
}

// newResilientStream wraps a freshly established stream. A stream without a
// resume token is returned unwrapped — there is nothing the wrapper could
// repair, and the extra indirection would only cost.
func newResilientStream(r *ResilientClient, ctx context.Context, sql string, inner TupleStream) TupleStream {
	rr, ok := inner.(ResumeReporter)
	if !ok {
		return inner
	}
	token, _ := rr.ResumeState()
	if token == "" {
		return inner
	}
	return &ResilientStream{
		r:      r,
		ctx:    ctx,
		sql:    sql,
		inner:  inner,
		schema: inner.Schema(),
		name:   inner.Name(),
		token:  token,
	}
}

// Next implements relation.Iterator: tuples flow from the current inner
// stream, transparently spliced across resumes.
func (rs *ResilientStream) Next() (relation.Tuple, bool) {
	for {
		if rs.done {
			return nil, false
		}
		t, ok := rs.inner.Next()
		if ok {
			if rs.skipLocal > 0 {
				// Replay of the delivered prefix (full-restart fallback):
				// drop without delivering.
				rs.skipLocal--
				continue
			}
			rs.delivered++
			return t, true
		}
		err := rs.inner.Err()
		rs.account()
		if err == nil {
			rs.done = true
			return nil, false
		}
		if !rs.repairable(err) {
			rs.done = true
			rs.err = err
			return nil, false
		}
		if rerr := rs.resume(err); rerr != nil {
			rs.done = true
			rs.err = rerr
			return nil, false
		}
	}
}

// repairable decides whether a terminated inner stream is worth resuming:
// transient transport failure only — a semantic error or the CALLER's own
// cancellation/close is a verdict, not a fault.
func (rs *ResilientStream) repairable(err error) bool {
	if rs.ctx.Err() != nil {
		return false
	}
	if errors.Is(err, ErrStreamClosed) {
		return false
	}
	return IsTransient(err)
}

// resume re-dispatches the statement with the resume token through the
// resilience policy and splices the new stream in.
func (rs *ResilientStream) resume(cause error) error {
	if rs.delivered == rs.lastDelivered {
		rs.noProgress++
		if rs.noProgress > rs.r.cfg.MaxRetries {
			return &UnavailableError{Reason: "stream resume made no progress", Cause: cause}
		}
	} else {
		rs.lastDelivered = rs.delivered
		rs.noProgress = 0
	}
	skip := rs.delivered
	st, err := rs.r.ExecStreamResume(rs.ctx, rs.sql, rs.token, skip)
	if err != nil {
		return err
	}
	rs.inner = st
	rs.r.noteStreamResume()

	resumed := false
	if rr, ok := st.(ResumeReporter); ok {
		var token string
		token, resumed = rr.ResumeState()
		if token != "" {
			// The fresh header re-pins the snapshot for the NEXT failure.
			rs.token = token
		}
	}
	if resumed {
		rs.skipLocal = 0 // server already skipped the delivered prefix
	} else {
		rs.skipLocal = skip // full restart: drop the replayed prefix here
	}
	return nil
}

// account folds one terminated inner stream's cost into the whole.
func (rs *ResilientStream) account() {
	rs.ops += rs.inner.Ops()
	rs.sim += rs.inner.SimMS()
}

// Schema implements TupleStream (stable across resumes: same statement, same
// snapshot).
func (rs *ResilientStream) Schema() *relation.Schema { return rs.schema }

// Name implements TupleStream.
func (rs *ResilientStream) Name() string { return rs.name }

// Err implements TupleStream: nil after natural exhaustion — however many
// resumes it took — and the terminal error once repair was impossible or
// gave up.
func (rs *ResilientStream) Err() error { return rs.err }

// Ops implements TupleStream: the sum over every inner stream, so repeated
// partial deliveries are charged for the server work they actually caused.
func (rs *ResilientStream) Ops() int64 { return rs.ops }

// SimMS implements TupleStream: summed like Ops — resuming is not free, each
// re-dispatch pays the per-request cost again.
func (rs *ResilientStream) SimMS() float64 { return rs.sim }

// ResumeState implements ResumeReporter (for stacking and introspection).
func (rs *ResilientStream) ResumeState() (string, bool) { return rs.token, rs.skipLocal == 0 }

// Close implements TupleStream: closing an unfinished stream abandons the
// current inner (cancel frame upstream) and stops any further repair.
func (rs *ResilientStream) Close() error {
	if rs.done {
		return nil
	}
	rs.done = true
	err := rs.inner.Close()
	rs.account()
	if rs.err == nil {
		rs.err = rs.inner.Err()
	}
	return err
}
