package remotedb

import (
	"errors"
	"fmt"
	"io"
	"net"
)

// This file defines the error taxonomy of the remote path. The CMS needs to
// distinguish two failure classes that a bare error value conflates:
//
//   - semantic errors — the server understood the request and rejected it
//     (unknown table, SQL syntax, arity mismatch). Retrying is pointless and
//     the connection is fine.
//   - transport errors — the request may never have reached the server, or
//     the response never came back (dropped connection, timeout, refused
//     dial, injected fault). These are retryable and, when persistent, mean
//     the remote DBMS is unavailable and the CMS should degrade to
//     cache-only service.
//
// Transport-level failures are wrapped in *TransportError by every client;
// ResilientClient converts persistent transport failure into
// *UnavailableError, which matches ErrRemoteUnavailable under errors.Is.

// ErrRemoteUnavailable is the sentinel the CMS and IE test for with
// errors.Is: the remote DBMS cannot be reached right now (circuit open,
// retries exhausted, or deadline exceeded). Queries answerable from the
// cache keep working while this condition holds.
var ErrRemoteUnavailable = errors.New("remotedb: remote DBMS unavailable")

// ErrDeadlineExceeded reports that a request exceeded its configured
// per-request deadline.
var ErrDeadlineExceeded = errors.New("remotedb: request deadline exceeded")

// ErrBrokenConn reports a connection known to be desynchronized or dead; the
// client fails fast instead of reading from a corrupt stream.
var ErrBrokenConn = errors.New("remotedb: connection broken")

// ErrOverloaded reports that the server's admission controller shed the
// request (distinct wire code, not a failure: the server is healthy but
// saturated). It is transient — backing off and retrying is the right client
// response, and ResilientClient does exactly that.
var ErrOverloaded = errors.New("remotedb: server overloaded, request shed")

// ErrProtocol is the sentinel for wire-protocol violations on the framed
// transport: a refused hello, a corrupted or truncated frame, an unknown
// frame kind, a frame for the wrong direction. After one the connection's
// frame boundaries cannot be trusted, so it is torn down. Match with
// errors.Is.
var ErrProtocol = errors.New("remotedb: wire protocol violation")

// ErrStreamClosed reports a read from a tuple stream that was explicitly
// closed by its consumer.
var ErrStreamClosed = errors.New("remotedb: stream closed by consumer")

// ProtocolError wraps the cause of one wire-protocol violation. It matches
// ErrProtocol under errors.Is and is transient for retry purposes (the
// request can be replayed on a fresh connection).
type ProtocolError struct {
	Op  string // "read frame", "write frame", "hello"
	Err error
}

// Error implements error.
func (e *ProtocolError) Error() string {
	return fmt.Sprintf("%v (%s): %v", ErrProtocol, e.Op, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *ProtocolError) Unwrap() error { return e.Err }

// Is matches ErrProtocol so callers can classify without the concrete type.
func (e *ProtocolError) Is(target error) bool { return target == ErrProtocol }

// TransportError wraps an I/O-level failure of one request. It is retryable:
// the request may not have produced a semantic answer at all.
type TransportError struct {
	Op  string // protocol op ("exec", "schema", "stats", "tables", "dial")
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("remotedb: transport failure (%s): %v", e.Op, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *TransportError) Unwrap() error { return e.Err }

// UnavailableError is the typed failure ResilientClient returns when it gives
// up on a request: the circuit breaker is open, or retries were exhausted.
// It matches ErrRemoteUnavailable under errors.Is.
type UnavailableError struct {
	Reason string // "circuit open", "retries exhausted", ...
	Cause  error  // last underlying error (may be nil for fail-fast)
}

// Error implements error.
func (e *UnavailableError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("%v (%s): %v", ErrRemoteUnavailable, e.Reason, e.Cause)
	}
	return fmt.Sprintf("%v (%s)", ErrRemoteUnavailable, e.Reason)
}

// Unwrap exposes the last underlying error.
func (e *UnavailableError) Unwrap() error { return e.Cause }

// Is matches ErrRemoteUnavailable so callers can use errors.Is without
// knowing the concrete type.
func (e *UnavailableError) Is(target error) bool { return target == ErrRemoteUnavailable }

// IsTransient reports whether err is a retryable transport-level failure (as
// opposed to a semantic error from the engine, which retrying cannot fix).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrBrokenConn) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrProtocol) ||
		errors.Is(err, ErrRemoteUnavailable)
}

// IsUnavailable reports whether err means the remote DBMS is unavailable
// (the typed fail-fast condition the CMS degrades on).
func IsUnavailable(err error) bool { return errors.Is(err, ErrRemoteUnavailable) }

// AvailabilityReporter is implemented by clients that track remote health
// (ResilientClient via its circuit breaker). The CMS consults it to decide
// whether to suppress prefetch/eager work and count degraded-mode hits.
type AvailabilityReporter interface {
	// Available reports whether the client would currently attempt a remote
	// request (breaker closed or half-open) rather than fail fast.
	Available() bool
}

// ResilienceReporter is implemented by clients that keep retry/breaker
// counters (ResilientClient); the CMS folds these into its stats surface.
type ResilienceReporter interface {
	ResilienceStats() ResilienceStats
}
