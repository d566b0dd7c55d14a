package bridge

import (
	"context"
	"errors"
	"fmt"
)

// Typed failure classes of the query dispatch path. Every query issued
// through a Session resolves to exactly one outcome — completed, canceled,
// deadline-exceeded, or failed — and the non-completed outcomes carry
// one of these sentinels so callers (and the chaos harness's conservation
// invariant) can classify errors without string matching.

// ErrCanceled reports that the caller's context was canceled while the query
// (or a lazy stream derived from it) was running. Errors carrying it also
// match context.Canceled under errors.Is.
var ErrCanceled = errors.New("bridge: query canceled")

// ErrDeadlineExceeded reports that the caller's context deadline expired
// while the query (or a lazy stream derived from it) was running.
// Errors carrying it also match context.DeadlineExceeded under errors.Is.
var ErrDeadlineExceeded = errors.New("bridge: query deadline exceeded")

// CtxError maps a done context's error to the bridge's typed sentinel,
// wrapping the context error so errors.Is matches both (e.g. ErrCanceled and
// context.Canceled). It returns nil for a live context.
func CtxError(ctx context.Context) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}
