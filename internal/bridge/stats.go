package bridge

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
)

// StatsCounters is the race-free accumulator behind SourceStats: every field
// a concurrent session (or an async prefetch worker) can bump is an atomic,
// so no data-source-wide mutex sits on the query hot path. Snapshot folds the
// counters into the plain SourceStats value the IE-facing API reports.
type StatsCounters struct {
	Queries         atomic.Int64
	CacheHits       atomic.Int64
	PartialHits     atomic.Int64
	ExactHits       atomic.Int64
	Prefetches      atomic.Int64
	PrefetchHits    atomic.Int64
	PrefetchDrops   atomic.Int64
	Generalizations atomic.Int64
	IndexBuilds     atomic.Int64
	LazyAnswers     atomic.Int64
	DegradedHits    atomic.Int64
	// EpochInvalidations counts stale-epoch cache evictions (see
	// SourceStats.EpochInvalidations).
	EpochInvalidations atomic.Int64

	// Dispatch outcomes (see SourceStats for the conservation invariant).
	Canceled         atomic.Int64
	DeadlineExceeded atomic.Int64
	Completed        atomic.Int64
	Failed           atomic.Int64
	PanicsRecovered  atomic.Int64

	localSimBits    atomic.Uint64 // float64 bits
	responseSimBits atomic.Uint64 // float64 bits
}

// addFloat atomically adds d to a float64 stored as bits.
func addFloat(a *atomic.Uint64, d float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// AddLocalSimMS accounts simulated CMS-local processing time.
func (c *StatsCounters) AddLocalSimMS(d float64) { addFloat(&c.localSimBits, d) }

// AddResponseSimMS accounts simulated session response time.
func (c *StatsCounters) AddResponseSimMS(d float64) { addFloat(&c.responseSimBits, d) }

// Snapshot returns the counters as a SourceStats value. Fields the counters
// do not own (remote transfer, evictions, resilience) are left zero for the
// caller to fill.
func (c *StatsCounters) Snapshot() SourceStats {
	return SourceStats{
		Queries:            c.Queries.Load(),
		CacheHits:          c.CacheHits.Load(),
		PartialHits:        c.PartialHits.Load(),
		ExactHits:          c.ExactHits.Load(),
		Prefetches:         c.Prefetches.Load(),
		PrefetchHits:       c.PrefetchHits.Load(),
		PrefetchDrops:      c.PrefetchDrops.Load(),
		Generalizations:    c.Generalizations.Load(),
		IndexBuilds:        c.IndexBuilds.Load(),
		LazyAnswers:        c.LazyAnswers.Load(),
		DegradedHits:       c.DegradedHits.Load(),
		EpochInvalidations: c.EpochInvalidations.Load(),

		Canceled:         c.Canceled.Load(),
		DeadlineExceeded: c.DeadlineExceeded.Load(),
		Completed:        c.Completed.Load(),
		Failed:           c.Failed.Load(),
		PanicsRecovered:  c.PanicsRecovered.Load(),

		LocalSimMS:    math.Float64frombits(c.localSimBits.Load()),
		ResponseSimMS: math.Float64frombits(c.responseSimBits.Load()),
	}
}

// ClassifyOutcome bumps the dispatch-outcome counter matching err: nil →
// Completed, deadline → DeadlineExceeded, cancellation → Canceled, anything
// else → Failed. Call exactly once per issued query.
func (c *StatsCounters) ClassifyOutcome(err error) {
	switch {
	case err == nil:
		c.Completed.Add(1)
	case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		c.DeadlineExceeded.Add(1)
	case errors.Is(err, ErrCanceled) || errors.Is(err, context.Canceled):
		c.Canceled.Add(1)
	default:
		c.Failed.Add(1)
	}
}
