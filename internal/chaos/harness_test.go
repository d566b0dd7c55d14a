// Package chaos is a soak harness for the concurrent CMS under adversarial
// conditions: many sessions replay an advice-driven workload while the remote
// client injects transport errors, hangs, latency spikes, and panics, and the
// callers themselves cancel queries at random and impose deadline storms.
//
// The harness does not measure speed: it asserts *invariants* that must
// survive any fault interleaving:
//
//   - stats conservation: every issued query resolves to exactly one outcome
//     (Completed, Canceled, DeadlineExceeded, or Failed);
//   - typed errors: any cancellation-related failure carries the bridge
//     sentinel (ErrCanceled / ErrDeadlineExceeded), never a bare context
//     error with no classification;
//   - shard-lock health: after the storm, a fresh session can still query the
//     CMS (no lock left held by a canceled or panicked query);
//   - no goroutine leaks (asserted by the test around runSoak).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// soakConfig parameterizes one soak run. The zero value is not runnable; use
// defaultSoakConfig and override.
type soakConfig struct {
	// Sessions is the number of concurrent sessions replaying the workload.
	Sessions int
	// QueriesPerSession is how many queries each session issues per round
	// (the shared sequence is cycled).
	QueriesPerSession int
	// Seed seeds every deterministic stream (per-session rngs, fault stream).
	Seed int64
	// Faults is the injected fault mix at the remote client.
	Faults remotedb.FaultConfig
	// CancelRate is the per-query probability that the caller cancels the
	// query's context from a racing goroutine mid-flight.
	CancelRate float64
	// DeadlineRate is the per-query probability of running under Deadline
	// (a "deadline storm" when high).
	DeadlineRate float64
	// Deadline is the tight per-query deadline for deadline-storm queries.
	Deadline time.Duration
	// Options configures the CMS under test. Costs defaults to
	// remotedb.DefaultCosts().
	Options cache.Options
}

// defaultSoakConfig is a storm that exercises every recovery path: transport
// errors, hangs longer than the deadline, panics, random caller cancels, and
// concurrent sessions sharing one CMS.
func defaultSoakConfig() soakConfig {
	return soakConfig{
		Sessions:          8,
		QueriesPerSession: 80,
		Seed:              1,
		Faults: remotedb.FaultConfig{
			Seed:        1,
			ErrorRate:   0.05,
			DropRate:    0.02,
			HangRate:    0.05,
			HangFor:     2 * time.Millisecond,
			LatencyRate: 0.10,
			Latency:     500 * time.Microsecond,
			PanicRate:   0.02,
		},
		CancelRate:   0.10,
		DeadlineRate: 0.15,
		Deadline:     300 * time.Microsecond,
		Options:      cache.Options{Features: cache.AllFeatures()},
	}
}

// soakResult summarizes one soak run.
type soakResult struct {
	Elapsed    time.Duration
	Stats      bridge.SourceStats
	Faults     remotedb.FaultCounts
	Resilience remotedb.ResilienceStats
	// UntypedErrors are cancellation-related errors that failed to carry a
	// bridge sentinel — each one is an invariant violation.
	UntypedErrors []string
	// Drained is the total number of tuples pulled from answer streams.
	Drained int64
	// rounds is how many rounds of sessions the storm took to fire every
	// fault class (at most maxRounds).
	rounds int
}

// maxRounds caps the rounds runSoak replays the session sequence for. A round is
// Sessions sessions of QueriesPerSession queries each, over an emptied
// cache; runSoak starts another while some fault class the soak must exercise
// (transport error or drop, panic) or some non-completed outcome (canceled,
// deadline exceeded, failed) has not shown, since how many queries reach the
// remote, and which land inside a deadline or a cancel, depends on how the
// host schedules the sessions. A cancel or a deadline lands only while its
// query is still dispatching, and most cache hits finish before either, so a
// reduced soak may need several rounds to see both.
const maxRounds = 24

// fired reports whether every fault class the soak must exercise has fired
// and every non-completed outcome has been reached.
func fired(f remotedb.FaultCounts, s bridge.SourceStats) bool {
	return f.Errors+f.Drops > 0 && f.Panics > 0 && s.Canceled > 0 && s.DeadlineExceeded > 0 && s.Failed > 0
}

// chaosAdvice is the Example 1 advice shape over the chain workload — the
// same session shape as E10, so prefetch, generalization, subsumption,
// and lazy generators all participate in the storm.
const chaosAdvice = `
	view d1(Y^) :- b1("c1", Y) [r1].
	view d2(X^, Y?) :- b2(X, Z) & b3(Z, "c2", Y) [r2].
	view d3(X^, Y?) :- b3(X, "c3", Z) & b1(Z, Y) [r3].
	path (d1(Y^), (d2(X^, Y?), d3(X^, Y?))<0,|Y|>)<1,1>.
`

// chaosSequence is the per-session query list: the E10 ablation shape (d1,
// instance pairs, an exact repeat, decomposable joins) so every CMS technique
// is in flight when faults land.
func chaosSequence() []*caql.Query {
	qs := []*caql.Query{caql.MustParse(`d1(Y) :- b1("c1", Y)`)}
	d2t := caql.MustParse(`d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y)`)
	d3t := caql.MustParse(`d3(X, Y) :- b3(X, "c3", Z) & b1(Z, Y)`)
	for c := 0; c < 6; c++ {
		bind := map[string]relation.Value{"Y": relation.Int(int64(c))}
		qs = append(qs, d2t.Instantiate(bind), d3t.Instantiate(bind))
	}
	qs = append(qs,
		caql.MustParse(`d1(Y) :- b1("c1", Y)`),
		caql.MustParse(`j1(X, W) :- b2(X, Z) & b3(Z, "c2", W) & W != 1`),
		caql.MustParse(`j2(X, W) :- b2(X, Z) & b3(Z, "c2", W) & W != 2`))
	return qs
}

// runSoak executes one soak and checks the post-quiescence invariants, returning
// a non-nil error on any violation. Goroutine accounting is left to the
// caller (it needs before/after snapshots around this call).
func runSoak(cfg soakConfig) (soakResult, error) {
	w := workload.Chain(53, 400, 24)
	costs := cfg.Options.Costs
	if costs == (remotedb.Costs{}) {
		costs = remotedb.DefaultCosts()
		cfg.Options.Costs = costs
	}
	fault := remotedb.NewFaultClient(remotedb.NewInProcClient(w.Engine(), costs), cfg.Faults)
	// The resilient layer sits where a real deployment puts it: retries and
	// the breaker absorb injected transport errors, while caller cancellation
	// must pass through without tripping the breaker.
	resilient := remotedb.NewResilientClient(fault, remotedb.Resilience{
		JitterSeed: cfg.Seed,
		Sleep:      func(time.Duration) {}, // no real backoff in the soak
	})
	cms := cache.New(resilient, cfg.Options)

	seq := chaosSequence()
	var (
		res     soakResult
		mu      sync.Mutex // guards res.UntypedErrors, res.Drained
		wg      sync.WaitGroup
		started = time.Now()
	)
	noteUntyped := func(stage string, err error) {
		mu.Lock()
		defer mu.Unlock()
		if len(res.UntypedErrors) < 16 { // cap the report, not the check
			res.UntypedErrors = append(res.UntypedErrors, fmt.Sprintf("%s: %v", stage, err))
		} else {
			res.UntypedErrors = append(res.UntypedErrors[:16], "...")
		}
	}
	session := func(sid int, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + int64(sid)*7919))
		s := cms.BeginSession(advice.MustParse(chaosAdvice)).(*cache.Session)
		defer s.End()
		for n := 0; n < cfg.QueriesPerSession; n++ {
			q := seq[n%len(seq)]
			base, cancel := context.WithCancel(context.Background())
			ctx, cleanup := base, context.CancelFunc(func() {})
			if rng.Float64() < cfg.DeadlineRate {
				ctx, cleanup = context.WithTimeout(base, cfg.Deadline)
			}
			var racer sync.WaitGroup
			if rng.Float64() < cfg.CancelRate {
				delay := time.Duration(rng.Intn(400)) * time.Microsecond
				racer.Add(1)
				go func() {
					defer racer.Done()
					time.Sleep(delay)
					cancel()
				}()
			}
			stream, err := s.QueryCtx(ctx, q)
			if err != nil {
				if untypedCtxErr(err) {
					noteUntyped("dispatch", err)
				}
			} else {
				rows, derr := stream.DrainErr("out")
				mu.Lock()
				res.Drained += int64(rows.Len())
				mu.Unlock()
				if derr != nil && untypedCtxErr(derr) {
					noteUntyped("drain", derr)
				}
			}
			racer.Wait()
			cleanup()
			cancel()
		}
	}
	for ; res.rounds < maxRounds && (res.rounds == 0 || !fired(fault.Counts(), cms.Stats())); res.rounds++ {
		// Each round starts cold, so its queries reach the faulty remote again
		// instead of answering from what the previous round cached.
		for _, el := range cms.Manager().Elements() {
			cms.Manager().Remove(el)
		}
		wg.Add(cfg.Sessions)
		for i := 0; i < cfg.Sessions; i++ {
			go session(i, cfg.Seed+int64(res.rounds)*104729)
		}
		wg.Wait()
	}
	res.Elapsed = time.Since(started)
	res.Stats = cms.Stats()
	res.Faults = fault.Counts()
	res.Resilience = resilient.ResilienceStats()

	if len(res.UntypedErrors) > 0 {
		return res, fmt.Errorf("chaos: %d cancellation errors without a bridge sentinel, e.g. %s",
			len(res.UntypedErrors), res.UntypedErrors[0])
	}
	if !res.Stats.DispatchConserved() {
		return res, fmt.Errorf("chaos: stats conservation violated: Queries=%d != Completed=%d + Canceled=%d + DeadlineExceeded=%d + Failed=%d",
			res.Stats.Queries, res.Stats.Completed, res.Stats.Canceled,
			res.Stats.DeadlineExceeded, res.Stats.Failed)
	}
	// Every injected panic fires on a goroutine whose recover counts it: the
	// query's own, a prefetch worker's, or the decomposition helper's, which
	// relays it to the query's.
	if res.Stats.PanicsRecovered != res.Faults.Panics {
		return res, fmt.Errorf("chaos: %d panics injected but %d recovered by the CMS",
			res.Faults.Panics, res.Stats.PanicsRecovered)
	}
	// Shard-lock health: a canceled or panicked query must never leave a
	// cache shard locked. A fresh session probing every relation would hang
	// here if one did.
	if err := probe(cms); err != nil {
		return res, fmt.Errorf("chaos: post-storm probe failed (shard lock or session registry unhealthy): %w", err)
	}
	return res, nil
}

// probe runs a plain query on a fresh session with a generous deadline and
// fails unless some attempt drains without error. The remote still injects
// faults, so a failed attempt is retried while the deadline allows; a wedged
// CMS (a shard lock left held) or one that fails every query (a poisoned
// session registry) never gets a clean answer, and
// the probe reports the last error an attempt got before the deadline.
func probe(cms *cache.CMS) error {
	s := cms.BeginSession(advice.MustParse(chaosAdvice)).(*cache.Session)
	defer s.End()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	q := caql.MustParse(`d1(Y) :- b1("c1", Y)`)
	var last error
	for {
		stream, err := s.QueryCtx(ctx, q)
		if err == nil {
			_, err = stream.DrainErr("out")
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			if last != nil {
				return fmt.Errorf("no clean answer within the deadline: %w", last)
			}
			return err
		}
		last = err
		time.Sleep(time.Millisecond)
	}
}

// untypedCtxErr reports whether err is cancellation-related but carries no
// bridge sentinel — the failure mode the typed-error plumbing must prevent.
func untypedCtxErr(err error) bool {
	ctxish := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	typed := errors.Is(err, bridge.ErrCanceled) || errors.Is(err, bridge.ErrDeadlineExceeded)
	return ctxish && !typed
}
