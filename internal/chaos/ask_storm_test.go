package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// askResult summarizes one ask storm: how its asks ended, and the CMS's
// books after it.
type askResult struct {
	Asks, Completed, Canceled, DeadlineExceeded, Failed int64
	Stats                                               bridge.SourceStats
	Faults                                              remotedb.FaultCounts
	rounds                                              int
}

// askForms are the storm's questions, asked of people p001 to p008.
var askForms = []string{
	"uncle(X, %s)?", "cousin(%s, Y)?", "anc(%s, Y)?", "grandfather(X, %s)?",
	"brother(X, %s)?", "sibling(%s, Y)?", "grandparent(%s, Y)?",
}

// runAskStorm is the soak's ask-level leg: cfg.Sessions goroutines share one
// engine over one CMS and ask cfg.QueriesPerSession kinship questions each,
// over the faulty remote of runSoak. An ask runs under a deadline of
// cfg.Deadline at cfg.DeadlineRate, is canceled from a racing goroutine at
// cfg.CancelRate, and a quarter of the rest are closed after their first
// answer. The remote injects cfg.Faults but no panics: compiling a goal
// shape reads catalog statistics outside any query, where the CMS isolates
// nothing (runSoak covers panics on the query path). Every ask either fails
// visibly or answers what a fault-free engine answers: an ask whose context
// ended reports the bridge's typed error, and one that ends without error has
// the whole answer set. After the storm the dispatch books balance and the
// engine still answers.
func runAskStorm(cfg soakConfig) (askResult, error) {
	w := workload.Kinship(cfg.Seed, 40)
	costs := cfg.Options.Costs
	if costs == (remotedb.Costs{}) {
		costs = remotedb.DefaultCosts()
		cfg.Options.Costs = costs
	}
	var goals []string
	for p := 1; p <= 8; p++ {
		for _, f := range askForms {
			goals = append(goals, fmt.Sprintf(f, fmt.Sprintf("p%03d", p)))
		}
	}
	ref := ie.New(w.KB, cache.New(remotedb.NewInProcClient(w.Engine(), costs), cache.Options{Features: cache.AllFeatures(), Costs: costs}), ie.DefaultOptions())
	want := make(map[string]string, len(goals))
	for _, g := range goals {
		sol, err := ref.AskText(g)
		if err != nil {
			return askResult{}, err
		}
		if want[g] = answerKey(sol.Vars(), sol.All()); sol.Err() != nil {
			return askResult{}, sol.Err()
		}
	}

	faults := cfg.Faults
	faults.PanicRate = 0
	fault := remotedb.NewFaultClient(remotedb.NewInProcClient(w.Engine(), costs), faults)
	resilient := remotedb.NewResilientClient(fault, remotedb.Resilience{
		JitterSeed: cfg.Seed,
		Sleep:      func(time.Duration) {},
	})
	cms := cache.New(resilient, cfg.Options)
	eng := ie.New(w.KB, cms, ie.DefaultOptions())

	var (
		res        askResult
		mu         sync.Mutex // guards res's counts and violations
		violations []string
		wg         sync.WaitGroup
	)
	fail := func(format string, a ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(violations) < 16 {
			violations = append(violations, fmt.Sprintf(format, a...))
		}
	}
	asker := func(k int, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + int64(k)*7919))
		for n := 0; n < cfg.QueriesPerSession; n++ {
			goal := goals[rng.Intn(len(goals))]
			ctx, cancel := context.WithCancel(context.Background())
			if rng.Float64() < cfg.DeadlineRate {
				ctx, cancel = context.WithTimeout(context.Background(), cfg.Deadline)
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
			early := rng.Intn(4) == 0
			sol, err := eng.AskCtx(ctx, mustAtom(goal))
			if err != nil {
				mu.Lock()
				res.Asks++
				res.Failed++ // a catalog read the shape's compile made failed
				mu.Unlock()
			} else {
				var subs []logic.Subst
				if early {
					if sub, ok := sol.Next(); ok {
						subs = append(subs, sub)
					}
					sol.Close()
				} else {
					subs = sol.All()
				}
				err = sol.Err()
				mu.Lock()
				res.Asks++
				switch {
				case err == nil:
					res.Completed++
				case errors.Is(err, bridge.ErrCanceled):
					res.Canceled++
				case errors.Is(err, bridge.ErrDeadlineExceeded):
					res.DeadlineExceeded++
				default:
					res.Failed++
				}
				mu.Unlock()
				switch {
				case untypedCtxErr(err):
					fail("%s: untyped cancellation: %v", goal, err)
				case err == nil && !early && answerKey(sol.Vars(), subs) != want[goal]:
					fail("%s: %d answers without an error, not the fault-free ones", goal, len(subs))
				}
			}
			racer.Wait()
			cancel()
		}
	}
	for ; res.rounds < maxRounds && (res.rounds == 0 || res.Completed == 0 || res.Canceled+res.DeadlineExceeded == 0); res.rounds++ {
		for _, el := range cms.Manager().Elements() {
			cms.Manager().Remove(el)
		}
		wg.Add(cfg.Sessions)
		for k := 0; k < cfg.Sessions; k++ {
			go asker(k, cfg.Seed+int64(res.rounds)*104729)
		}
		wg.Wait()
	}
	res.Stats = cms.Stats()
	res.Faults = fault.Counts()

	if len(violations) > 0 {
		return res, fmt.Errorf("chaos: %d ask violations, e.g. %s", len(violations), violations[0])
	}
	if !res.Stats.DispatchConserved() {
		return res, fmt.Errorf("chaos: ask storm broke stats conservation: %+v", res.Stats)
	}
	if err := askProbe(eng, goals[0]); err != nil {
		return res, fmt.Errorf("chaos: post-storm ask failed: %w", err)
	}
	return res, nil
}

// askProbe asks goal until an ask ends without error, within a generous
// deadline: the remote still injects faults, so a failed ask is retried.
func askProbe(eng *ie.Engine, goal string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		sol, err := eng.AskCtx(ctx, mustAtom(goal))
		if err == nil {
			sol.All()
			err = sol.Err()
		}
		if err == nil || ctx.Err() != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// mustAtom parses one of the storm's goals.
func mustAtom(src string) logic.Atom {
	a, err := logic.ParseAtom(src)
	if err != nil {
		panic(err)
	}
	return a
}

// answerKey renders answers over vars as a sorted list, for comparing sets.
func answerKey(vars []string, subs []logic.Subst) string {
	rows := make([]string, len(subs))
	for i, sub := range subs {
		var b strings.Builder
		for _, v := range vars {
			b.WriteString(sub.Walk(logic.V(v)).String())
			b.WriteByte(' ')
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
