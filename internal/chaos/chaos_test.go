package chaos

import (
	"flag"
	"runtime"
	"testing"
	"time"
)

// -chaos.short shrinks the soak for CI smoke jobs (also implied by -short).
var chaosShort = flag.Bool("chaos.short", false, "run a reduced chaos soak (CI smoke)")

// TestChaosSoak storms a shared CMS with faulty remotes, caller cancels, and
// deadline storms, then asserts the robustness invariants: conservation,
// typed errors, shard health (inside runSoak), and no goroutine leaks (here).
func TestChaosSoak(t *testing.T) {
	cfg := defaultSoakConfig()
	if *chaosShort || testing.Short() {
		cfg.Sessions = 4
		cfg.QueriesPerSession = 30
		// Fewer queries sample the fault stream less, so raise the rates to
		// keep every recovery path exercised in the reduced soak.
		cfg.Faults.ErrorRate = 0.10
		cfg.Faults.PanicRate = 0.06
		cfg.CancelRate = 0.20
		cfg.DeadlineRate = 0.25
	}
	before := runtime.NumGoroutine()

	res, err := runSoak(cfg)
	if err != nil {
		t.Fatalf("soak invariant violated: %v\nstats: %+v", err, res.Stats)
	}
	// Stats are snapshotted at quiescence, before the health probe runs.
	wantQueries := int64(res.rounds * cfg.Sessions * cfg.QueriesPerSession)
	if res.rounds < 1 || res.Stats.Queries != wantQueries {
		t.Fatalf("issued %d queries in %d rounds, want %d", res.Stats.Queries, res.rounds, wantQueries)
	}
	// The storm must actually have exercised the paths it claims to cover:
	// runSoak replays rounds until it has, up to maxRounds.
	if res.Faults.Errors+res.Faults.Drops == 0 {
		t.Error("no transport faults were injected; storm too weak")
	}
	if res.Faults.Panics == 0 {
		t.Error("no panics were injected; storm too weak")
	}
	if res.Stats.Canceled == 0 || res.Stats.DeadlineExceeded == 0 || res.Stats.Failed == 0 {
		t.Error("no query was canceled, deadline-exceeded or failed; storm too weak")
	}
	if res.Stats.Completed == 0 {
		t.Error("no query completed; storm too strong to be meaningful")
	}
	t.Logf("soak: %d queries in %d rounds, %v: completed=%d canceled=%d deadline=%d failed=%d panics-recovered=%d drained=%d tuples",
		res.Stats.Queries, res.rounds, res.Elapsed.Round(time.Millisecond),
		res.Stats.Completed, res.Stats.Canceled, res.Stats.DeadlineExceeded,
		res.Stats.Failed, res.Stats.PanicsRecovered, res.Drained)

	// Goroutine accounting: sessions were Ended and prefetch workers joined,
	// so the count must settle back to the baseline (small slack for runtime
	// background goroutines; retries let abandoned timers unwind).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before soak, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosDeterministicOutcomes checks that the soak is reproducible enough
// to debug: the same seed yields the same run. Concurrent sessions, caller
// cancels and deadlines make which call draws which fault a race, so they are
// excluded here; what remains (one session against the seeded fault stream)
// must reproduce its rounds, fault tallies and outcome counts exactly.
func TestChaosDeterministicOutcomes(t *testing.T) {
	cfg := defaultSoakConfig()
	cfg.Sessions = 1
	cfg.QueriesPerSession = 20
	cfg.CancelRate = 0
	cfg.DeadlineRate = 0
	a, err := runSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.rounds != b.rounds || a.Faults != b.Faults {
		t.Fatalf("fault streams diverged: %d rounds %+v vs %d rounds %+v", a.rounds, a.Faults, b.rounds, b.Faults)
	}
	if a.Stats != b.Stats {
		t.Fatalf("outcomes diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestChaosAskStorm storms one engine's asks with caller cancels and
// deadlines over a faulty remote: every ask fails visibly with a typed error
// or answers in full, the dispatch books balance, and no goroutine outlives
// the storm.
func TestChaosAskStorm(t *testing.T) {
	cfg := defaultSoakConfig()
	if *chaosShort || testing.Short() {
		cfg.Sessions = 4
		cfg.QueriesPerSession = 12
		cfg.CancelRate = 0.20
		cfg.DeadlineRate = 0.25
	}
	before := runtime.NumGoroutine()
	res, err := runAskStorm(cfg)
	if err != nil {
		t.Fatalf("ask storm invariant violated: %v\n%+v", err, res)
	}
	if res.Completed == 0 || res.Canceled+res.DeadlineExceeded == 0 {
		t.Fatalf("the storm did not exercise both outcomes in %d rounds: %+v", res.rounds, res)
	}
	t.Logf("ask storm: %d asks in %d rounds: completed=%d canceled=%d deadline=%d failed=%d; %d CAQL queries",
		res.Asks, res.rounds, res.Completed, res.Canceled, res.DeadlineExceeded, res.Failed, res.Stats.Queries)
	stormLeakCheck(t, before)
}
