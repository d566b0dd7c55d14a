package chaos

import (
	"flag"
	"runtime"
	"testing"
	"time"
)

// -chaos.long scales the storm up for the scheduled nightly soak (several
// minutes of kill storms); the default sizing is the per-PR smoke test.
var chaosLong = flag.Bool("chaos.long", false, "run the extended nightly stream-kill soak")

func stormLeakCheck(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+3 {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+3 {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak after storm: before=%d now=%d\n%s", before, now, buf[:n])
	}
}

// TestStreamKillStorm: concurrent consumers against a listener that severs
// almost every streamed result mid-flight. Every stream must be resumed to
// completion, every completed delivery must be byte-identical to the
// uninterrupted one, the CMS dispatch books must balance, and no goroutines
// may leak.
func TestStreamKillStorm(t *testing.T) {
	if *chaosShort {
		t.Skip("-chaos.short")
	}
	before := runtime.NumGoroutine()
	cfg := defaultStormConfig()
	if *chaosLong {
		cfg.Workers = 12
		cfg.StreamsPerWorker = 120
		cfg.Rows = 400
		cfg.Sessions = 8
		cfg.QueriesPerSession = 150
		cfg.KillRate = 1.0
		cfg.ParallelStreams = 400
		// 6× the workers per client means 6× the collateral stream deaths
		// per connection kill: spread the load over more connections and
		// give the no-progress bound the same headroom.
		cfg.PoolSize = 6
		cfg.MaxRetries = 400
	}
	res, err := runStorm(cfg)
	if err != nil {
		t.Fatalf("storm invariants violated: %v\n%+v", err, res)
	}
	if res.ServerKills == 0 {
		t.Fatalf("storm never killed a stream: %+v", res)
	}
	if res.Completed != res.Streams {
		t.Fatalf("only %d/%d streams completed despite resume", res.Completed, res.Streams)
	}
	// The parallel leg must have exercised the worker pool for real: the
	// engine's own counter says how many executions ran on it (warmup plus
	// every wire stream that got far enough to open a plan).
	if res.ParEngineRuns == 0 {
		t.Fatalf("parallel leg never ran on the morsel worker pool: %+v", res)
	}
	t.Logf("storm: %d streams, %d client resumes, %d server kills in %v; parallel leg %d streams (%d completed, %d killed, %d pool executions)",
		res.Streams, res.Resumes, res.ServerKills, res.Elapsed,
		res.ParStreams, res.ParCompleted, res.ParFailed, res.ParEngineRuns)
	stormLeakCheck(t, before)
}

// TestStreamKillStormDeterministic: same config, same seed — same outcome
// counts. The storm is a reproducer, not a flake generator.
func TestStreamKillStormDeterministic(t *testing.T) {
	if *chaosShort {
		t.Skip("-chaos.short")
	}
	cfg := defaultStormConfig()
	cfg.Sessions = 0 // raw leg only: the CMS leg's timing is not part of the claim
	a, err := runStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Streams != b.Streams || a.Completed != b.Completed || a.Failed != b.Failed || a.Mismatched != b.Mismatched {
		t.Fatalf("same seed, different outcome books:\n%+v\n%+v", a, b)
	}
	if a.ParStreams != b.ParStreams || a.ParCompleted != b.ParCompleted || a.ParFailed != b.ParFailed {
		t.Fatalf("same seed, different parallel-leg books:\n%+v\n%+v", a, b)
	}
}
