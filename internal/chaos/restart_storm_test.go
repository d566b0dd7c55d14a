package chaos

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain intercepts the restart storm's re-exec: a child invocation (env
// var set) serves a durable engine instead of running the suite.
func TestMain(m *testing.M) {
	if os.Getenv(restartChildEnv) != "" {
		restartChildMain() // never returns
	}
	os.Exit(m.Run())
}

// TestRestartStorm SIGKILLs a real engine subprocess mid-write-burst across
// several crash/recover cycles and asserts the durability contract: every
// acknowledged batch survives, no batch is half-applied, pre-crash resume
// tokens are refused, and the CMS invalidates (never serves) views built
// under a dead epoch.
func TestRestartStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess storm skipped in -short")
	}
	before := runtime.NumGoroutine()
	cfg := defaultRestartStormConfig(t.TempDir())
	if *chaosShort {
		cfg.Rounds = 2
	}
	if *chaosLong {
		cfg.Rounds = 12
		cfg.MaxBurst = 120 * time.Millisecond
	}
	res, err := runRestartStorm(cfg)
	if err != nil {
		t.Fatalf("restart storm invariants violated: %v\n%+v", err, res)
	}
	if res.Replayed == 0 {
		t.Fatalf("no recovery ever replayed a record: %+v", res)
	}
	t.Logf("restart storm: %d kills, %d acked batches (%d rows), %d replayed, %d torn tails, %d tokens refused, %d epoch invalidations in %v",
		res.Kills, res.AckedBatches, res.AckedRows, res.Replayed, res.TornTails,
		res.TokensRefused, res.EpochInvalidations, res.Elapsed)
	stormLeakCheck(t, before)
}

// TestRestartStormChildRecoversCleanly is the one-round sanity arm: a single
// kill cycle must recover at least every acknowledged row — a fast failure
// locator when the full storm trips.
func TestRestartStormChildRecoversCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	cfg := defaultRestartStormConfig(t.TempDir())
	cfg.Rounds = 1
	res, err := runRestartStorm(cfg)
	if err != nil {
		t.Fatalf("single-round storm: %v\n%+v", err, res)
	}
	if res.RecoveredRows < res.AckedRows {
		t.Fatalf("final table holds %d rows, fewer than the %d acked", res.RecoveredRows, res.AckedRows)
	}
}
