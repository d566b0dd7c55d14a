package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/remotedb"
)

// E15 measures mid-stream failure recovery: what resumable v2 streams buy a
// consumer when connections die while results are in flight.
//
// A client drains a streamed scan repeatedly against servers whose listeners
// sever streamed-result connections at increasing rates (ListenerFaults
// StreamKillRate), in two arms: resume ON (the ResilientStream wrapper
// re-dispatches with the header's resume token) and resume OFF (the pre-token
// behavior — a mid-stream death surfaces to the consumer). Per arm it records
// the completion rate, the first-tuple and full-drain latency percentiles of
// completed streams, and how many repairs the client performed. Every
// completed stream is integrity-checked against the expected cardinality:
// resume must never trade correctness for availability.

// E15Arm is one (kill rate, resume on/off) configuration.
type E15Arm struct {
	KillRate      float64
	Resume        bool
	Streams       int64
	Completed     int64
	CompletionPct float64
	Resumes       int64 // client-side mid-stream repairs
	ServerKills   int64 // listener-side severed connections
	FirstP50US    int64
	FirstP99US    int64
	DrainP50US    int64
	DrainP99US    int64
}

// E15Data is the result of one run.
type E15Data struct {
	ScanRows    int
	FrameTuples int
	Arms        []E15Arm
	// ResumeCompletionPct / NoResumeCompletionPct compare the two arms at the
	// highest kill rate — the headline: resume keeps completion at 100% where
	// the control arm collapses.
	ResumeCompletionPct   float64
	NoResumeCompletionPct float64
}

const e15FrameTuples = 64

// e15Pct returns the p-th percentile of a sorted-in-place sample (0 when
// empty: an arm may complete nothing).
func e15Pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[int(p*float64(len(ds)-1))]
}

// e15MeasureArm drains `streams` sequential scans against a listener killing
// at killRate, with resume on or off.
func e15MeasureArm(scanRows, streams int, killRate float64, resume bool) (E15Arm, error) {
	arm := E15Arm{KillRate: killRate, Resume: resume}
	eng := remotedb.NewEngine()
	eng.LoadTable(e14ScanTable(scanRows))
	srv := remotedb.NewServerWithOptions(eng, remotedb.ServerOptions{
		FrameTuples: e15FrameTuples,
		Faults: &remotedb.ListenerFaults{
			Seed:            15,
			StreamKillRate:  killRate,
			StreamKillAfter: 2,
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return arm, err
	}
	defer srv.Close()

	p, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:        2,
		FrameTuples: e15FrameTuples,
		Costs:       remotedb.DefaultCosts(),
	})
	if err != nil {
		return arm, err
	}
	// Same stance as the chaos storm: the breaker is for a remote that is
	// DOWN, and would otherwise fast-fail the resumes this experiment exists
	// to measure; retries bound consecutive zero-progress lives.
	rc := remotedb.NewResilientClient(p, remotedb.Resilience{
		JitterSeed:          15,
		MaxRetries:          50,
		BreakerFailures:     -1,
		BaseBackoff:         200 * time.Microsecond,
		MaxBackoff:          2 * time.Millisecond,
		DisableStreamResume: !resume,
	})
	defer rc.Close()

	var firsts, drains []time.Duration
	for i := 0; i < streams; i++ {
		arm.Streams++
		t0 := time.Now()
		st, err := rc.ExecStream(context.Background(), e14Scan)
		if err != nil {
			continue // failed stream: counted by Streams-Completed
		}
		var n int64
		var first time.Duration
		for {
			_, ok := st.Next()
			if !ok {
				break
			}
			if n == 0 {
				first = time.Since(t0)
			}
			n++
		}
		if st.Err() != nil {
			continue
		}
		if n != int64(scanRows) {
			return arm, fmt.Errorf("E15 integrity: completed stream delivered %d of %d tuples (killRate=%.2f resume=%v)",
				n, scanRows, killRate, resume)
		}
		arm.Completed++
		firsts = append(firsts, first)
		drains = append(drains, time.Since(t0))
	}
	if arm.Streams > 0 {
		arm.CompletionPct = 100 * float64(arm.Completed) / float64(arm.Streams)
	}
	arm.Resumes = rc.ResilienceStats().StreamResumes
	arm.ServerKills = srv.ServerStats().StreamKills
	arm.FirstP50US = e15Pct(firsts, 0.50).Microseconds()
	arm.FirstP99US = e15Pct(firsts, 0.99).Microseconds()
	arm.DrainP50US = e15Pct(drains, 0.50).Microseconds()
	arm.DrainP99US = e15Pct(drains, 0.99).Microseconds()
	return arm, nil
}

// RunE15 measures every (kill rate x resume) arm at the given scale.
func RunE15(scanRows, streams int) (*E15Data, error) {
	data := &E15Data{
		ScanRows:    scanRows,
		FrameTuples: e15FrameTuples,
	}
	for _, rate := range []float64{0.0, 0.5, 1.0} {
		for _, resume := range []bool{true, false} {
			if rate == 0 && !resume {
				continue // identical to (0, resume=on): nothing to repair
			}
			arm, err := e15MeasureArm(scanRows, streams, rate, resume)
			if err != nil {
				return nil, err
			}
			data.Arms = append(data.Arms, arm)
			if rate == 1.0 {
				if resume {
					data.ResumeCompletionPct = arm.CompletionPct
				} else {
					data.NoResumeCompletionPct = arm.CompletionPct
				}
			}
		}
	}
	return data, nil
}

// E15Render formats the measurement as the experiment table.
func E15Render(d *E15Data) *Table {
	t := &Table{
		ID:     "E15",
		Title:  "mid-stream failure recovery: resumable streams under connection kills",
		Claim:  "resume tokens let streamed results survive mid-stream connection deaths: completion stays at 100% at kill rates that collapse the non-resuming client, with no duplicated or lost tuples",
		Header: []string{"killRate", "resume", "completed", "resumes", "srvKills", "first p50(us)", "first p99(us)", "drain p50(us)", "drain p99(us)"},
	}
	for _, a := range d.Arms {
		t.AddRow(
			fmt.Sprintf("%.1f", a.KillRate), onOff(a.Resume),
			fmt.Sprintf("%d/%d (%.0f%%)", a.Completed, a.Streams, a.CompletionPct),
			fi(a.Resumes), fi(a.ServerKills),
			fi(a.FirstP50US), fi(a.FirstP99US), fi(a.DrainP50US), fi(a.DrainP99US))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("scan is %d tuples in %d-tuple frames; kills sever the connection two frames in, so an unrepaired death loses ~97%% of the result", d.ScanRows, d.FrameTuples),
		fmt.Sprintf("completion at kill rate 1.0: resume on %.0f%% vs off %.0f%% (acceptance: on = 100%%, off < 100%%)", d.ResumeCompletionPct, d.NoResumeCompletionPct),
		"every completed stream is integrity-checked against the expected cardinality; percentiles are over completed streams only")
	return t
}

// E15StreamRecovery runs the experiment at default scale: a 4k-tuple scan is
// ~63 frames at frame size 64, so a kill-after-2-frames fault leaves ~97% of
// the result undelivered — a failure resume must repair dozens of times per
// stream at kill rate 1.
func E15StreamRecovery() *Table {
	d, err := RunE15(4000, 30)
	if err != nil {
		return failed("E15", err)
	}
	return E15Render(d)
}
