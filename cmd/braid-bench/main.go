// Command braid-bench runs the reproduction's evaluation suite (experiments
// E1–E19, DESIGN.md Section 5) and prints one table per experiment — the
// reproduction's analogue of the paper's deferred performance evaluation.
//
// Usage:
//
//	braid-bench                  # run every experiment
//	braid-bench E2 E5            # run selected experiments
//	braid-bench -list            # list experiments
//	braid-bench -json BENCH_PR10.json  # run E14..E19, emit machine-readable metrics
//	braid-bench -json out.json -baseline BENCH_PR10.json  # diff against a committed baseline
//	braid-bench -cpuprofile cpu.out -memprofile mem.out E12
//	braid-bench -admin 127.0.0.1:9900 E12   # watch /metrics + pprof while it runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

var registry = []struct {
	id    string
	title string
	run   func() *experiments.Table
}{
	{"E1", "inference strategy along the I-C range", experiments.E1ICRange},
	{"E2", "caching strategies on overlapping queries", experiments.E2CachingStrategies},
	{"E3", "lazy vs eager evaluation", experiments.E3LazyVsEager},
	{"E4", "path-expression prefetching", experiments.E4Prefetching},
	{"E5", "query generalization", experiments.E5Generalization},
	{"E6", "attribute indexing", experiments.E6AttributeIndexing},
	{"E7", "advice-modified replacement", experiments.E7Replacement},
	{"E8", "parallel cache/remote subqueries", experiments.E8ParallelSubqueries},
	{"E9", "subsumption overhead", experiments.E9SubsumptionOverhead},
	{"E10", "feature ablation (Figure 2)", experiments.E10FeatureAblation},
	{"E11", "fault tolerance under an unreliable remote", experiments.E11FaultTolerance},
	{"E12", "concurrent multi-session scaling", experiments.E12ConcurrentScaling},
	{"E13", "admission control under overload", experiments.E13AdmissionControl},
	{"E14", "stream transport: first-tuple latency and pooled throughput", experiments.E14StreamTransport},
	{"E15", "mid-stream failure recovery: resumable streams", experiments.E15StreamRecovery},
	{"E16", "cost-based optimizer: pipelined joins, plan cache", experiments.E16PlannerStreaming},
	{"E17", "observability overhead: tracing/metrics on vs off vs sampled", experiments.E17Overhead},
	{"E18", "durability: write throughput by fsync policy; recovery time by log size", experiments.E18Durability},
	{"E19", "morsel-driven parallel execution: speedup vs DOP", experiments.E19ParallelExecution},
}

// benchData is the -json payload: the raw measurements of the wire-transport,
// optimizer, observability, durability, and parallelism experiments
// (BENCH_PR10.json commits one run as baseline; fields it has that this
// struct no longer does are ignored on read).
type benchData struct {
	E14 *experiments.E14Data `json:"e14"`
	E15 *experiments.E15Data `json:"e15"`
	E16 *experiments.E16Data `json:"e16,omitempty"`
	E17 *experiments.E17Data `json:"e17,omitempty"`
	E18 *experiments.E18Data `json:"e18,omitempty"`
	E19 *experiments.E19Data `json:"e19,omitempty"`
}

// diffBaseline compares a fresh run against a committed baseline and returns
// regression messages. Tolerances are deliberately generous — CI machines
// vary a lot — so only a collapse (not noise) fails:
//
//   - E14 speedup/scaling ratios may not drop below 40% of baseline;
//   - E15 resume-on completion is an INVARIANT (must stay at 100%), and the
//     resume-off control must remain strictly worse (else E15 proves nothing);
//   - E16 LIMIT-join ops cut may not drop below 40% of baseline, and the
//     plan-cache hit rate >= 90% is an INVARIANT (both are counts, not
//     timings: they repeat exactly);
//   - E17 sampled-tracing p99 overhead <= 5% is an INVARIANT (with a 3x
//     allowance over a baseline that already exceeded it — overhead this
//     small sits near the scheduler noise floor on shared runners);
//   - E18 recovery correctness (every acked row replayed, exactly once) is an
//     INVARIANT, and fsync=off write throughput may not drop below 40% of
//     baseline (absolute rows/s across policies is machine noise, but the
//     no-sync arm collapsing means the WAL append path itself regressed);
//   - E19 aggregate dop-4 speedup >= 1.8x is an INVARIANT whenever the run
//     used the per-morsel service-time model (StallUS > 0) — stall overlap is
//     machine-independent, so a miss means the worker pool stopped
//     overlapping, not that the runner is slow. The dop-4 first-tuple ratio
//     must stay within max(1.2x, 2x baseline) once a baseline with E19 data
//     exists to calibrate against: the bounded exchange may not trade
//     interactivity for throughput, with headroom for scheduler noise in
//     millisecond-scale medians. Speedup ratios also get the 40% floor.
func diffBaseline(cur, base benchData) []string {
	var regressions []string
	ratio := func(name string, cur, base float64) {
		if base > 0 && cur < 0.4*base {
			regressions = append(regressions,
				fmt.Sprintf("%s collapsed: %.2f vs baseline %.2f (floor 40%%)", name, cur, base))
		}
	}
	if cur.E14 != nil && base.E14 != nil {
		ratio("E14 first-tuple speedup", cur.E14.FirstTupleSpeedup, base.E14.FirstTupleSpeedup)
		ratio("E14 pool-scaling QPS", cur.E14.PoolScalingQPS, base.E14.PoolScalingQPS)
	}
	if cur.E16 != nil && base.E16 != nil {
		ratio("E16 LIMIT-join ops cut", cur.E16.LimitJoinOpsCut, base.E16.LimitJoinOpsCut)
		if cur.E16.PlanCacheHitRate < 0.9 {
			regressions = append(regressions,
				fmt.Sprintf("E16 plan-cache hit rate dropped to %.1f%% (must be >= 90%%)",
					100*cur.E16.PlanCacheHitRate))
		}
	}
	if cur.E17 != nil {
		// The acceptance criterion: metrics + 1%-sampled tracing must stay
		// within 5% of the uninstrumented p99. A baseline that already ran
		// hot raises the bound (3x its value) rather than failing forever.
		bound := 5.0
		if base.E17 != nil && 3*base.E17.SampledOverheadP99Pct > bound {
			bound = 3 * base.E17.SampledOverheadP99Pct
		}
		if cur.E17.SampledOverheadP99Pct > bound {
			regressions = append(regressions,
				fmt.Sprintf("E17 sampled-tracing p99 overhead %.1f%% exceeds %.1f%% (must stay <= 5%% of the uninstrumented arm)",
					cur.E17.SampledOverheadP99Pct, bound))
		}
	}
	if cur.E18 != nil {
		if !cur.E18.RecoveryCorrect {
			regressions = append(regressions,
				"E18 recovery lost or duplicated acknowledged rows (RecoveryCorrect must hold)")
		}
		if base.E18 != nil {
			var curOff, baseOff float64
			for _, a := range cur.E18.Arms {
				if a.Policy == "off" {
					curOff = a.RowsPS
				}
			}
			for _, a := range base.E18.Arms {
				if a.Policy == "off" {
					baseOff = a.RowsPS
				}
			}
			ratio("E18 fsync=off write rows/s", curOff, baseOff)
		}
	}
	if cur.E19 != nil {
		if cur.E19.StallUS > 0 && cur.E19.AggSpeedup4 < 1.8 {
			regressions = append(regressions,
				fmt.Sprintf("E19 agg dop-4 speedup %.2fx under the stall model (must be >= 1.8x)",
					cur.E19.AggSpeedup4))
		}
		if base.E19 != nil {
			bound := 1.2
			if 2*base.E19.FirstTupleRatio > bound {
				bound = 2 * base.E19.FirstTupleRatio
			}
			if cur.E19.FirstTupleRatio > bound {
				regressions = append(regressions,
					fmt.Sprintf("E19 dop-4 first tuple is %.2fx the serial join (bound %.2fx, baseline %.2fx)",
						cur.E19.FirstTupleRatio, bound, base.E19.FirstTupleRatio))
			}
		}
		if base.E19 != nil {
			ratio("E19 agg dop-4 speedup", cur.E19.AggSpeedup4, base.E19.AggSpeedup4)
			ratio("E19 scan dop-4 speedup", cur.E19.ScanSpeedup4, base.E19.ScanSpeedup4)
			ratio("E19 join dop-4 speedup", cur.E19.JoinSpeedup4, base.E19.JoinSpeedup4)
		}
		if cur.E19.ParStreams == 0 {
			regressions = append(regressions,
				"E19 ran zero parallel streams — the morsel pool never engaged")
		}
	}
	if cur.E15 != nil && base.E15 != nil {
		if cur.E15.ResumeCompletionPct < 100 {
			regressions = append(regressions,
				fmt.Sprintf("E15 resume-on completion dropped to %.0f%% (must be 100%%)", cur.E15.ResumeCompletionPct))
		}
		if cur.E15.NoResumeCompletionPct >= cur.E15.ResumeCompletionPct {
			regressions = append(regressions,
				fmt.Sprintf("E15 control arm completed %.0f%% >= resume arm %.0f%% — the kill storm is not biting",
					cur.E15.NoResumeCompletionPct, cur.E15.ResumeCompletionPct))
		}
	}
	return regressions
}

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	jsonOut := flag.String("json", "", "run E14..E19 and write their machine-readable metrics (QPS, p50/p99, first-tuple latency, completion rates, plan-cache hit rate, instrumentation overhead, durability cost, parallel speedup) to this file")
	adminAddr := flag.String("admin", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address while the suite runs (empty: disabled)")
	baseline := flag.String("baseline", "", "with -json: diff the fresh run against this committed baseline and exit nonzero on a regression")
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}

	// -admin exposes the Go runtime gauges and the pprof handlers while the
	// suite runs; experiment CMS instances wire their own registries (E17), so
	// this one carries process-level metrics only.
	if *adminAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntime(reg)
		srv, err := obs.ServeAdmin(*adminAddr, reg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -admin: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "braid-bench: admin endpoints on http://%s\n", srv.Addr())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	ran := 0

	// -json runs E14..E19 exactly once, printing their tables and persisting
	// the raw measurements; the registry loop below skips them.
	if *jsonOut != "" {
		e14, err := experiments.RunE14Bench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: E14: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.E14Render(e14).String())
		e15, err := experiments.RunE15Bench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: E15: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.E15Render(e15).String())
		e16, err := experiments.RunE16Bench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: E16: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.E16Render(e16).String())
		e17, err := experiments.RunE17Bench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: E17: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.E17Render(e17).String())
		e18, err := experiments.RunE18Bench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: E18: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.E18Render(e18).String())
		e19, err := experiments.RunE19Bench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: E19: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.E19Render(e19).String())
		data := benchData{E14: e14, E15: e15, E16: e16, E17: e17, E18: e18, E19: e19}
		buf, err := json.MarshalIndent(data, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -json: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "braid-bench: wrote %s\n", *jsonOut)
		ran++

		if *baseline != "" {
			raw, err := os.ReadFile(*baseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "braid-bench: -baseline: %v\n", err)
				os.Exit(1)
			}
			var base benchData
			if err := json.Unmarshal(raw, &base); err != nil {
				fmt.Fprintf(os.Stderr, "braid-bench: -baseline: %v\n", err)
				os.Exit(1)
			}
			if regs := diffBaseline(data, base); len(regs) > 0 {
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "braid-bench: REGRESSION: %s\n", r)
				}
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "braid-bench: no regression vs %s\n", *baseline)
		}
	}

	for _, e := range registry {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		if (e.id == "E14" || e.id == "E15" || e.id == "E16" || e.id == "E17" || e.id == "E18" || e.id == "E19") && *jsonOut != "" {
			continue // already ran above
		}
		fmt.Println(e.run().String())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "braid-bench: no experiment matched %v (use -list)\n", flag.Args())
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
