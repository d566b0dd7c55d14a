// Command bench is the repository's benchmark: wall-clock cost of the fixed
// chain IE strategy -> CMS -> RDI translation -> pool + gob framing -> server
// bind/plan/execute -> relation, over real loopback TCP against the durable
// engine, on four workloads. See README.md in this directory.
//
// It is not cmd/braid-bench: that command reproduces the paper's experiments
// (E1-E19) under a simulated cost model; this one times the real program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// measuredPasses is how many times a run repeats the workload's op sequence
// after the warm-up pass, with or without -trace 1. The work of a run is
// fixed: nothing runs for a duration, and -seconds changes nothing.
const measuredPasses = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func warnf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
}

type options struct {
	workload string
	seed     int64
	trace    int
	traceOut string
	dataRoot string
	aa       int
	sz       sizes
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: ie_ask, caql_cold, bulk_scan or write_mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Int("seconds", 12, "accepted and ignored: a run is a fixed amount of work, not a duration")
	flag.IntVar(&o.trace, "trace", 0, "1: run the traced pass and report the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans here as JSON lines")
	flag.StringVar(&o.dataRoot, "data", ".bench_build/data", "directory the durable engines live under")
	flag.IntVar(&o.aa, "aa", 0, "A/A self-check: run each workload this many times and report every metric's spread")
	flag.Parse()
	o.sz = fullSizes

	if o.aa > 0 {
		os.Exit(runAA(o))
	}
	oc, err := measure(o)
	if err != nil {
		warnf("%v", err)
		os.Exit(1)
	}
	oc.print(os.Stdout)
	line, err := json.Marshal(oc.rep)
	if err != nil {
		warnf("%v", err)
		os.Exit(1)
	}
	// A run that finished exits 0 even when ops failed: the report says so.
	fmt.Println(string(line))
}

// pin fixes the runtime settings the numbers depend on.
func pin() {
	runtime.GOMAXPROCS(pinnedProcs)
	debug.SetGCPercent(pinnedGCPercent)
}

// outcome is everything one run measured.
type outcome struct {
	rep    *report
	name   string
	seed   int64
	hash   uint64
	warm   *pass
	passes []*pass // the untraced measured passes
	e2e    map[string]metric
	diag   map[string]metric
	layer  map[string]metric // nil without -trace 1
}

// measure runs one workload: set-up, the warm-up pass with the oracle, the
// measured passes, with -trace 1 the traced pass and the per-layer probes,
// and recovery.
func measure(o options) (*outcome, error) {
	pin()
	w, err := newWorkload(o.workload, o.seed, o.sz)
	if err != nil {
		return nil, err
	}
	root, err := freshDir(o.dataRoot, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	defer w.close()

	dir, err := freshDir(root, "db")
	if err != nil {
		return nil, err
	}
	oc := &outcome{rep: &report{}, name: w.name(), seed: o.seed, hash: w.seqHash()}
	rep := oc.rep
	n := w.ops()

	// Set-up is everything before the measured passes: build the stack, then
	// the warm-up pass, which fills the caches, finishes lazy set-up and
	// fingerprints every op's result for the oracle.
	runtime.GC()
	t0 := time.Now()
	if err := w.open(dir); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := w.attach(nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	stackS := time.Since(t0).Seconds()
	if oc.warm, err = runPass(w, nil, nil); err != nil {
		return nil, err
	}
	setupS := time.Since(t0).Seconds()
	rep.Attempted += n
	rep.Failed += oc.warm.failed
	bad, err := checkAgainstOracle(w, oc.warm.fps)
	if err != nil {
		return nil, err
	}
	rep.Failed += bad
	want := oc.warm.fps

	for k := 0; k < measuredPasses; k++ {
		p, err := runPass(w, nil, want)
		if err != nil {
			return nil, err
		}
		rep.Attempted += n
		rep.Failed += p.failed
		oc.passes = append(oc.passes, p)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	oc.e2e = endToEnd(w, oc.passes, setupS, float64(ms.HeapAlloc)/(1<<20))
	oc.diag = diagnostics(w, oc.warm, oc.passes)
	oc.diag["stack_setup_s"] = metric{stackS, "s"}

	if o.trace == 1 {
		var faithful bool
		if oc.layer, faithful, err = tracedRun(w, o, oc.passes, want, rep); err != nil {
			return nil, err
		}
		if !faithful {
			rep.Failed++
		}
	}

	// Recovery closes the stack. Every row a write was acknowledged for must
	// be there after a restart.
	logTable, acked := w.durable()
	recoverS, rows, logRows, err := recovery(w.stk(), logTable)
	if err != nil {
		return nil, err
	}
	if logRows != acked {
		warnf("durability: %d rows of %s acknowledged, %d recovered", acked, logTable, logRows)
		rep.Failed++
	}
	oc.diag["recover_s"] = metric{recoverS, "s"}
	if oc.layer != nil {
		oc.layer["remotedb.wal.recover_ms"] = metric{recoverS * 1e3, "ms"}
		oc.layer["remotedb.wal.replay_us_per_krow"] = metric{recoverS * 1e6 / (float64(rows) / 1e3), "us"}
	}

	rep.Metrics = oc.e2e
	if oc.layer != nil {
		rep.Metrics = oc.layer
	}
	rep.Correct = rep.Failed == 0
	return oc, nil
}

// print writes every metric by name with its unit.
func (oc *outcome) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s seed %d: %d ops/pass, %d measured passes, input hash %016x\n",
		oc.name, oc.seed, len(oc.warm.lat), len(oc.passes), oc.hash)
	for k, p := range oc.passes {
		fmt.Fprintf(out, "pass %d: wall %.4f s, cpu %.4f s, %d mallocs\n", k+1, float64(p.wallNS)/1e9, float64(p.cpuNS)/1e9, p.mallocs)
	}
	printMetrics(out, "end-to-end", oc.e2e)
	printMetrics(out, "diagnostic (not gated)", oc.diag)
	if oc.layer != nil {
		printMetrics(out, "per-layer", oc.layer)
	}
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(out, "-- %s\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-44s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// endToEnd computes the gated metrics: the ones that repeat within their
// bounds on this kind of host. Counts are medians over the passes.
func endToEnd(w workload, ps []*pass, setupS, liveMB float64) map[string]metric {
	n := float64(w.ops())
	return map[string]metric{
		"allocs_per_op":      {overPasses(ps, func(p *pass) float64 { return float64(p.mallocs) / n }), "count"},
		"alloc_bytes_per_op": {overPasses(ps, func(p *pass) float64 { return float64(p.bytes) / n }), "B"},
		"live_heap_mb":       {liveMB, "MB"},
		"setup_s":            {setupS, "s"},
	}
}

// diagnostics are reported and not gated: the wall-clock and CPU timings
// (their run-to-run spread on a shared host is wider than any bound worth
// gating on; see README.md), the tail, the exact result count and the cold
// pass. Every timing is computed within a pass and reported as the median
// over the passes, so a burst of interference spoils a pass, not the run.
func diagnostics(w workload, warm *pass, ps []*pass) map[string]metric {
	n := float64(w.ops())
	latQ := func(get func(*pass) []int64, q float64) metric {
		return metric{overPasses(ps, func(p *pass) float64 { return us(quantile(get(p), q)) }), "us"}
	}
	lat := func(p *pass) []int64 { return p.lat }
	m := map[string]metric{
		"ops_per_s":           {overPasses(ps, func(p *pass) float64 { return n / (float64(p.wallNS) / 1e9) }), "1/s"},
		"op_p50_us":           latQ(lat, 0.50),
		"op_p95_us":           latQ(lat, 0.95),
		"op_p99_us":           latQ(lat, 0.99),
		"first_result_p50_us": latQ(func(p *pass) []int64 { return p.first }, 0.50),
		"cpu_us_per_op":       {overPasses(ps, func(p *pass) float64 { return us(p.cpuNS) / n }), "us"},
		"results_per_op": {overPasses(ps, func(p *pass) float64 {
			var rows int
			for _, fp := range p.fps {
				rows += fp.rows
			}
			return float64(rows) / n
		}), "count"},
		"samples_per_pass": {n, "count"},
		"cold_pass_s":      {float64(warm.wallNS) / 1e9, "s"},
	}
	for c, name := range w.classes() {
		m[name+"_p50_us"] = latQ(func(p *pass) []int64 { return classLat(w, p.lat, c) }, 0.50)
	}
	return m
}
