package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func colIndex(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, h := range tab.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s has no column %q", tab.ID, name)
	return -1
}

func TestE1Shape(t *testing.T) {
	tab := E1ICRange()
	if len(tab.Rows) != 10 {
		t.Fatalf("E1 rows = %d", len(tab.Rows))
	}
	remote := colIndex(t, tab, "remote")
	tuples := colIndex(t, tab, "tuples")
	// Row order: interp-loose/{all,first}, conj-loose/{all,first},
	// compiled-loose/{all,first}, interp-braid/{all,first},
	// interp-loose/anc-first, compiled-loose/anc-first.
	// Claim 1: compiled issues far fewer remote requests than interpreted
	// for all-solutions under loose coupling.
	if !(cell(t, tab, 4, remote) < cell(t, tab, 0, remote)) {
		t.Errorf("compiled/all should issue fewer remote requests than interpreted/all\n%s", tab)
	}
	// Claim 2 (the per-problem crossover): on the selective anc query with
	// one solution demanded, interpreted ships fewer tuples than compiled.
	if !(cell(t, tab, 8, tuples) < cell(t, tab, 9, tuples)) {
		t.Errorf("interpreted/anc-first should ship fewer tuples than compiled\n%s", tab)
	}
	// Demand sensitivity: interpreted/first costs a fraction of
	// interpreted/all; compiled shows no demand sensitivity.
	if !(cell(t, tab, 1, remote) < cell(t, tab, 0, remote)/10) {
		t.Errorf("interpreted should be demand-sensitive\n%s", tab)
	}
	if cell(t, tab, 4, remote) != cell(t, tab, 5, remote) {
		t.Errorf("compiled should be demand-insensitive\n%s", tab)
	}
	// Claim 3: the BrAID layer cuts the interpreted strategy's remote
	// requests dramatically versus loose coupling.
	if !(cell(t, tab, 6, remote) < cell(t, tab, 0, remote)/2) {
		t.Errorf("braid layer should collapse interpreted remote requests\n%s", tab)
	}
	// Answers agree between strategies for all-solutions runs (distinct).
	ans := colIndex(t, tab, "answers")
	if cell(t, tab, 0, ans) != cell(t, tab, 2, ans) || cell(t, tab, 2, ans) != cell(t, tab, 4, ans) || cell(t, tab, 4, ans) != cell(t, tab, 6, ans) {
		t.Errorf("strategies disagree on answer count\n%s", tab)
	}
}

func TestE2ShapeAndConsistency(t *testing.T) {
	if err := verifyE2Consistency(); err != nil {
		t.Fatal(err)
	}
	tab := E2CachingStrategies()
	remote := colIndex(t, tab, "remote")
	hits := colIndex(t, tab, "full-hits")
	// Rows: loose, exact, singlerel, braid.
	if !(cell(t, tab, 3, remote) < cell(t, tab, 0, remote)) {
		t.Errorf("braid should issue fewer remote requests than loose\n%s", tab)
	}
	if !(cell(t, tab, 3, remote) <= cell(t, tab, 1, remote)) {
		t.Errorf("braid should not exceed exact-match remote requests\n%s", tab)
	}
	if !(cell(t, tab, 3, hits) > cell(t, tab, 1, hits)) {
		t.Errorf("subsumption should produce more full hits than exact matching\n%s", tab)
	}
	if cell(t, tab, 0, hits) != 0 {
		t.Errorf("loose coupling must have zero hits\n%s", tab)
	}
}

func TestE3Shape(t *testing.T) {
	tab := E3LazyVsEager()
	local := colIndex(t, tab, "localSim(ms)")
	// Rows: eager/1, eager/10, eager/all, lazy/1, lazy/10, lazy/all.
	if !(cell(t, tab, 3, local) < cell(t, tab, 0, local)) {
		t.Errorf("lazy/1 should cost less local time than eager/1\n%s", tab)
	}
	if !(cell(t, tab, 3, local) < cell(t, tab, 5, local)) {
		t.Errorf("lazy cost should grow with demand\n%s", tab)
	}
	// Eager cost is ~flat across demand.
	if cell(t, tab, 0, local) < 0.9*cell(t, tab, 2, local) {
		t.Errorf("eager cost should not depend on demand\n%s", tab)
	}
}

func TestE4Shape(t *testing.T) {
	tab := E4Prefetching()
	resp := colIndex(t, tab, "simResp(ms)")
	hits := colIndex(t, tab, "pf-hits")
	// Pairs per latency: off, on.
	for p := 0; p < 3; p++ {
		off, on := 2*p, 2*p+1
		if !(cell(t, tab, on, resp) < cell(t, tab, off, resp)) {
			t.Errorf("prefetching should cut response at latency row %d\n%s", p, tab)
		}
		if cell(t, tab, on, hits) == 0 {
			t.Errorf("expected prefetch hits at latency row %d\n%s", p, tab)
		}
	}
}

func TestE5Shape(t *testing.T) {
	tab := E5Generalization()
	remote := colIndex(t, tab, "remote")
	gens := colIndex(t, tab, "generalized")
	// Pairs per instance count: off, on. With generalization, remote
	// requests stay near-constant as instances grow; without, they grow.
	offGrowth := cell(t, tab, 4, remote) - cell(t, tab, 0, remote)
	onGrowth := cell(t, tab, 5, remote) - cell(t, tab, 1, remote)
	if !(onGrowth < offGrowth) {
		t.Errorf("generalization should flatten remote growth (off %+.0f vs on %+.0f)\n%s", offGrowth, onGrowth, tab)
	}
	if cell(t, tab, 5, gens) == 0 {
		t.Errorf("expected generalizations\n%s", tab)
	}
	if cell(t, tab, 4, gens) != 0 {
		t.Errorf("generalization off must not generalize\n%s", tab)
	}
}

func TestE6Shape(t *testing.T) {
	tab := E6AttributeIndexing()
	local := colIndex(t, tab, "localSim(ms)")
	builds := colIndex(t, tab, "idx-builds")
	for p := 0; p < 2; p++ {
		off, on := 2*p, 2*p+1
		if !(cell(t, tab, on, local) < cell(t, tab, off, local)) {
			t.Errorf("indexing should cut local time at size row %d\n%s", p, tab)
		}
		if cell(t, tab, on, builds) == 0 {
			t.Errorf("expected index builds\n%s", tab)
		}
	}
	// The advantage is substantial at both sizes (matched rows scale with
	// the extension under a fixed domain, so the ratio is roughly constant
	// rather than growing).
	gainSmall := cell(t, tab, 0, local) / cell(t, tab, 1, local)
	gainBig := cell(t, tab, 2, local) / cell(t, tab, 3, local)
	if gainSmall < 3 || gainBig < 3 {
		t.Errorf("index advantage too small (%.1fx, %.1fx)\n%s", gainSmall, gainBig, tab)
	}
}

// TestE6Repeats: the simulated cost of a run is a function of its inputs. It
// was not while subsume.Match emitted a derivation's residual selections in
// map order — the CMS indexes the first equality it meets, so the same 40
// probes cost anything from 30.6 to 47.0 simulated ms.
func TestE6Repeats(t *testing.T) {
	first := RunE6(true, 1000)
	for i := 1; i < 20; i++ {
		if r := RunE6(true, 1000); r != first {
			t.Fatalf("run %d: %+v, run 0: %+v", i, r, first)
		}
	}
}

func TestE7Shape(t *testing.T) {
	tab := E7Replacement()
	ref := colIndex(t, tab, "d1-refetches")
	// Rows: off, on.
	if !(cell(t, tab, 1, ref) < cell(t, tab, 0, ref)) {
		t.Errorf("advice replacement should reduce refetches\n%s", tab)
	}
	if cell(t, tab, 1, ref) != 0 {
		t.Errorf("protected element should never be refetched\n%s", tab)
	}
}

func TestE8Shape(t *testing.T) {
	tab := E8ParallelSubqueries()
	resp := colIndex(t, tab, "simResp(ms)")
	partial := colIndex(t, tab, "partial-hits")
	for p := 0; p < 3; p++ {
		off, on := 2*p, 2*p+1
		if cell(t, tab, off, partial) == 0 {
			t.Errorf("E8 requires decomposed queries\n%s", tab)
		}
		if !(cell(t, tab, on, resp) < cell(t, tab, off, resp)) {
			t.Errorf("parallel should cut response at latency row %d\n%s", p, tab)
		}
	}
}

func TestE9Shape(t *testing.T) {
	tab := E9SubsumptionOverhead()
	if len(tab.Rows) != 3 {
		t.Fatalf("E9 rows = %d", len(tab.Rows))
	}
	// Counts, which repeat. Every definition is resident as an element of its
	// own, and what the index hands the matcher does not grow with the cache:
	// of E9Elements only e0 can derive the probe query, at every size (the
	// constant the element mix fixes is 0).
	small, large := RunE9(10), RunE9(1000)
	if small.resident != 10 || large.resident != 1000 {
		t.Errorf("resident elements = %d and %d, want 10 and 1000", small.resident, large.resident)
	}
	if small.survivors < 1 || large.survivors > small.survivors {
		t.Errorf("survivors grew with the cache: %d at 10 elements, %d at 1000", small.survivors, large.survivors)
	}
	if large.matchCalls != large.survivors {
		t.Errorf("matcher ran %d times for %d survivors", large.matchCalls, large.survivors)
	}
	// The 1000-element pass should still be well under one 50ms round trip.
	frac, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[2][4], "x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if frac >= 1 {
		t.Errorf("subsumption pass costs more than a round trip: %s\n%s", tab.Rows[2][4], tab)
	}
}

// TestAllRuns runs the registry braid-bench prints from, except the
// experiments that have a reduced-scale test of their own below, and pins
// what the suite is: E1..E19 without the retired E17, each id once.
func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	ownTest := map[string]bool{"E14": true, "E15": true, "E16": true, "E18": true, "E19": true}
	var ids, want []string
	for n := 1; n <= 19; n++ {
		if n != 17 {
			want = append(want, "E"+strconv.Itoa(n))
		}
	}
	for _, e := range Registry {
		ids = append(ids, e.ID)
		if ownTest[e.ID] {
			continue
		}
		tab := e.Run()
		if tab.ID != e.ID {
			t.Errorf("registry entry %s produced table %s", e.ID, tab.ID)
		}
		if len(tab.Rows) == 0 || tab.String() == "" {
			t.Errorf("%s produced no rows", e.ID)
		}
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("registry ids = %v, want %v", ids, want)
	}
}

// TestE12Shape: concurrent sessions over one shared CMS must answer every
// query (accounted exactly once) and hit at least as often as the serial
// session — wall-clock speed is environment-dependent and not asserted.
func TestE12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent replay in short mode")
	}
	perSession := int64(len(e10Sequence()))
	serial := RunE12(1)
	if serial.Stats.Queries != perSession {
		t.Fatalf("serial queries = %d, want %d", serial.Stats.Queries, perSession)
	}
	serialRate := float64(serial.Stats.CacheHits+serial.Stats.PartialHits) / float64(serial.Stats.Queries)
	conc := RunE12(8)
	if conc.Stats.Queries != 8*perSession {
		t.Fatalf("concurrent queries = %d, want %d", conc.Stats.Queries, 8*perSession)
	}
	concRate := float64(conc.Stats.CacheHits+conc.Stats.PartialHits) / float64(conc.Stats.Queries)
	// Sessions racing on a cold cache can each miss the same query before the
	// first insert lands (at most ~one duplicate fetch per session per view),
	// so parity holds up to a one-query-per-session tolerance.
	if tol := 1.0 / float64(perSession); concRate < serialRate-tol {
		t.Errorf("shared-cache hit rate %.3f below serial %.3f (tolerance %.3f)", concRate, serialRate, tol)
	}
	if conc.QPS <= 0 || conc.P50 <= 0 || conc.P99 < conc.P50 {
		t.Errorf("degenerate latency aggregation: %+v", conc)
	}
}

// TestE14Shape runs the stream-transport experiment at a reduced scale and
// checks the directional claims: streaming beats the materialized arm on
// first-tuple latency, and pooled throughput grows with the pool against the
// session-serial 1ms-per-request remote. Both ratios are wall-clock, so a
// loaded CI host gets a conservative floor.
func TestE14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP measurement in short mode")
	}
	d, err := RunE14(20000, 3, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.FirstTuple) != 4 || len(d.Throughput) != 3 {
		t.Fatalf("unexpected shape: %+v", d)
	}
	if d.FirstTuple[0].Transport != "materialized" {
		t.Fatalf("row 0 should be the materialized arm, got %+v", d.FirstTuple[0])
	}
	for _, f := range d.FirstTuple {
		if f.Tuples != 20000 {
			t.Errorf("%s/%d returned %d tuples, want 20000", f.Transport, f.FrameTuples, f.Tuples)
		}
	}
	if raceEnabled {
		t.Logf("race detector on: skipping ratio floors (speedup %.2fx, scaling %.2fx)",
			d.FirstTupleSpeedup, d.PoolScalingQPS)
	} else {
		if !(d.FirstTupleSpeedup > 1.5) {
			t.Errorf("streaming first-tuple speedup %.2fx, want > 1.5x", d.FirstTupleSpeedup)
		}
		if !(d.PoolScalingQPS > 1.5) {
			t.Errorf("pool 1->8 QPS scaling %.2fx, want > 1.5x", d.PoolScalingQPS)
		}
	}
	for _, p := range d.Throughput {
		if p.Queries != int64(p.Sessions*10) {
			t.Errorf("pool %d completed %d queries, want %d", p.PoolSize, p.Queries, p.Sessions*10)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tab := E11FaultTolerance()
	if len(tab.Rows) != 5 {
		t.Fatalf("E11 rows = %d", len(tab.Rows))
	}
	failedC := colIndex(t, tab, "failed")
	retriesC := colIndex(t, tab, "retries")
	hitsC := colIndex(t, tab, "hits")
	ansC := colIndex(t, tab, "answered%")
	// A fault-free run is fault-free.
	if cell(t, tab, 0, failedC) != 0 || cell(t, tab, 0, retriesC) != 0 {
		t.Errorf("zero fault rate should not fail or retry\n%s", tab)
	}
	// Under the heaviest fault rate, retries are doing work and the warm
	// cache keeps the answered rate far above 1-faultRate.
	last := len(tab.Rows) - 1
	if cell(t, tab, last, retriesC) == 0 {
		t.Errorf("40%% fault rate should force retries\n%s", tab)
	}
	if cell(t, tab, last, ansC) < 75 {
		t.Errorf("degradation not graceful: answered%% = %v\n%s", tab.Rows[last][ansC], tab)
	}
	for r := 0; r < len(tab.Rows); r++ {
		if cell(t, tab, r, hitsC) == 0 {
			t.Errorf("row %d: cache hits vanished under faults\n%s", r, tab)
		}
	}
}

func TestE10Shape(t *testing.T) {
	tab := E10FeatureAblation()
	if len(tab.Rows) != 9 {
		t.Fatalf("E10 rows = %d", len(tab.Rows))
	}
	resp := colIndex(t, tab, "simResp(ms)")
	// Full braid has the minimum response time; every ablation costs at
	// least as much, and all-off costs strictly more. (Request counts are
	// deliberately NOT monotone: e.g. disabling prefetch can *reduce*
	// requests because generalization already covers the followers — the
	// table records such interactions honestly.)
	full := cell(t, tab, 0, resp)
	off := cell(t, tab, len(tab.Rows)-1, resp)
	if !(full < off) {
		t.Errorf("full braid should beat all-off on response time\n%s", tab)
	}
	for r := 1; r < len(tab.Rows); r++ {
		if cell(t, tab, r, resp) < full-0.5 {
			t.Errorf("ablation row %d (%s) beats the full configuration\n%s", r, tab.Rows[r][0], tab)
		}
	}
}

// TestE15Shape: at a kill rate that severs every streamed connection two
// frames in, resume tokens keep completion at 100% and the non-resuming
// control completes strictly less — otherwise the storm is not biting and the
// experiment proves nothing. A fault-free arm repairs nothing.
func TestE15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP measurement in short mode")
	}
	d, err := RunE15(1000, 6) // integrity (cardinality of every completed stream) is checked inside
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Arms) != 5 {
		t.Fatalf("unexpected arm count %d: %+v", len(d.Arms), d)
	}
	for _, a := range d.Arms {
		if a.Resume && a.Completed != a.Streams {
			t.Errorf("resume on at kill rate %.1f completed %d/%d", a.KillRate, a.Completed, a.Streams)
		}
		if a.KillRate == 0 && (a.Resumes != 0 || a.ServerKills != 0) {
			t.Errorf("fault-free arm repaired %d streams, server killed %d", a.Resumes, a.ServerKills)
		}
		if a.KillRate == 1 && a.Resume && a.Resumes == 0 {
			t.Errorf("kill rate 1 with resume on repaired nothing: %+v", a)
		}
	}
	if d.ResumeCompletionPct != 100 || d.NoResumeCompletionPct >= d.ResumeCompletionPct {
		t.Errorf("completion at kill rate 1: resume on %.0f%%, off %.0f%%; want 100%% and strictly less",
			d.ResumeCompletionPct, d.NoResumeCompletionPct)
	}
}

// TestE16Shape checks the parts of E16 that are counts: every order joins
// exactly one customer, the aggregate has 50 groups, LIMIT over the join
// charges fewer ops than the join, and a workload of 8 statements repeated
// compiles each once (hit rate >= 90%). Latencies are not asserted.
func TestE16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP measurement in short mode")
	}
	d, err := RunE16(8000, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Shapes) != 3 || d.Shapes[1].Shape != "join" || d.Shapes[2].Shape != "agg" {
		t.Fatalf("unexpected shapes: %+v", d.Shapes)
	}
	if d.Shapes[1].Tuples != 8000 || d.Shapes[2].Tuples != 50 {
		t.Errorf("join returned %d tuples (want 8000), agg %d (want 50)", d.Shapes[1].Tuples, d.Shapes[2].Tuples)
	}
	if !(d.LimitJoinOpsCut > 1) {
		t.Errorf("LIMIT 10 over the join charged %d ops, the full join %d: no short-circuit",
			d.LimitJoinOpsOn, d.FullJoinOpsOn)
	}
	if d.PlanCacheHitRate < 0.9 {
		t.Errorf("plan-cache hit rate %.1f%%, want >= 90%%", 100*d.PlanCacheHitRate)
	}
}

// TestE18Shape: every fsync policy, on every round, recovers exactly the rows
// it acknowledged, fsync=always syncs at least once per acknowledged batch,
// and a cold recovery replays the log it is given. Rows/s is not asserted.
func TestE18Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and fsyncs real files in short mode")
	}
	const batches = 20
	d, err := RunE18(batches, 2, []int{500})
	if err != nil {
		t.Fatal(err)
	}
	if !d.RecoveryCorrect {
		t.Errorf("recovery lost or duplicated acknowledged rows: %+v", d)
	}
	if len(d.Arms) != 4 || len(d.Recoveries) != 1 {
		t.Fatalf("unexpected shape: %+v", d)
	}
	for _, a := range d.Arms {
		if !a.RowsOK {
			t.Errorf("fsync=%s: reopen did not recover the %d acknowledged rows", a.Policy, a.Rows)
		}
		if a.Policy == "always" && a.Syncs < batches {
			t.Errorf("fsync=always synced %d times for %d acknowledged batches", a.Syncs, batches)
		}
	}
	if r := d.Recoveries[0]; !r.RowsOK || r.Replayed == 0 {
		t.Errorf("cold recovery of %d rows: %+v", r.Rows, r)
	}
}

// TestE19Shape runs the morsel-parallelism sweep at a reduced scale: the
// result must carry every (shape, dop) arm with dop-invariant cardinality
// and server ops (parallel execution may not change what a query returns or
// how much work it charges), and the engine counters must show the pool
// engaging for dop > 1 and falling back for dop 1. Drain and first-tuple
// times are not asserted.
func TestE19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP measurement in short mode")
	}
	d, err := RunE19(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Shapes) != 12 { // 3 shapes x dop {1,2,4,8}
		t.Fatalf("unexpected shape count %d: %+v", len(d.Shapes), d)
	}
	base := map[string]E19Shape{}
	for _, s := range d.Shapes {
		if s.DOP == 1 {
			base[s.Shape] = s
			continue
		}
		b := base[s.Shape]
		if s.Tuples != b.Tuples || s.Ops != b.Ops {
			t.Errorf("%s at dop %d: %d tuples / %d ops, serial returned %d / %d",
				s.Shape, s.DOP, s.Tuples, s.Ops, b.Tuples, b.Ops)
		}
	}
	if d.ParStreams == 0 || d.ParMorsels == 0 || d.ParWorkers == 0 {
		t.Errorf("parallel counters never moved: %+v", d)
	}
	if d.ParFallbacks == 0 {
		t.Errorf("dop-1 arms should count as serial fallbacks: %+v", d)
	}
}
