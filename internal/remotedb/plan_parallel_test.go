package remotedb

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
)

// Tests for morsel-driven parallel execution (plan_parallel.go): section
// detection, forced-parallel correctness on data large enough for real
// worker concurrency, cancellation teardown, and goroutine-leak brackets
// around abandoned and canceled streams.

// newParallelEngine loads a two-table workload big enough that a morsel size
// of 64 gives every worker of a dop-4 pool many morsels to claim.
func newParallelEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec := func(sql string) {
		t.Helper()
		if _, _, err := e.ExecuteSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE dim (g INT, dname TEXT)")
	var dim []string
	for g := 0; g < 16; g++ {
		dim = append(dim, fmt.Sprintf("(%d,'d%02d')", g, g))
	}
	mustExec("INSERT INTO dim VALUES " + strings.Join(dim, ","))
	mustExec("CREATE TABLE big (id INT, g INT, v FLOAT)")
	var vals []string
	rng := uint64(7)
	for i := 0; i < rows; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		vals = append(vals, fmt.Sprintf("(%d,%d,%g)", i, int(rng>>33)%16, float64(int(rng>>11)%1000)+0.25))
		if len(vals) == 500 {
			mustExec("INSERT INTO big VALUES " + strings.Join(vals, ","))
			vals = vals[:0]
		}
	}
	if len(vals) > 0 {
		mustExec("INSERT INTO big VALUES " + strings.Join(vals, ","))
	}
	return e
}

// forcePar makes every eligible plan run parallel at the given dop: the row
// threshold drops to 1 and morsels shrink so the pool has real contention.
func forcePar(e *Engine, dop int) {
	e.SetParallelism(dop)
	e.SetParallelMinRows(1)
	e.SetMorselSize(64)
}

// leakBracket retries until the goroutine count settles back to the
// baseline, dumping stacks on timeout (background runtime goroutines get a
// small slack, abandoned timers a moment to unwind).
func leakBracket(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// parallelCorpus is the morsel-parallel suite's statements over
// newParallelEngine's tables; only the first has a resumable shape.
var parallelCorpus = []string{
	"SELECT id, v FROM big WHERE g < 11",
	"SELECT big.id, dim.dname FROM big, dim WHERE big.g = dim.g AND big.v < 700.0",
	"SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM big GROUP BY g ORDER BY g",
	"SELECT COUNT(*), SUM(v) FROM big",
	"SELECT DISTINCT g FROM big WHERE v > 100.0",
	"SELECT dim.dname, COUNT(*) FROM big, dim WHERE big.g = dim.g GROUP BY dim.dname ORDER BY dname",
}

// Parallel scan/join/agg results must equal the serial planner's on a table
// big enough for genuine multi-morsel concurrency, the parallel-stream
// counters must move, and the dop-1 run must count a serial fallback.
func TestParallelExecutionMatchesSerial(t *testing.T) {
	e := newParallelEngine(t, 4000)
	for _, sql := range parallelCorpus {
		t.Run(sql, func(t *testing.T) {
			e.SetParallelism(1)
			before := e.ParallelStats()
			want, serialOps, err := e.ExecuteSQL(sql)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			if fb := e.ParallelStats().SerialFallbacks; fb != before.SerialFallbacks+1 {
				t.Fatalf("serial run: fallbacks %d -> %d, want +1", before.SerialFallbacks, fb)
			}
			forcePar(e, 4)
			base := e.ParallelStats()
			got, parOps, err := e.ExecuteSQL(sql)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !got.EqualAsBag(want) {
				t.Fatalf("bag mismatch: parallel %d rows, serial %d rows", got.Len(), want.Len())
			}
			if parOps != serialOps {
				t.Errorf("ops diverge: parallel %d, serial %d", parOps, serialOps)
			}
			st := e.ParallelStats()
			if st.Streams != base.Streams+1 {
				t.Fatalf("parallel streams %d -> %d, want +1", base.Streams, st.Streams)
			}
			if st.Workers <= base.Workers || st.Morsels <= base.Morsels {
				t.Fatalf("workers/morsels did not advance: %+v -> %+v", base, st)
			}
			// Streamed, the same text runs parallel too — unless its shape is
			// resumable: then the stream is serial and carries a token, while
			// the materialized run above still fanned out.
			ps, ok := e.ExecuteSQLPipelineCtx(context.Background(), sql)
			if !ok {
				t.Fatal("pipeline declined")
			}
			defer ps.Close()
			resumable := sql == parallelCorpus[0]
			if hasToken := ps.ResumeToken().Table != ""; hasToken != resumable || (ps.DOP() == 1) != resumable {
				t.Fatalf("streamed: token=%v dop=%d, want resumable=%v", hasToken, ps.DOP(), resumable)
			}
		})
	}
}

// Below the row threshold an eligible plan must fall back to the serial tree
// and count the fallback.
func TestParallelRowThresholdFallback(t *testing.T) {
	e := newParallelEngine(t, 500)
	e.SetParallelism(4)
	e.SetParallelMinRows(100000)
	base := e.ParallelStats()
	if _, _, err := e.ExecuteSQL("SELECT g, COUNT(*) FROM big GROUP BY g"); err != nil {
		t.Fatal(err)
	}
	st := e.ParallelStats()
	if st.Streams != base.Streams {
		t.Fatalf("ran parallel below the row threshold")
	}
	if st.SerialFallbacks != base.SerialFallbacks+1 {
		t.Fatalf("fallbacks %d -> %d, want +1", base.SerialFallbacks, st.SerialFallbacks)
	}
}

// LIMIT/TopN-dominated shapes without an aggregate must not be parallel
// eligible (pull-based short-circuit beats fan-out; first-tuple latency must
// not regress), while a LIMIT above a blocking aggregate stays eligible.
func TestParallelSectionLimitRules(t *testing.T) {
	e := newParallelEngine(t, 500)
	planOf := func(sql string) *Plan {
		t.Helper()
		p, err := e.PlanForSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return p
	}
	for _, sql := range []string{
		"SELECT id FROM big LIMIT 5",
		"SELECT id FROM big ORDER BY id LIMIT 5",
		"SELECT big.id FROM big, dim WHERE big.g = dim.g LIMIT 5",
	} {
		if planOf(sql).par != nil {
			t.Errorf("%s: LIMIT shape marked parallel eligible", sql)
		}
	}
	for _, sql := range []string{
		"SELECT id, v FROM big WHERE g = 3",
		"SELECT g, COUNT(*) FROM big GROUP BY g ORDER BY g LIMIT 4",
		"SELECT big.id, dim.dname FROM big, dim WHERE big.g = dim.g",
	} {
		if planOf(sql).par == nil {
			t.Errorf("%s: shape not parallel eligible", sql)
		}
	}
	// Cross/theta spines stay serial.
	if planOf("SELECT big.id, dim.dname FROM big, dim WHERE big.v > 900.0").par != nil {
		t.Error("cross join marked parallel eligible")
	}
}

// Abandoning a partially-drained parallel stream and closing it must tear
// down every worker goroutine.
func TestParallelCloseAfterPartialDrainLeaksNothing(t *testing.T) {
	e := newParallelEngine(t, 4000)
	forcePar(e, 4)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ps, ok := e.ExecuteSQLPipelineCtx(context.Background(), "SELECT big.id, dim.dname FROM big, dim WHERE big.g = dim.g")
		if !ok {
			t.Fatal("pipeline declined the join")
		}
		if ps.DOP() < 2 {
			t.Fatalf("dop = %d, want parallel", ps.DOP())
		}
		for j := 0; j < 10; j++ {
			if _, ok := ps.Next(); !ok {
				t.Fatal("stream ended before partial drain")
			}
		}
		ps.Close()
	}
	leakBracket(t, before)
}

// Context cancellation mid-stream must stop the workers at their guard
// checkpoints, end the stream, surface a non-nil Err (never a silent
// truncation), and leak nothing.
func TestParallelCancelMidStream(t *testing.T) {
	e := newParallelEngine(t, 4000)
	forcePar(e, 4)
	before := runtime.NumGoroutine()

	// A streamed single-table scan is resumable and therefore serial, so the
	// parallel exchange path needs a join shape. The exchange holds 2*dop
	// batches of 128, far fewer than the join's 4000 tuples: after one pull
	// the workers are parked on the send with work left, whatever the host's
	// speed, so the cancel below always lands mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	ps, ok := e.ExecuteSQLPipelineCtx(ctx, "SELECT big.id, dim.dname FROM big, dim WHERE big.g = dim.g")
	if !ok {
		t.Fatal("pipeline declined the join")
	}
	if _, ok := ps.Next(); !ok {
		t.Fatalf("no first tuple: %v", ps.Err())
	}
	cancel()
	for {
		if _, ok := ps.Next(); !ok {
			break
		}
	}
	if err := ps.Err(); err == nil {
		t.Fatal("canceled stream reported a complete (nil-Err) result")
	}
	ps.Close()
	leakBracket(t, before)

	// Cancellation before the first pull: the pool never starts; Close alone
	// must still release the derived context.
	ctx2, cancel2 := context.WithCancel(context.Background())
	sc2, ok := e.ExecuteSQLPipelineCtx(ctx2, "SELECT g, COUNT(*) FROM big GROUP BY g")
	if !ok {
		t.Fatal("pipeline declined the agg")
	}
	cancel2()
	sc2.Close()
	leakBracket(t, before)
}

// Drained exchange batches go back to the workers, which refill them. The
// consumer hands a batch back only after reading its last tuple, so one that
// yields every 100 tuples, letting the workers run ahead, still reads every
// tuple once: the bag equals the serial result. Canceled mid-way, the stream
// still fails visibly.
func TestParallelExchangeRecyclesBatches(t *testing.T) {
	e := newParallelEngine(t, 4000)
	const sql = "SELECT big.id, big.v, dim.dname FROM big, dim WHERE big.g = dim.g"
	e.SetParallelism(1)
	want, _, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	forcePar(e, 4)
	drain := func(ps *PlanStream, stopAt int, cancel func()) []relation.Tuple {
		var got []relation.Tuple
		for tu, ok := ps.Next(); ok; tu, ok = ps.Next() {
			if got = append(got, tu); len(got)%100 == 0 {
				runtime.Gosched()
			}
			if len(got) == stopAt {
				cancel()
			}
		}
		return got
	}

	ps, ok := e.ExecuteSQLPipelineCtx(context.Background(), sql)
	if !ok {
		t.Fatal("pipeline declined the join")
	}
	if ps.DOP() < 2 {
		t.Fatalf("dop = %d, want parallel", ps.DOP())
	}
	got := drain(ps, -1, nil)
	if err := ps.Err(); err != nil {
		t.Fatalf("complete stream: %v", err)
	}
	ps.Close()
	if rel := relation.FromTuples("result", ps.Schema(), got); !rel.EqualAsBag(want) {
		t.Fatalf("bag mismatch: parallel %d rows, serial %d rows", rel.Len(), want.Len())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ps, ok = e.ExecuteSQLPipelineCtx(ctx, sql)
	if !ok {
		t.Fatal("pipeline declined the join")
	}
	got = drain(ps, 300, cancel)
	if err := ps.Err(); err == nil {
		t.Fatalf("canceled stream reported a complete (nil-Err) result of %d rows", len(got))
	}
	ps.Close()
}

// A canceled parallel aggregation must surface an error, not a partial
// aggregate built from whichever morsels finished.
func TestParallelAggCancelYieldsErrorNotPartial(t *testing.T) {
	e := newParallelEngine(t, 4000)
	forcePar(e, 4)
	// Nothing parks an aggregating worker, so the cancel has to arrive while
	// the pool is still running: a build side with 512 rows per key makes the
	// workers aggregate two million joined tuples out of two small tables —
	// tens of milliseconds on any host, and only for a run the cancel misses.
	if _, _, err := e.ExecuteSQL("CREATE TABLE fat (g INT, k INT)"); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 16; g++ {
		var vals []string
		for k := 0; k < 512; k++ {
			vals = append(vals, fmt.Sprintf("(%d,%d)", g, k))
		}
		if _, _, err := e.ExecuteSQL("INSERT INTO fat VALUES " + strings.Join(vals, ",")); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	ps, ok := e.ExecuteSQLPipelineCtx(ctx, "SELECT big.g, COUNT(*), SUM(big.v) FROM big, fat WHERE big.g = fat.g GROUP BY big.g")
	if !ok {
		t.Fatal("pipeline declined the agg")
	}
	if ps.DOP() < 2 {
		t.Fatalf("dop = %d, want parallel", ps.DOP())
	}
	// The agg boundary blocks the first pull until the pool drains, so fire
	// the cancel from a timer racing that first pull.
	timer := time.AfterFunc(3*time.Millisecond, cancel)
	defer timer.Stop()
	rows := 0
	for {
		if _, ok := ps.Next(); !ok {
			break
		}
		rows++
	}
	if err := ps.Err(); err == nil {
		t.Fatalf("canceled aggregation reported a nil Err with %d of 16 groups", rows)
	}
	if rows != 0 {
		t.Fatalf("canceled aggregation emitted %d groups before its error", rows)
	}
	ps.Close()
}

// EXPLAIN ANALYZE on a parallel run must report the chosen DOP and
// per-worker rows/ops/morsels so partition skew is visible.
func TestExplainAnalyzeShowsWorkers(t *testing.T) {
	e := newParallelEngine(t, 4000)
	forcePar(e, 4)
	rel, _, err := e.ExecuteSQL("EXPLAIN ANALYZE SELECT g, COUNT(*) FROM big GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, tu := range rel.Tuples() {
		out.WriteString(tu[0].AsString())
		out.WriteByte('\n')
	}
	text := out.String()
	if !strings.Contains(text, "dop 4") {
		t.Fatalf("no dop in header:\n%s", text)
	}
	if !strings.Contains(text, "parallel: dop 4") || !strings.Contains(text, "worker 0:") || !strings.Contains(text, "worker 3:") {
		t.Fatalf("no per-worker lines:\n%s", text)
	}
	// EXPLAIN (without ANALYZE) advertises the open-time decision.
	rel, _, err = e.ExecuteSQL("EXPLAIN SELECT g, COUNT(*) FROM big GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rel.Tuple(0)[0].AsString(), "parallel dop 4") {
		t.Fatalf("EXPLAIN header missing parallel decision: %s", rel.Tuple(0)[0].AsString())
	}

	// A projection over a join is written by the join, on the workers' runs
	// here as on a serial run. EXPLAIN ANALYZE still reports the project and
	// the join apart, each with the rows and ops the executor reported when
	// the join wrote the concatenation and a projection copied it (the
	// figures below, read then), at dop 1 and 4.
	type nodeRows struct {
		node      string
		rows, ops int
	}
	actuals := regexp.MustCompile(`^ *(.*?) \(est rows \d+\) \(actual rows (\d+), ops (\d+),`)
	for _, tc := range []struct {
		sql   string
		nodes []nodeRows
	}{
		{"SELECT dim.dname, big.id FROM big, dim WHERE big.g = dim.g AND big.v < 700.0", []nodeRows{
			{"project (dname, id)", 2698, 2698},
			{"hash join [big.g = dim.g] (build dim, probe streams)", 2698, 2714},
			{"prune big to (id, g)", 2698, 2698},
			{"scan big where [v < 700.0] (examine~4000, emit~2802)", 2698, 4000},
			{"scan dim (examine~16, emit~16)", 16, 16},
		}},
		{"SELECT big.v, dim.dname FROM big, dim WHERE big.g = dim.g AND big.id > dim.g", []nodeRows{
			{"project (v, dname)", 3995, 3995},
			{"hash join [big.g = dim.g AND big.id > dim.g] (build dim, probe streams)", 3995, 4016},
			{"scan big (examine~4000, emit~4000)", 4000, 4000},
			{"scan dim (examine~16, emit~16)", 16, 16},
		}},
	} {
		for _, dop := range []int{1, 4} {
			e.SetParallelism(dop)
			rel, _, err := e.ExecuteSQL("EXPLAIN ANALYZE " + tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			var got []nodeRows
			for _, tu := range rel.Tuples()[1:] {
				if m := actuals.FindStringSubmatch(tu[0].AsString()); m != nil {
					rows, _ := strconv.Atoi(m[2])
					ops, _ := strconv.Atoi(m[3])
					got = append(got, nodeRows{m[1], rows, ops})
				}
			}
			if !slices.Equal(got, tc.nodes) {
				t.Errorf("%s at dop %d:\n got  %v\n want %v", tc.sql, dop, got, tc.nodes)
			}
		}
	}
}

// At dop > 1 the operators above the parallel section run on the stream's
// own run, opened like a serial run's, and those inside it on the workers'
// runs, whose actuals merge into the stream's once the pool drains. So
// EXPLAIN ANALYZE reports every node — above the section, its boundary, and
// inside it down to the driver scan — with the same rows and ops as the dop-1
// run, under a header charging the same ops.
func TestExplainAnalyzeParallelReportsConsumerSide(t *testing.T) {
	e := newParallelEngine(t, 4000)
	forcePar(e, 4)
	actuals := regexp.MustCompile(`\(actual rows (\d+), ops (\d+),`)
	headerOps := regexp.MustCompile(`\| ops (\d+) \|`)
	analyze := func(sql string, dop int) (header string, nodes []string) {
		t.Helper()
		e.SetParallelism(dop)
		rel, _, err := e.ExecuteSQL("EXPLAIN ANALYZE " + sql)
		if err != nil {
			t.Fatal(err)
		}
		header = rel.Tuple(0)[0].AsString()
		for _, tu := range rel.Tuples()[1:] {
			line := tu[0].AsString()
			if !strings.HasPrefix(line, "parallel: ") && !strings.HasPrefix(line, "  worker ") {
				nodes = append(nodes, line)
			}
		}
		return header, nodes
	}
	for _, sql := range []string{
		"SELECT g, COUNT(*) FROM big GROUP BY g ORDER BY g LIMIT 5",
		"SELECT DISTINCT dim.dname FROM big, dim WHERE big.g = dim.g",
		"SELECT g, COUNT(*) FROM big WHERE id >= 100 GROUP BY g",
		"SELECT big.id, dim.dname FROM big, dim WHERE big.g = dim.g AND big.v < 700.0",
	} {
		t.Run(sql, func(t *testing.T) {
			p, err := e.PlanForSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			if p.par == nil {
				t.Fatal("shape not parallel eligible")
			}
			serialHeader, serial := analyze(sql, 1)
			parHeader, par := analyze(sql, 4)
			if !strings.Contains(parHeader, "| dop 4") {
				t.Fatalf("not parallel: %s", parHeader)
			}
			if got, want := headerOps.FindString(parHeader), headerOps.FindString(serialHeader); got == "" || got != want {
				t.Fatalf("header ops: dop 4 %q, dop 1 %q", got, want)
			}
			if len(par) != len(serial) {
				t.Fatalf("dop 4 renders %d nodes, dop 1 %d", len(par), len(serial))
			}
			for i := range par {
				got, want := actuals.FindStringSubmatch(par[i]), actuals.FindStringSubmatch(serial[i])
				if got == nil {
					t.Fatalf("dop 4 line %q carries no actuals", par[i])
				}
				if want == nil || got[1] != want[1] || got[2] != want[2] {
					t.Fatalf("dop 4 line %q, dop 1 line %q: rows or ops differ", par[i], serial[i])
				}
			}
		})
	}
}

// NaN has one place in the engine's order: after every number, equal to
// itself. ORDER BY puts NaN rows last, LIMIT keeps a prefix of that order,
// and DISTINCT and GROUP BY see one NaN, serial and parallel.
func TestNaNOrdersLastAndGroupsOnce(t *testing.T) {
	e := NewEngine()
	if _, _, err := e.ExecuteSQL("CREATE TABLE fl (id INT, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	const n = 400
	var rows []relation.Tuple
	nans := 0
	for i := 0; i < n; i++ {
		v := float64(i%23) + 0.5
		if i%7 == 0 {
			v = math.NaN()
			nans++
		}
		rows = append(rows, relation.Tuple{relation.Int(int64(i)), relation.Float(v)})
	}
	if err := e.Insert("fl", rows); err != nil {
		t.Fatal(err)
	}
	query := func(sql string) []relation.Tuple {
		t.Helper()
		rel, _, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rel.Tuples()
	}
	isNaN := func(tu relation.Tuple, col int) bool { return math.IsNaN(tu[col].AsFloat()) }
	for _, dop := range []int{1, 4} {
		t.Run(fmt.Sprintf("dop%d", dop), func(t *testing.T) {
			forcePar(e, dop)
			sorted := query("SELECT id, v FROM fl ORDER BY v")
			if len(sorted) != n {
				t.Fatalf("ORDER BY: %d rows, want %d", len(sorted), n)
			}
			for i := 1; i < n; i++ {
				prev, cur := sorted[i-1][1].AsFloat(), sorted[i][1].AsFloat()
				if math.IsNaN(prev) && !math.IsNaN(cur) || !math.IsNaN(prev) && !math.IsNaN(cur) && prev > cur {
					t.Fatalf("ORDER BY v: row %d is %v after %v", i, cur, prev)
				}
			}
			if !isNaN(sorted[n-nans], 1) || isNaN(sorted[n-nans-1], 1) {
				t.Fatalf("ORDER BY v: the %d NaN rows are not the last ones", nans)
			}
			for _, k := range []int{5, n - nans + 3} {
				top := query(fmt.Sprintf("SELECT id, v FROM fl ORDER BY v LIMIT %d", k))
				if len(top) != k {
					t.Fatalf("LIMIT %d: %d rows", k, len(top))
				}
				for i := range top {
					if !top[i][1].Equal(sorted[i][1]) {
						t.Fatalf("LIMIT %d: row %d is %v, the full sort's is %v", k, i, top[i][1], sorted[i][1])
					}
				}
			}
			distinctNaN := 0
			for _, tu := range query("SELECT DISTINCT v FROM fl") {
				if isNaN(tu, 0) {
					distinctNaN++
				}
			}
			if distinctNaN != 1 {
				t.Fatalf("DISTINCT: %d NaN rows, want 1", distinctNaN)
			}
			groups := query("SELECT v, COUNT(*) FROM fl GROUP BY v")
			nanGroups := 0
			for _, tu := range groups {
				if isNaN(tu, 0) {
					nanGroups++
					if tu[1].AsInt() != int64(nans) {
						t.Fatalf("GROUP BY: the NaN group counts %d rows, want %d", tu[1].AsInt(), nans)
					}
				}
			}
			if nanGroups != 1 || len(groups) != 24 {
				t.Fatalf("GROUP BY: %d groups, %d of them NaN; want 24, one NaN", len(groups), nanGroups)
			}
		})
	}
}

// NaN sorts after every number, but it must not become a float column's
// catalog max: a range predicate over a column holding NaNs is estimated, and
// its DOP decided, exactly as over the same column with each NaN replaced by a
// number inside its range.
func TestNaNRangeEstimateMatchesNaNFree(t *testing.T) {
	e := NewEngine()
	var withNaN, numeric []relation.Tuple
	for i := 0; i < 400; i++ {
		id, v := relation.Int(int64(i)), relation.Float(float64(i%23)+0.5)
		numeric = append(numeric, relation.Tuple{id, v})
		if i%7 == 0 {
			v = relation.Float(math.NaN())
		}
		withNaN = append(withNaN, relation.Tuple{id, v})
	}
	for name, rows := range map[string][]relation.Tuple{"fnan": withNaN, "fnum": numeric} {
		if _, _, err := e.ExecuteSQL("CREATE TABLE " + name + " (id INT, v FLOAT)"); err != nil {
			t.Fatal(err)
		}
		if err := e.Insert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	e.SetParallelism(4)
	e.SetParallelMinRows(100)
	for _, sql := range []string{
		"SELECT id FROM %s WHERE v < 3",
		"SELECT id, v FROM %s WHERE v >= 20",
		"SELECT COUNT(*) FROM %s WHERE v > 4 AND v < 9",
	} {
		nan, err := e.PlanForSQL(fmt.Sprintf(sql, "fnan"))
		if err != nil {
			t.Fatal(err)
		}
		num, err := e.PlanForSQL(fmt.Sprintf(sql, "fnum"))
		if err != nil {
			t.Fatal(err)
		}
		if est := nan.estRows; math.IsNaN(est) || math.IsInf(est, 0) || est != num.estRows {
			t.Errorf("%s: est rows %v with NaNs, %v without", sql, est, num.estRows)
		}
		if a, b := e.planDOP(nan, nan.stmt.Where), e.planDOP(num, num.stmt.Where); a != b {
			t.Errorf("%s: dop %d with NaNs, %d without", sql, a, b)
		}
		got := strings.ReplaceAll(strings.Join(nan.Explain(), "\n"), "fnan", "fnum")
		if want := strings.Join(num.Explain(), "\n"); got != want {
			t.Errorf("%s: EXPLAIN with NaNs\n%s\nwithout\n%s", sql, got, want)
		}
	}
}

// FuzzParallelParity holds a morsel-parallel run to the serial run of the
// same statement on the same engine: a parity-corpus statement over a
// fixture of scaled size, at any morsel size and dop, must return the same
// bag of rows, charge the same ops, end with a nil Err, and, when its plan
// has a parallel section, run on the pool (with more than one worker once
// the driver spans two morsels). A LIMIT case charges fewer ops than its
// unlimited form. Indexed, ranges and index joins run on the pool too.
func FuzzParallelParity(f *testing.F) {
	for _, seed := range []struct {
		stmt, scale uint8
		morsel      uint16
		dop         uint8
	}{
		{0, 6, 31, 2},   // SELECT *: resumable shape, parallel when not streamed
		{3, 0, 0, 2},    // DISTINCT over a scan, one-row morsels
		{10, 15, 63, 1}, // equi-join
		{15, 7, 16, 2},  // three-table chain: two partitioned builds
		{24, 3, 7, 0},   // grouped aggregate over a join on two columns
		{25, 9, 255, 1}, // grouped, ordered aggregate
		{26, 1, 5, 0},   // global aggregate
		{27, 12, 40, 2}, // ORDER BY ... LIMIT over an aggregate
		{30, 4, 9, 1},   // DISTINCT over a join
		{17, 2, 3, 2},   // self-join with a theta residual
		{18, 5, 11, 1},  // cross product: stays serial
		{32, 3, 16, 2},  // LIMIT over a join: short-circuits, stays serial
	} {
		f.Add(seed.stmt, seed.scale, seed.morsel, seed.dop, false)
	}
	for _, seed := range []struct {
		sql           string
		scale, morsel uint8
		dop           uint8
	}{
		{"SELECT id, amt FROM po WHERE cust >= 3 AND cust < 6", 10, 4, 2},                                                               // a range driver's candidates in morsels
		{"SELECT id FROM po WHERE cust > 17", 3, 1, 1},                                                                                  // one-sided, one-row morsels
		{"SELECT cu.cname, po.id, po.amt FROM cu, po WHERE cu.id = po.cust AND cu.region = 2", 12, 1, 2},                                // workers probe po's stored index
		{"SELECT re.rname, cu.cname, po.id FROM re, cu, po WHERE re.id = cu.region AND cu.id = po.cust AND re.rname = 'east'", 7, 2, 0}, // an index join over a hash join
		{"SELECT cu.tier, COUNT(*) FROM cu, po WHERE cu.id = po.cust AND cu.region = 3 GROUP BY cu.tier ORDER BY tier", 15, 3, 1},       // partials over an index join
	} {
		i := slices.IndexFunc(parityCorpus, func(tc parityCase) bool { return tc.sql == seed.sql })
		f.Add(uint8(i), seed.scale, uint16(seed.morsel), seed.dop, true)
	}
	f.Fuzz(func(t *testing.T, stmt, scale uint8, morselIn uint16, dopIn uint8, indexed bool) {
		tc := parityCorpus[int(stmt)%len(parityCorpus)]
		morsel, dop := 1+int(morselIn)%256, 2+int(dopIn)%3
		e := loadParityEngine(t, indexed, 40+40*int(scale%16))
		e.SetParallelMinRows(0)
		e.SetMorselSize(morsel)
		sel := mustParseSelect(t, tc.sql)
		run := func(dop int) (*relation.Relation, *PlanStream) {
			t.Helper()
			e.SetParallelism(dop)
			ps, err := e.openPlan(context.Background(), sel, false, false)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			defer ps.Close()
			rel := relation.Drain("result", ps.Schema(), ps)
			if err := ps.Err(); err != nil {
				t.Fatalf("%s at dop %d: %v", tc.sql, dop, err)
			}
			return rel, ps
		}
		serial, sps := run(1)
		par, pps := run(dop)
		if !par.EqualAsBag(serial) {
			t.Fatalf("%s: dop %d returned %d rows, serial %d, bags differ", tc.sql, dop, par.Len(), serial.Len())
		}
		if pps.Ops() != sps.Ops() {
			t.Fatalf("%s: ops at dop %d = %d, serial %d", tc.sql, dop, pps.Ops(), sps.Ops())
		}
		assertLimitShortCircuits(t, e, tc, pps.Ops())
		if pps.plan.par == nil {
			return
		}
		px := pps.run.par
		if px == nil {
			t.Fatalf("%s: plan has a parallel section but ran serially", tc.sql)
		}
		if len(px.rows) > morsel && pps.DOP() < 2 {
			t.Fatalf("%s: driver of %d rows in %d-row morsels ran at dop %d", tc.sql, len(px.rows), morsel, pps.DOP())
		}
	})
}

// TestJoinProjectBytes: a projection over a hash join is written by the join,
// so draining a 10 000-row join with a 3-column projection through PlanStream
// allocates at most 64 B per output row, build side, scans, exchange and
// statement parse included, serial and at dop 2. Before the join wrote the
// projected row, it wrote the 5-value concatenation and then its projection,
// 128 B a row on those two copies alone, and this read 130.5 B per row serial
// and 152.6 at dop 2 (the exchange allocating a batch whenever a fast
// consumer had not yet handed one back); now 50.0 and 59.3.
func TestJoinProjectBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const sql = "SELECT big.id, big.v, dim.dname FROM big, dim WHERE big.g = dim.g"
	e := newParallelEngine(t, 10000)
	e.SetParallelMinRows(1)
	drain := func() (rows, dop int) {
		t.Helper()
		ps, ok := e.ExecuteSQLPipelineCtx(context.Background(), sql)
		if !ok {
			t.Fatalf("pipeline declined %q", sql)
		}
		defer ps.Close()
		for _, ok := ps.Next(); ok; _, ok = ps.Next() {
			rows++
		}
		if err := ps.Err(); err != nil {
			t.Fatal(err)
		}
		return rows, ps.DOP()
	}
	for _, dop := range []int{1, 2} {
		e.SetParallelism(dop)
		drain() // compiles and caches the plan
		const runs = 5
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rows, got := 0, 0
		for i := 0; i < runs; i++ {
			rows, got = drain()
		}
		runtime.ReadMemStats(&m1)
		if rows != 10000 || got != dop {
			t.Fatalf("dop %d: %d rows at dop %d, want 10000 at dop %d", dop, rows, got, dop)
		}
		perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs*rows)
		t.Logf("dop %d: %.1f B per output row", dop, perRow)
		if perRow > 64 {
			t.Errorf("dop %d: %.1f B allocated per output row, budget 64", dop, perRow)
		}
	}
}

// TestExchangeRowsLiveUntilNextPull reads a parallel join in place, as the
// frame writer does: each worker copies its reused row into its exchange
// batch's value block, and the consumer hands a batch back to the workers
// only at the pull after the one that read its last row. So every row must
// still hold its values after the consumer pauses with it, whatever the
// workers do meanwhile with the batches they have. The pause falls on each
// batch's last row (batches are 128 rows but for a worker's last), where a
// batch handed back at the read would be refilled under the consumer.
func TestExchangeRowsLiveUntilNextPull(t *testing.T) {
	const sql = "SELECT big.id, big.v, dim.dname FROM big, dim WHERE big.g = dim.g"
	e := newParallelEngine(t, 2048)
	e.SetParallelMinRows(1)
	e.SetMorselSize(256)
	e.SetParallelism(2)
	ps, ok := e.ExecuteSQLPipelineCtx(context.Background(), sql)
	if !ok {
		t.Fatalf("pipeline declined %q", sql)
	}
	defer ps.Close()
	it := ps.inPlace()
	rows := 0
	for row, ok := it.Next(); ok; row, ok = it.Next() {
		want := slices.Clone(row)
		if rows%parBatchTuples == parBatchTuples-1 {
			time.Sleep(time.Millisecond) // the workers run on
		}
		if !slices.EqualFunc(row, want, relation.Value.Equal) {
			t.Fatalf("row %d changed before the next pull: %v, read as %v", rows, row, want)
		}
		rows++
	}
	if err := ps.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 2048 || ps.DOP() != 2 {
		t.Fatalf("%d rows at dop %d, want 2048 at dop 2", rows, ps.DOP())
	}
}
