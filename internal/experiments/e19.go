package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/remotedb"
)

// E19 exercises morsel-driven parallel execution in the remote engine: the
// same query shapes as E16 (scan, join, grouped aggregate) drained at
// DOP 1/2/4/8 over the same data.
//
// Part A — parity across the degree of parallelism. Parallel execution may
// not change what a query returns or how much work it charges: every shape
// must report the same cardinality and the same server ops at every DOP.
// Those are counts and repeat exactly; the tests assert them. The drain
// times beside them are wall-clock diagnostics of this host: real speedup
// needs idle cores, and no multicore measurement has been taken (ROADMAP).
//
// Part B — first-tuple latency. Parallelism must not buy throughput by
// selling interactivity: the bounded exchange hands the consumer the first
// worker batch as soon as any worker fills one. The pipelined join is
// streamed over TCP serially and at DOP 4; the first-tuple ratio is the
// price of the exchange hop (a diagnostic, like the drains).
//
// Part C — engine accounting. The cumulative parallel counters (streams,
// morsels, workers, serial fallbacks) after the sweep confirm the parallel
// path actually ran and the DOP-1 arms actually fell back to serial.

// E19Shape is one Part A measurement: a query shape drained at one DOP.
type E19Shape struct {
	Shape   string // "scan" | "join" | "agg"
	DOP     int
	DrainUS int64
	Tuples  int64
	Ops     int64 // server tuple operations (one run)
}

// E19Data is the result of one run.
type E19Data struct {
	Rows         int
	NumCPU       int
	GOMAXPROCS   int
	MorselTuples int // scan split granularity

	Shapes []E19Shape

	// Part B: median first-tuple latency of the streamed join, serial vs
	// DOP 4.
	FirstTupleSerialUS int64
	FirstTupleParUS    int64

	// Part C: cumulative engine counters after the whole run.
	ParStreams   int64
	ParMorsels   int64
	ParWorkers   int64
	ParFallbacks int64
}

// e19Drain executes sql engine-direct and returns the median drain time
// plus the (run-stable) ops and cardinality, warming once first so plan
// compilation is not in the timing.
func e19Drain(eng *remotedb.Engine, sql string, iters int) (drain time.Duration, ops, tuples int64, err error) {
	if _, _, err := eng.ExecuteSQL(sql); err != nil {
		return 0, 0, 0, err
	}
	ds := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		rel, o, err := eng.ExecuteSQL(sql)
		if err != nil {
			return 0, 0, 0, err
		}
		ds = append(ds, time.Since(t0))
		ops, tuples = o, int64(rel.Len())
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2], ops, tuples, nil
}

// RunE19 runs the sweep at the given scale.
func RunE19(rows, iters int) (*E19Data, error) {
	eng := remotedb.NewEngine()
	if err := e16Tables(eng, rows, 500); err != nil {
		return nil, err
	}
	data := &E19Data{
		Rows:         rows,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MorselTuples: eng.MorselSize(),
	}

	// Part A: the DOP sweep, engine-direct so the wire transport is not in
	// the drain. ParallelMinRows stays at its default — the workload is far
	// above the threshold, which is itself part of what the sweep exercises
	// (the DOP-1 arms count as fallbacks).
	for _, dop := range []int{1, 2, 4, 8} {
		eng.SetParallelism(dop)
		for _, a := range []struct{ shape, sql string }{{"scan", e16Scan}, {"join", e16Join}, {"agg", e16Agg}} {
			d, ops, tuples, err := e19Drain(eng, a.sql, iters)
			if err != nil {
				return nil, fmt.Errorf("%s at dop %d: %w", a.shape, dop, err)
			}
			data.Shapes = append(data.Shapes, E19Shape{Shape: a.shape, DOP: dop,
				DrainUS: d.Microseconds(), Tuples: tuples, Ops: ops})
		}
	}

	// Part B: streamed first-tuple latency. The exchange must not regress
	// interactivity: the first joined tuple at DOP 4 should cost about what
	// it costs serially.
	srv := remotedb.NewServerWithOptions(eng, remotedb.ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	p, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:        1,
		FrameTuples: 512,
		Costs:       remotedb.DefaultCosts(),
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	ftIters := 2*iters + 3 // first-tuple medians are noisier than drains
	eng.SetParallelism(1)
	ftSerial, _, _, err := e16Measure(p, e16Join, ftIters)
	if err != nil {
		return nil, fmt.Errorf("first-tuple serial: %w", err)
	}
	eng.SetParallelism(4)
	ftPar, _, _, err := e16Measure(p, e16Join, ftIters)
	if err != nil {
		return nil, fmt.Errorf("first-tuple dop 4: %w", err)
	}
	data.FirstTupleSerialUS = ftSerial.Microseconds()
	data.FirstTupleParUS = ftPar.Microseconds()

	st := eng.ParallelStats()
	data.ParStreams = st.Streams
	data.ParMorsels = st.Morsels
	data.ParWorkers = st.Workers
	data.ParFallbacks = st.SerialFallbacks
	return data, nil
}

// E19Render formats the measurement as the experiment table.
func E19Render(d *E19Data) *Table {
	t := &Table{
		ID:     "E19",
		Title:  "morsel-driven parallel execution: parity across DOP",
		Claim:  "eligible plans split base-table scans into morsels claimed by a bounded worker pool; the result and the server ops charged are the same at every DOP, and the bounded exchange keeps first-tuple latency near the serial price",
		Header: []string{"shape", "dop", "drain(us)", "tuples", "serverOps"},
	}
	for _, s := range d.Shapes {
		t.AddRow(s.Shape, fi(int64(s.DOP)), fi(s.DrainUS), fi(s.Tuples), fi(s.Ops))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("rows=%d, morsel=%d tuples, host NumCPU=%d GOMAXPROCS=%d; tuples and serverOps must not move with dop; drain times are wall-clock on this host, not a speedup claim",
			d.Rows, d.MorselTuples, d.NumCPU, d.GOMAXPROCS),
		fmt.Sprintf("streamed join first tuple: serial %dus vs dop4 %dus",
			d.FirstTupleSerialUS, d.FirstTupleParUS),
		fmt.Sprintf("engine counters: %d parallel streams, %d morsels, %d workers, %d serial fallbacks (the dop-1 arms)",
			d.ParStreams, d.ParMorsels, d.ParWorkers, d.ParFallbacks))
	return t
}

// E19ParallelExecution runs the experiment on the E16 40k-row workload.
func E19ParallelExecution() *Table {
	d, err := RunE19(40000, 3)
	if err != nil {
		return failed("E19", err)
	}
	return E19Render(d)
}
