package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/remotedb"
)

// E14 measures the framed stream transport over real TCP connections.
//
// Part A — first-tuple latency. One client scans a large table. Through the
// materializing Exec the whole relation is shipped and decoded before the
// caller sees anything; through ExecStream the first frame arrives after
// frameTuples tuples, so the time-to-first-tuple is O(one frame) instead of
// O(result). Frame size trades first-tuple latency against per-frame overhead
// on the full drain.
//
// Part B — multi-session throughput. Eight session goroutines share one
// client against a server whose per-request service time is a deterministic
// 1ms stall (ListenerFaults as a service-time model) and which executes
// requests of one connection serially (ConnStreams = 1, the paper's
// session-oriented DBMS). A pool of N connections then overlaps N requests,
// so throughput scales with the pool by latency hiding — this holds even on
// a single-core host, which is why the experiment models service time as a
// stall rather than as CPU work.

// E14Frame is one Part A configuration: a transport and frame size with its
// measured latencies (medians over the iterations) and allocation rate.
type E14Frame struct {
	Transport    string // "materialized" | "stream"
	FrameTuples  int    // 0 (server default) on materialized
	FirstTupleUS int64  // median time to first tuple
	DrainUS      int64  // median time to full result
	AllocsPerOp  int64  // client-side allocations per query
	Tuples       int64  // result cardinality
}

// E14Pool is one Part B configuration: a pool size with its aggregate
// throughput and per-query latency percentiles.
type E14Pool struct {
	PoolSize int
	Sessions int
	Queries  int64
	QPS      float64
	P50US    int64
	P99US    int64
}

// E14Data is the result of the whole experiment.
type E14Data struct {
	ScanRows          int
	FirstTuple        []E14Frame
	Throughput        []E14Pool
	FirstTupleSpeedup float64 // materialized / best stream
	PoolScalingQPS    float64 // QPS(pool 8) / QPS(pool 1)
}

// e14ScanTable builds the Part A scan target: rows tuples of (int, int,
// string), large enough that shipping and decoding the whole result dominates.
func e14ScanTable(rows int) *relation.Relation {
	r := relation.New("scan", relation.NewSchema(
		relation.Attr{Name: "id", Kind: relation.KindInt},
		relation.Attr{Name: "grp", Kind: relation.KindInt},
		relation.Attr{Name: "tag", Kind: relation.KindString}))
	r.Grow(rows)
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(i)),
			relation.Int(int64(i % 97)),
			relation.Str(fmt.Sprintf("tag-%03d", i%251)),
		})
	}
	return r
}

// e14Median returns the median of a small sample.
func e14Median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}

const e14Scan = "SELECT * FROM scan"

// e14Query issues the scan once and reports the time to the first tuple, the
// time to the full result, and the result cardinality.
type e14Query func(p *remotedb.PoolClient) (first, drain time.Duration, n int64, err error)

// e14Materialized is the control arm: the first tuple is only available once
// Exec has drained the whole stream into a relation.
func e14Materialized(p *remotedb.PoolClient) (first, drain time.Duration, n int64, err error) {
	t0 := time.Now()
	res, err := p.Exec(e14Scan)
	if err != nil {
		return 0, 0, 0, err
	}
	d := time.Since(t0)
	return d, d, int64(res.Rel.Len()), nil
}

// e14Stream is the streamed arm: time to the first Next and time to
// exhaustion.
func e14Stream(p *remotedb.PoolClient) (first, drain time.Duration, n int64, err error) {
	t0 := time.Now()
	st, err := p.ExecStream(context.Background(), e14Scan)
	if err != nil {
		return 0, 0, 0, err
	}
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
	return first, time.Since(t0), n, st.Err()
}

// e14Measure times one arm over a single-connection client at one frame size
// (0: server default), medians over iters runs after one warm-up.
func e14Measure(addr, transport string, frameTuples, iters int, run e14Query) (E14Frame, error) {
	p, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:        1,
		FrameTuples: frameTuples,
		Costs:       remotedb.DefaultCosts(),
	})
	if err != nil {
		return E14Frame{}, err
	}
	defer p.Close()
	if _, _, _, err := run(p); err != nil { // warm up (connection, plan cache)
		return E14Frame{}, err
	}
	firsts := make([]time.Duration, 0, iters)
	drains := make([]time.Duration, 0, iters)
	var tuples int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < iters; i++ {
		first, drain, n, err := run(p)
		if err != nil {
			return E14Frame{}, err
		}
		firsts = append(firsts, first)
		drains = append(drains, drain)
		tuples = n
	}
	runtime.ReadMemStats(&ms1)
	return E14Frame{
		Transport:    transport,
		FrameTuples:  frameTuples,
		FirstTupleUS: e14Median(firsts).Microseconds(),
		DrainUS:      e14Median(drains).Microseconds(),
		AllocsPerOp:  int64(ms1.Mallocs-ms0.Mallocs) / int64(iters),
		Tuples:       tuples,
	}, nil
}

// e14MeasurePool runs Part B for one pool size: sessions goroutines issue
// perSession point queries each through one shared pool client against the
// 1ms-per-request session-serial server.
func e14MeasurePool(addr string, poolSize, sessions, perSession int) (E14Pool, error) {
	p, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:  poolSize,
		Costs: remotedb.DefaultCosts(),
	})
	if err != nil {
		return E14Pool{}, err
	}
	defer p.Close()
	if _, err := p.Exec("SELECT * FROM small"); err != nil { // warm up conn[0]
		return E14Pool{}, err
	}
	var (
		mu   sync.Mutex
		lats []time.Duration
		errs []error
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			for n := 0; n < perSession; n++ {
				q0 := time.Now()
				_, err := p.ExecCtx(context.Background(), "SELECT * FROM small")
				d := time.Since(q0)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					lats = append(lats, d)
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(t0)
	if len(errs) > 0 {
		return E14Pool{}, fmt.Errorf("pool %d: %d queries failed, first: %w", poolSize, len(errs), errs[0])
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	return E14Pool{
		PoolSize: poolSize,
		Sessions: sessions,
		Queries:  int64(len(lats)),
		QPS:      float64(len(lats)) / wall.Seconds(),
		P50US:    pct(0.50).Microseconds(),
		P99US:    pct(0.99).Microseconds(),
	}, nil
}

// RunE14 runs both parts at the given scale. Frame sizes and pool sizes are
// fixed: {64, 512, 4096} tuples and {1, 4, 8} connections.
func RunE14(scanRows, iters, sessions, perSession int) (*E14Data, error) {
	data := &E14Data{ScanRows: scanRows}

	// Part A: plain server (no faults), both arms side by side.
	engA := remotedb.NewEngine()
	engA.LoadTable(e14ScanTable(scanRows))
	srvA := remotedb.NewServerWithOptions(engA, remotedb.ServerOptions{})
	addrA, err := srvA.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srvA.Close()

	mat, err := e14Measure(addrA, "materialized", 0, iters, e14Materialized)
	if err != nil {
		return nil, err
	}
	data.FirstTuple = append(data.FirstTuple, mat)
	best := int64(0)
	for _, ft := range []int{64, 512, 4096} {
		f, err := e14Measure(addrA, "stream", ft, iters, e14Stream)
		if err != nil {
			return nil, err
		}
		data.FirstTuple = append(data.FirstTuple, f)
		if best == 0 || f.FirstTupleUS < best {
			best = f.FirstTupleUS
		}
	}
	if best > 0 {
		data.FirstTupleSpeedup = float64(mat.FirstTupleUS) / float64(best)
	}

	// Part B: session-serial server with a deterministic 1ms service stall.
	// Part A's scan garbage is collected first so GC assists do not bleed
	// into the throughput measurement.
	runtime.GC()
	engB := remotedb.NewEngine()
	small := relation.New("small", relation.NewSchema(
		relation.Attr{Name: "id", Kind: relation.KindInt},
		relation.Attr{Name: "tag", Kind: relation.KindString}))
	for i := 0; i < 64; i++ {
		small.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str(fmt.Sprintf("t%d", i))})
	}
	engB.LoadTable(small)
	srvB := remotedb.NewServerWithOptions(engB, remotedb.ServerOptions{
		Faults: &remotedb.ListenerFaults{Seed: 14, DelayRate: 1, Delay: time.Millisecond},
	})
	addrB, err := srvB.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srvB.Close()

	for _, ps := range []int{1, 4, 8} {
		r, err := e14MeasurePool(addrB, ps, sessions, perSession)
		if err != nil {
			return nil, err
		}
		data.Throughput = append(data.Throughput, r)
	}
	if len(data.Throughput) == 3 && data.Throughput[0].QPS > 0 {
		data.PoolScalingQPS = data.Throughput[2].QPS / data.Throughput[0].QPS
	}
	return data, nil
}

// E14Render formats the measurement as the experiment table.
func E14Render(d *E14Data) *Table {
	t := &Table{
		ID:     "E14",
		Title:  "stream transport: first-tuple latency and pooled throughput",
		Claim:  "framed streaming delivers the first tuple in O(one frame) instead of O(result), and a connection pool over a session-serial remote scales multi-session throughput by latency hiding",
		Header: []string{"config", "frame", "firstTuple(us)", "drain(us)", "allocs/op", "qps", "p50(us)", "p99(us)"},
	}
	for _, f := range d.FirstTuple {
		frame := "-"
		if f.FrameTuples > 0 {
			frame = fi(int64(f.FrameTuples))
		}
		t.AddRow(f.Transport, frame, fi(f.FirstTupleUS), fi(f.DrainUS),
			fi(f.AllocsPerOp), "-", "-", "-")
	}
	for _, p := range d.Throughput {
		t.AddRow(fmt.Sprintf("pool=%d", p.PoolSize), "-", "-", "-", "-",
			ff(p.QPS), fi(p.P50US), fi(p.P99US))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("scan is %d tuples; first-tuple speedup of the best frame size over materialized Exec: %.1fx", d.ScanRows, d.FirstTupleSpeedup),
		fmt.Sprintf("throughput is %d sessions sharing one client against a 1ms-per-request session-serial server; QPS scaling pool 1 -> 8: %.1fx",
			e14Sessions(d), d.PoolScalingQPS),
		"the 1ms service time is a deterministic stall (ListenerFaults delay), so pool scaling reflects latency hiding and holds on a single-core host")
	return t
}

func e14Sessions(d *E14Data) int {
	if len(d.Throughput) > 0 {
		return d.Throughput[0].Sessions
	}
	return 0
}

// E14StreamTransport runs the experiment at default scale. The scan is large
// enough that the materialized arm's O(result) first-tuple cost dominates
// constant factors (scheduling, GC) shared by both arms.
func E14StreamTransport() *Table {
	d, err := RunE14(60000, 5, 8, 25)
	if err != nil {
		return failed("E14", err)
	}
	return E14Render(d)
}
