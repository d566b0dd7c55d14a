package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/subsume"
)

// innards is what a workload lets the per-layer probes reach: the layers'
// own objects, for calling their public entry points from outside, and the
// texts the pass feeds them.
type innards struct {
	cms         *cache.CMS // nil on a workload without a CMS
	eng         *ie.Engine // nil on a workload without an IE
	questions   []string   // AI queries of a pass
	caql        []string   // CAQL texts of a pass
	rowsWritten int        // rows a pass inserts
}

// tracedRun runs the traced pass and derives the per-layer metrics. ps are
// the untraced passes just measured. It reports whether the decorators kept
// the program on the path it takes without them.
func tracedRun(w workload, o options, ps []*pass, want []fingerprint, rep *report) (map[string]metric, bool, error) {
	tr := newTracer()
	if err := w.attach(tr); err != nil {
		return nil, false, err
	}
	// The client side was rebuilt over the decorators, so its caches are
	// cold again: one traced pass warms them and is thrown away.
	if _, err := runPass(w, tr, want); err != nil {
		return nil, false, err
	}
	tr.reset()
	traced, err := runPass(w, tr, want)
	if err != nil {
		return nil, false, err
	}
	rep.Attempted += 2 * w.ops()
	rep.Failed += traced.failed
	in := w.innards()
	// Gauges are read here, before the probes below touch the cache.
	var gauges cacheGauges
	if in.cms != nil {
		gauges = readCacheGauges(in.cms)
	}

	untraced := ps[len(ps)-1]
	faithful := true
	for _, c := range fidelityCounters {
		if traced.delta[c] != untraced.delta[c] {
			faithful = false
			warnf("decorator fidelity: %s is %d in the traced pass and %d in an untraced one", counterNames[c], traced.delta[c], untraced.delta[c])
		}
	}

	m := map[string]metric{}
	countMetrics(m, w, ps, in, gauges)
	traceMetrics(m, w.ops(), in, ps, traced, tr)
	textMetrics(m, in)
	replayMetrics(m, w.stk(), tr.statements())
	if err := walMetrics(m, w, ps, in, o); err != nil {
		return nil, false, err
	}
	relationMetrics(m, w.probe())

	if o.traceOut != "" {
		if err := tr.writeTo(o.traceOut); err != nil {
			return nil, false, fmt.Errorf("trace-out: %w", err)
		}
	}
	return m, faithful, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perOp(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(n)
}

type cacheGauges struct {
	elements int
	bytes    int64
	tuples   int64
}

func readCacheGauges(c *cache.CMS) cacheGauges {
	g := cacheGauges{elements: c.Manager().Len(), bytes: c.Manager().SizeBytes()}
	for _, e := range c.Manager().Elements() {
		if e.Materialized() {
			g.tuples += int64(e.Extension().Len())
		}
	}
	return g
}

// countMetrics are ratios of the program's own counters over one untraced
// pass. They repeat exactly unless listed in inexactCounters.
func countMetrics(m map[string]metric, w workload, ps []*pass, in innards, g cacheGauges) {
	d := ps[len(ps)-1].delta
	n := int64(w.ops())
	var writes int64
	classes := w.classes()
	for i := 0; i < w.ops(); i++ {
		if classes[w.class(i)] == "write" {
			writes++
		}
	}
	m["ie.caql_queries_per_ask"] = metric{ratio(d[cQueries], n), "count"}
	m["cache.hit_ratio"] = metric{ratio(d[cCacheHits], d[cQueries]), "ratio"}
	m["cache.exact_hit_ratio"] = metric{ratio(d[cExactHits], d[cQueries]), "ratio"}
	m["cache.partial_hit_ratio"] = metric{ratio(d[cPartialHits], d[cQueries]), "ratio"}
	m["cache.remote_requests_per_op"] = metric{ratio(d[cRequests], n), "count"}
	m["cache.remote_tuples_per_op"] = metric{ratio(d[cTuples], n), "count"}
	m["cache.evictions_per_op"] = metric{ratio(d[cEvictions], n), "count"}
	m["cache.prefetch_hits_per_op"] = metric{ratio(d[cPrefetchHits], n), "count"}
	m["cache.generalizations_per_op"] = metric{ratio(d[cGeneralizations], n), "count"}
	m["cache.epoch_invalidations_per_write"] = metric{ratio(d[cEpochInvalidations], writes), "count"}
	m["cache.elements_resident"] = metric{float64(g.elements), "count"}
	m["cache.bytes_resident"] = metric{float64(g.bytes), "B"}
	m["cache.bytes_per_cached_tuple"] = metric{ratio(g.bytes, g.tuples), "B"}

	m["remotedb.client.first_frame_us"] = metric{ratio(d[cFirstTupleNS], d[cStreams]) / 1e3, "us"}
	m["remotedb.client.frames_per_request"] = metric{ratio(d[cFramesRecv], d[cRequests]), "count"}
	m["remotedb.client.tuples_per_frame"] = metric{ratio(d[cTuples], d[cFramesRecv]), "count"}
	m["remotedb.sql.plancache_hit_ratio"] = metric{ratio(d[cPlanHits], d[cPlanHits]+d[cPlanMisses]), "ratio"}
	m["remotedb.sql.planned_share"] = metric{ratio(d[cPlanHits]+d[cPlanMisses], d[cRequests]), "ratio"}
	m["remotedb.exec.ops_per_result_tuple"] = metric{ratio(d[cServerOps], d[cTuples]), "count"}
	m["remotedb.exec.parallel_streams"] = metric{float64(d[cParStreams]), "count"}
	m["remotedb.exec.parallel_morsels"] = metric{float64(d[cParMorsels]), "count"}
	m["remotedb.exec.serial_fallbacks"] = metric{float64(d[cParFallbacks]), "count"}
	m["remotedb.wal.appends"] = metric{float64(d[cWALAppends]), "count"}
	m["remotedb.wal.syncs"] = metric{float64(d[cWALSyncs]), "count"}
	m["remotedb.wal.rotations"] = metric{float64(d[cWALRotations]), "count"}
}

// traceMetrics are self times from the traced pass's spans.
func traceMetrics(m map[string]metric, n int, in innards, ps []*pass, traced *pass, tr *tracer) {
	self, busy, count := tr.selfByName()
	var ieSelf int64
	if in.eng != nil {
		ieSelf = self[spanOp]
	}
	m["ie.self_us_per_ask"] = metric{us(ieSelf) / float64(n), "us"}
	queries := count[spanCacheQuery]
	cacheSelf := self[spanCacheQuery] + self[spanCacheStream] + self[spanCacheCatalog]
	m["cache.self_us_per_query"] = metric{us(cacheSelf) / float64(max(queries, 1)), "us"}
	// The client's busy time per request; replayMetrics takes the engine's
	// own time for the same statements off it.
	requests := count[spanClientExec]
	clientBusy := busy[spanClientExec] + busy[spanClientStream]
	m["remotedb.client.self_us_per_request"] = metric{us(clientBusy) / float64(max(requests, 1)), "us"}

	untraced := overPasses(ps, func(p *pass) float64 { return float64(p.wallNS) })
	m["obs.trace_overhead_ratio"] = metric{float64(traced.wallNS) / untraced, "ratio"}
	m["obs.spans_per_op"] = metric{float64(tr.spanCount()) / float64(n), "count"}
}

// textMetrics time the parsers, the translator, the advice compiler and the
// subsumption matcher on the texts of the pass, by calling them directly.
func textMetrics(m map[string]metric, in innards) {
	var atoms []logic.Atom
	t0 := time.Now()
	for _, q := range in.questions {
		if a, err := logic.ParseAtom(q); err == nil {
			atoms = append(atoms, a)
		}
	}
	m["logic.parse_us_per_ask"] = metric{perOp(time.Since(t0), len(in.questions)) / 1e3, "us"}

	t0 = time.Now()
	if in.eng != nil {
		for _, a := range atoms {
			in.eng.Advice(a)
		}
	}
	m["ie.advice_us_per_ask"] = metric{perOp(time.Since(t0), len(atoms)) / 1e3, "us"}

	var queries []*caql.Query
	t0 = time.Now()
	for _, text := range in.caql {
		if q, err := caql.Parse(text); err == nil {
			queries = append(queries, q)
		}
	}
	m["caql.parse_us_per_query"] = metric{perOp(time.Since(t0), len(in.caql)) / 1e3, "us"}

	t0 = time.Now()
	if in.cms != nil {
		for _, q := range queries {
			remotedb.TranslateCAQL(q, in.cms)
		}
	}
	m["cache.translate_us_per_query"] = metric{perOp(time.Since(t0), len(queries)) / 1e3, "us"}

	// Resident element definitions against a sample of the pass's queries
	// (against each other where the workload has no query texts).
	const maxElements, maxQueries = 200, 50
	var defs []*caql.Query
	if in.cms != nil {
		for _, e := range in.cms.Manager().Elements() {
			if len(defs) < maxElements {
				defs = append(defs, e.Def)
			}
		}
	}
	sample := queries
	if len(sample) == 0 {
		sample = defs
	}
	if len(sample) > maxQueries {
		step := len(sample) / maxQueries
		var s []*caql.Query
		for i := 0; i < len(sample) && len(s) < maxQueries; i += step {
			s = append(s, sample[i])
		}
		sample = s
	}
	t0 = time.Now()
	for _, e := range defs {
		for _, q := range sample {
			subsume.Match(e, q, q.Head.VarSet())
		}
	}
	m["subsume.match_us_per_pair"] = metric{perOp(time.Since(t0), len(defs)*len(sample)) / 1e3, "us"}
}

// stmtKind sorts a SELECT by what dominates its execution.
type stmtKind int

const (
	kindScan stmtKind = iota
	kindJoin
	kindAgg
	kindOther // not a SELECT
)

func classify(st *remotedb.Statement) stmtKind {
	sel := st.Select
	if sel == nil {
		return kindOther
	}
	if len(sel.GroupBy) > 0 {
		return kindAgg
	}
	for _, it := range sel.Items {
		if it.IsAgg {
			return kindAgg
		}
	}
	if len(sel.From) > 1 {
		return kindJoin
	}
	return kindScan
}

// replayMetrics replay the statements the traced pass sent, against the
// server-side layers' public entry points one at a time (ParseSQL,
// PlanForSQL, ExecuteSQLPipelineCtx) and then over the wire without the
// layers above the client, and attribute the differences. Only SELECTs are
// replayed: a replayed INSERT would change the database.
func replayMetrics(m map[string]metric, st *stack, stmts []string) {
	type sel struct {
		sql     string
		kind    stmtKind
		planned bool
	}
	var sels []sel
	t0 := time.Now()
	for _, sql := range stmts {
		ps, err := remotedb.ParseSQL(sql)
		if err == nil && ps.Select != nil {
			sels = append(sels, sel{sql: sql, kind: classify(ps)})
		}
	}
	parse := time.Since(t0)
	m["remotedb.sql.parse_us_per_stmt"] = metric{perOp(parse, len(stmts)) / 1e3, "us"}

	// Planning: only statements the resumable single-table scan path turns
	// down reach the planner.
	var planned int
	var plan time.Duration
	for i := range sels {
		if _, ok := st.eng.ExecuteSQLStream(sels[i].sql); ok {
			continue
		}
		sels[i].planned = true
		planned++
		p0 := time.Now()
		remotedb.ParseSQL(sels[i].sql)
		p1 := time.Now()
		st.eng.PlanForSQL(sels[i].sql)
		plan += time.Since(p1) - p1.Sub(p0)
	}
	if plan < 0 {
		plan = 0
	}
	m["remotedb.sql.plan_us_per_stmt"] = metric{perOp(plan, planned) / 1e3, "us"}

	// Engine-direct execution.
	var byKind [3]struct {
		ns     int64
		tuples int64
		ops    int64
	}
	var tuples int64
	runtime.GC()
	m0, _ := memNow()
	cpu0 := cpuNow()
	t0 = time.Now()
	for _, s := range sels {
		s0 := time.Now()
		rows, ops := execDirect(st.eng, s.sql)
		k := &byKind[s.kind]
		k.ns += int64(time.Since(s0))
		k.tuples += rows
		k.ops += ops
		tuples += rows
	}
	direct := time.Since(t0)
	directCPU := cpuNow() - cpu0
	m1, _ := memNow()
	directMallocs := m1 - m0
	m["remotedb.exec.us_per_stmt"] = metric{perOp(direct, len(sels)) / 1e3, "us"}
	m["remotedb.exec.scan_ns_per_tuple"] = metric{ratio(byKind[kindScan].ns, byKind[kindScan].tuples), "ns"}
	m["remotedb.exec.join_ns_per_tuple"] = metric{ratio(byKind[kindJoin].ns, byKind[kindJoin].tuples), "ns"}
	m["remotedb.exec.agg_ns_per_tuple"] = metric{ratio(byKind[kindAgg].ns, byKind[kindAgg].ops), "ns"}
	m["remotedb.exec.allocs_per_tuple"] = metric{ratio(int64(directMallocs), tuples), "count"}

	// The same statements over the wire, drained by the benchmark itself.
	runtime.GC()
	m0, _ = memNow()
	cpu0 = cpuNow()
	for _, s := range sels {
		if ts, err := st.pool.ExecStream(context.Background(), s.sql); err == nil {
			for {
				if _, ok := ts.Next(); !ok {
					break
				}
			}
		}
	}
	wireCPU := cpuNow() - cpu0
	m1, _ = memNow()
	wireMallocs := m1 - m0
	// Wall time hides the client behind the server on two cores, so the
	// client's share per tuple is taken from CPU time.
	m["remotedb.client.ns_per_tuple"] = metric{ratio(wireCPU-directCPU, tuples), "ns"}
	m["remotedb.client.allocs_per_tuple"] = metric{ratio(int64(wireMallocs)-int64(directMallocs), tuples), "count"}

	// Client self time per request: what the trace saw at the client, less
	// the engine's own time for the same statements.
	self := m["remotedb.client.self_us_per_request"]
	self.Value -= perOp(direct, len(sels)) / 1e3
	if self.Value < 0 {
		self.Value = 0
	}
	m["remotedb.client.self_us_per_request"] = self
}

// execDirect drains one SELECT on the engine with no wire in between, the
// way the server would.
func execDirect(e *remotedb.Engine, sql string) (rows, ops int64) {
	if es, ok := e.ExecuteSQLPipelineCtx(context.Background(), sql); ok {
		for {
			if _, more := es.Next(); !more {
				break
			}
			rows++
		}
		return rows, es.Ops()
	}
	rel, ops, err := e.ExecuteSQL(sql)
	if err != nil || rel == nil {
		return 0, ops
	}
	return int64(rel.Len()), ops
}

// walMetrics price the log: bytes per row from the engine's counters, the
// insert path on a durable against a volatile engine, the slowest write of a
// pass, and recovery.
func walMetrics(m map[string]metric, w workload, ps []*pass, in innards, o options) error {
	st := w.stk()
	d := ps[len(ps)-1].delta
	if in.rowsWritten > 0 {
		m["remotedb.wal.bytes_per_row"] = metric{ratio(d[cWALBytes], int64(in.rowsWritten)), "B"}
	} else {
		m["remotedb.wal.bytes_per_row"] = metric{ratio(st.loadBytes, st.loadRows), "B"}
	}

	stall := 0.0
	for c, name := range w.classes() {
		if name == "write" {
			stall = overPasses(ps, func(p *pass) float64 { return us(quantile(classLat(w, p.lat, c), 1)) })
		}
	}
	m["remotedb.wal.checkpoint_stall_us_max"] = metric{stall, "us"}

	// Engine.Insert, durable against volatile, over rows of the workload's
	// own largest table.
	src := w.probe().fact
	const batch, maxRows = 25, 20_000
	rows := src.Tuples()
	if len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	dir, err := freshDir(o.dataRoot, fmt.Sprintf("%s-%d-scratch", w.name(), os.Getpid()))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	durable, _, err := remotedb.OpenEngine(remotedb.Durability{Dir: dir, Fsync: remotedb.FsyncInterval, SegmentBytes: st.dur.SegmentBytes})
	if err != nil {
		return err
	}
	defer durable.CloseWAL()
	insert := func(e *remotedb.Engine) (time.Duration, error) {
		if err := e.CreateTable("t", src.Schema()); err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		for i := 0; i+batch <= len(rows); i += batch {
			if err := e.Insert("t", rows[i:i+batch]); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	dt, err := insert(durable)
	if err != nil {
		return err
	}
	vt, err := insert(remotedb.NewEngine())
	if err != nil {
		return err
	}
	inserted := len(rows) / batch * batch
	m["remotedb.wal.insert_us_per_row"] = metric{(perOp(dt, inserted) - perOp(vt, inserted)) / 1e3, "us"}
	return nil
}

// relationMetrics run the relation package's public operators over the
// workload's own tables. Small tables are gone over several times, so that
// every probe handles about the same number of tuples.
func relationMetrics(m map[string]metric, p relationProbe) {
	const targetTuples = 200_000
	reps := max(1, targetTuples/max(p.fact.Len(), 1))
	nIn := int64(reps * p.fact.Len())

	m["relation.value_bytes"] = metric{float64(unsafe.Sizeof(relation.Value{})), "B"}
	m["relation.bytes_per_row"] = metric{ratio(p.fact.SizeBytes(), int64(p.fact.Len())), "B"}

	measure := func(f func() int64) (ns, out int64, mallocs, bytes uint64) {
		runtime.GC()
		m0, b0 := memNow()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			out += f()
		}
		ns = int64(time.Since(t0))
		m1, b1 := memNow()
		return ns, out, m1 - m0, b1 - b0
	}

	ns, out, _, bytes := measure(func() int64 {
		it := relation.HashJoin(p.fact.Iter(), p.dim.Iter(), []relation.JoinCond{{Left: p.factCol, Right: p.dimCol}})
		return int64(relation.Count(it))
	})
	m["relation.hashjoin_ns_per_tuple"] = metric{ratio(ns, out), "ns"}
	m["relation.hashjoin_bytes_per_tuple"] = metric{ratio(int64(bytes), out), "B"}

	ns, _, mallocs, _ := measure(func() int64 {
		return int64(len(relation.Aggregate(p.fact.Iter(), []int{p.groupCol},
			[]relation.AggSpec{{Op: relation.AggCount}, {Op: relation.AggSum, Col: p.aggCol}})))
	})
	m["relation.aggregate_ns_per_tuple"] = metric{ratio(ns, nIn), "ns"}
	m["relation.aggregate_allocs_per_tuple"] = metric{ratio(int64(mallocs), nIn), "count"}

	ns, _, _, _ = measure(func() int64 {
		return int64(relation.Count(relation.Select(p.fact.Iter(), []relation.Cond{p.sel})))
	})
	m["relation.select_ns_per_tuple"] = metric{ratio(ns, nIn), "ns"}

	ns, _, _, _ = measure(func() int64 {
		return int64(relation.Drain("d", p.fact.Schema(), p.fact.Iter()).Len())
	})
	m["relation.drain_ns_per_tuple"] = metric{ratio(ns, nIn), "ns"}
}

// recovery closes the stack and recovers its data directory several times,
// as restarts would. It returns the median recovery time, the rows recovered
// and the rows of table (when it names one).
func recovery(st *stack, table string) (seconds float64, rows, tableRows int64, err error) {
	if err = st.close(); err != nil {
		return 0, 0, 0, err
	}
	const reopenings = 5
	var times []float64
	for r := 0; r < reopenings; r++ {
		runtime.GC()
		e, rs, err := remotedb.OpenEngine(st.dur)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("recover: %w", err)
		}
		times = append(times, rs.WallTime.Seconds())
		if r == reopenings-1 {
			for _, name := range e.Tables() {
				n, err := countRows(e, name)
				if err != nil {
					return 0, 0, 0, err
				}
				rows += n
				if name == table {
					tableRows = n
				}
			}
		}
		if err := e.CloseWAL(); err != nil {
			return 0, 0, 0, err
		}
	}
	return median(times), rows, tableRows, nil
}

func countRows(e *remotedb.Engine, table string) (int64, error) {
	rel, _, err := e.ExecuteSQL("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	if rel.Len() != 1 {
		return 0, fmt.Errorf("COUNT(*) FROM %s returned %d rows", table, rel.Len())
	}
	return rel.Tuple(0)[0].AsInt(), nil
}
