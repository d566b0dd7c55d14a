package remotedb

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Morsel-driven parallel execution. A compiled Plan stays a single immutable
// tree; what parallelizes is a *section* of it — the driver scan at the
// bottom of the left (probe) spine, the equi-join/filter/project chain above
// it, and optionally the aggregation that tops the chain. The driver's bound
// snapshot is split into fixed-size morsels claimed from an atomic cursor by
// a bounded pool of workers; each worker runs a private copy of the section
// pipeline (per-worker arenas, per-worker op counters, per-worker
// cancellation checkpoints) and feeds a bounded exchange channel the
// single-threaded consumer pulls from. Join build sides are drained once on
// the consumer, hash-partitioned, and their per-partition tables built in
// parallel; the finished table is read-only, so probes take no lock.
// Aggregations run as per-worker partial accumulators merged at the final
// exchange (relation.AggAccum).
//
// The optimizer decides serial vs parallel: LIMIT/TopN-dominated shapes
// (where pull-based short-circuiting beats fan-out) and plans whose driver
// is estimated under Engine.ParallelMinRows stay serial. Parallel plans keep
// the v2 streaming contract but carry no resume token — their emission order
// is nondeterministic — so a mid-stream failure surfaces as an error rather
// than a corrupt skip-based resume (resilient_stream.go leaves tokenless
// streams unwrapped by design).

const (
	// defaultMorselTuples is the scan split granularity: large enough that
	// cursor contention and channel traffic are noise, small enough that a
	// skewed filter cannot strand one worker with the whole table.
	defaultMorselTuples = 1024
	// parDefaultMinRows is the optimizer's serial/parallel threshold on the
	// driver scan's estimated rows: below it, one goroutine finishes before
	// workers would spin up.
	parDefaultMinRows = 8192
	// parBatchTuples is the exchange granularity: workers hand tuples to the
	// consumer in batches so the channel synchronizes per batch, not per
	// tuple. The channel is bounded at 2 batches per worker — backpressure: a
	// slow consumer (or a stalled wire) parks the workers instead of letting
	// results pile up in memory.
	parBatchTuples = 128
)

// parSection is the parallelizable slice of a plan, found at build time.
type parSection struct {
	driver *scanNode   // morsel source: the scan at the bottom of the probe spine
	joins  []*joinNode // equi-joins along the spine, bottom-up (build sides partition-built)
	top    planNode    // top of the worker pipeline (excluding agg)
	agg    *aggNode    // non-nil: workers accumulate partials, the consumer merges
	// estRows is the driver's examine estimate at plan time, the input to
	// the optimizer's serial/parallel threshold.
	estRows float64
}

// findParSection walks the plan and returns its parallel section, or nil
// when the shape must stay serial: LIMIT/TopN without a blocking aggregate
// underneath (short-circuiting beats fan-out), non-equi join spines, or any
// operator the worker pipeline does not mirror (e.g. a wide sort below the
// projection).
func findParSection(root planNode, examine map[*scanNode]float64) *parSection {
	n := root
	sawLimit := false
unwrap:
	for {
		switch t := n.(type) {
		case *limitNode:
			sawLimit = true
			n = t.child
		case *sortNode:
			if t.limit >= 0 {
				sawLimit = true // TopN: bounded heap, serial wins
			}
			n = t.child
		case *distinctNode:
			n = t.child
		default:
			break unwrap
		}
	}
	sec := &parSection{}
	if a, ok := n.(*aggNode); ok {
		sec.agg = a
		n = a.child
	}
	if sawLimit && sec.agg == nil {
		// A LIMIT/TopN over a streaming pipeline short-circuits: the pull
		// model stops the scan after ~LIMIT matches, which no degree of
		// parallelism beats. Over an aggregate the limit cannot short-circuit
		// through the blocking agg, so parallelism still applies.
		return nil
	}
	sec.top = n
	for {
		switch t := n.(type) {
		case *projectNode:
			n = t.child
		case *filterNode:
			n = t.child
		case *joinNode:
			if len(t.eq) == 0 {
				return nil // nested-loop/cross spine: stays serial
			}
			sec.joins = append(sec.joins, t)
			n = t.left
		case *scanNode:
			sec.driver = t
			sec.estRows = examine[t]
			for i, j := 0, len(sec.joins)-1; i < j; i, j = i+1, j-1 {
				sec.joins[i], sec.joins[j] = sec.joins[j], sec.joins[i]
			}
			return sec
		default:
			return nil
		}
	}
}

// planDOP is the open-time half of the DOP decision: the configured worker
// bound, gated by the optimizer's row threshold. The morsel count clamps it
// further once the driver snapshot is bound (parExec.start).
func (e *Engine) planDOP(p *Plan) int {
	if p.par == nil {
		return 1
	}
	dop := e.Parallelism()
	if dop <= 1 {
		return 1
	}
	if p.par.estRows < float64(e.ParallelMinRows()) {
		return 1
	}
	return dop
}

// parWorkerStats is one worker's accounting: written only by that worker,
// read by the consumer after the worker pool has drained (the exchange close
// and the merge both happen after wg.Wait, so the reads are ordered). They
// feed EXPLAIN ANALYZE's per-worker lines, where partition skew shows up as
// unbalanced rows/ops across workers.
type parWorkerStats struct {
	rows    int64 // tuples the worker's pipeline emitted
	ops     int64 // tuple operations charged by the worker
	morsels int64 // morsels claimed
}

// parExec is the per-execution state of a morsel-parallel plan run.
type parExec struct {
	e      *Engine
	plan   *Plan
	run    *planRun
	sec    *parSection
	dop    int
	morsel int

	ctx    context.Context
	cancel context.CancelFunc

	rows   []relation.Tuple // bound driver snapshot (or index lookup result)
	cursor atomic.Int64     // next morsel offset

	tables map[*joinNode]*relation.PartitionedTable

	out         chan []relation.Tuple
	wg          sync.WaitGroup
	started     bool
	interrupted atomic.Bool  // a worker stopped at a cancellation checkpoint
	workerOps   atomic.Int64 // per-worker ops, flushed at worker exit
	workers     []parWorkerStats
	aggs        []*relation.AggAccum

	tail     relation.Iterator // consumer chain above the section
	curBatch []relation.Tuple
	curIdx   int
	done     bool
	failErr  error
}

// start binds the driver rows, runs the partitioned join builds, and
// launches the worker pool. Called lazily on the first pull, like the serial
// path's blocking prefix.
func (px *parExec) start() error {
	px.started = true
	px.e.parStreams.Add(1)

	// Bind the driver exactly as the serial scan would: index lookup when
	// the access path survived binding, else the full snapshot.
	b := px.run.scans[px.sec.driver]
	if b.ix != nil {
		px.rows = b.ix.Lookup(px.sec.driver.idxVals)
	} else {
		px.rows = b.rows
	}
	// Clamp the pool to the morsel count: fewer morsels than workers would
	// leave goroutines idle from birth.
	if m := (len(px.rows) + px.morsel - 1) / px.morsel; m > 0 && m < px.dop {
		px.dop = m
	}
	if px.dop < 1 {
		px.dop = 1
	}

	// Partitioned parallel builds, bottom-up. The build subtree itself runs
	// serially on this goroutine with the plan's ordinary accounting (it may
	// contain anything, including its own joins); only the hash-table
	// construction fans out, one goroutine per partition, each touching only
	// its own partition. The finished tables are read-only — probes by any
	// number of workers take no lock.
	px.tables = make(map[*joinNode]*relation.PartitionedTable, len(px.sec.joins))
	for _, jn := range px.sec.joins {
		pt := relation.NewPartitionedTable(jn.eq, px.dop)
		build := relation.NewGuardIterator(
			px.run.counted(px.run.openNode(jn.right)), 0,
			func() error { return px.ctx.Err() })
		for t, ok := build.Next(); ok; t, ok = build.Next() {
			pt.Add(t)
		}
		if err := build.Err(); err != nil {
			return err
		}
		var bwg sync.WaitGroup
		for i := 0; i < pt.Parts(); i++ {
			bwg.Add(1)
			go func(i int) {
				defer bwg.Done()
				pt.BuildPart(i)
			}(i)
		}
		bwg.Wait()
		px.tables[jn] = pt
	}

	px.workers = make([]parWorkerStats, px.dop)
	if px.sec.agg != nil {
		px.aggs = make([]*relation.AggAccum, px.dop)
	} else {
		px.out = make(chan []relation.Tuple, px.dop*2)
	}
	px.wg.Add(px.dop)
	for w := 0; w < px.dop; w++ {
		px.e.parWorkerRt.Add(1)
		go px.runWorker(w)
	}
	if px.out != nil {
		go func() {
			px.wg.Wait()
			close(px.out)
		}()
	}
	return nil
}

// runWorker is one worker: a private pipeline over claimed morsels, guarded
// by a per-worker cancellation checkpoint every DefaultGuardEvery tuples (the
// guard-iterator contract holds per worker, not per plan), feeding either the
// exchange or a per-worker aggregation partial.
func (px *parExec) runWorker(w int) {
	defer px.wg.Done()
	_, sp := px.e.tracer.Load().Start(px.ctx, "engine.parallel_worker")
	sp.Set("worker", strconv.Itoa(w))
	defer sp.End()
	ws := &px.workers[w]
	guard := relation.NewGuardIterator(px.workerIter(ws, px.sec.top), relation.DefaultGuardEvery,
		func() error { return px.ctx.Err() })

	if px.sec.agg != nil {
		acc := relation.NewAggAccum(px.sec.agg.groupCols, px.sec.agg.specs)
		for {
			t, ok := guard.Next()
			if !ok {
				break
			}
			ws.ops++ // serial parity: the agg charges one op per input tuple
			ws.rows++
			acc.Add(t)
		}
		px.aggs[w] = acc
	} else {
		batch := make([]relation.Tuple, 0, parBatchTuples)
		send := func() bool {
			if len(batch) == 0 {
				return true
			}
			select {
			case px.out <- batch:
				batch = make([]relation.Tuple, 0, parBatchTuples)
				return true
			case <-px.ctx.Done():
				return false
			}
		}
		for {
			t, ok := guard.Next()
			if !ok {
				break
			}
			ws.rows++
			batch = append(batch, t)
			if len(batch) == parBatchTuples && !send() {
				break
			}
		}
		send()
	}
	if px.ctx.Err() != nil {
		px.interrupted.Store(true)
	}
	px.workerOps.Add(ws.ops)
}

// workerIter builds worker w's private pipeline for the section: morsel scan
// at the bottom, lock-free probes of the shared partitioned tables above,
// filters/projections in between. Op accounting mirrors the serial
// operators' exactly (each operator charges its input), so a parallel run's
// total ops equal the serial run's.
func (px *parExec) workerIter(ws *parWorkerStats, n planNode) relation.Iterator {
	switch t := n.(type) {
	case *scanNode:
		return px.morselIter(ws)
	case *projectNode:
		in := px.workerIter(ws, t.child)
		if t.counted {
			in = countInto(ws, in)
		}
		return t.project(in)
	case *filterNode:
		return relation.Select(countInto(ws, px.workerIter(ws, t.child)), t.conds)
	case *joinNode:
		left := countInto(ws, px.workerIter(ws, t.left))
		it := px.tables[t].Probe(left)
		if len(t.post) > 0 {
			it = relation.Select(it, t.post)
		}
		return it
	default:
		panic(fmt.Sprintf("remotedb: parallel worker pipeline reached %T, which findParSection excludes", n))
	}
}

// morselIter claims morsels from the shared cursor and scans them with the
// driver's pushed-down predicates, charging one op per examined row like the
// serial scan. The claim loop checks the context, so cancellation latency is
// bounded by one morsel even before the guard's checkpoint fires.
func (px *parExec) morselIter(ws *parWorkerStats) relation.Iterator {
	sn := px.sec.driver
	var cur []relation.Tuple
	pos := 0
	return relation.IteratorFunc(func() (relation.Tuple, bool) {
		for {
			for pos < len(cur) {
				t := cur[pos]
				pos++
				ws.ops++
				if relation.EvalAll(sn.conds, t) {
					return t, true
				}
			}
			if px.ctx.Err() != nil {
				return nil, false
			}
			lo := int(px.cursor.Add(int64(px.morsel))) - px.morsel
			if lo >= len(px.rows) {
				return nil, false
			}
			hi := lo + px.morsel
			if hi > len(px.rows) {
				hi = len(px.rows)
			}
			ws.morsels++
			px.e.parMorselsCt.Add(1)
			cur, pos = px.rows[lo:hi], 0
		}
	})
}

// countInto charges one worker op per pulled tuple, the parallel counterpart
// of planRun.counted.
func countInto(ws *parWorkerStats, in relation.Iterator) relation.Iterator {
	return relation.IteratorFunc(func() (relation.Tuple, bool) {
		t, ok := in.Next()
		if ok {
			ws.ops++
		}
		return t, ok
	})
}

// next is the consumer side: it lazily starts the pool, then drives the
// consumer chain (the plan nodes above the section — sort, distinct, limit —
// run single-threaded here, pulling from the exchange or the merged
// aggregate). A cancellation never truncates silently: the stream ends and
// err() reports why.
func (px *parExec) next() (relation.Tuple, bool) {
	if px.done {
		return nil, false
	}
	if !px.started {
		if err := px.start(); err != nil {
			px.done, px.failErr = true, err
			px.cancel()
			return nil, false
		}
	}
	if px.tail == nil {
		px.tail = px.consumerIter(px.plan.root)
	}
	t, ok := px.tail.Next()
	if !ok {
		px.done = true
		if px.failErr == nil && px.interrupted.Load() {
			px.failErr = px.ctx.Err()
			if px.failErr == nil {
				px.failErr = context.Canceled
			}
		}
		px.cancel() // release the derived context on natural completion too
	}
	return t, ok
}

// consumerIter mirrors the serial open for the nodes above the section,
// substituting the exchange (or the merged aggregate) at the boundary. Op
// accounting matches the serial operators': sort and distinct charge their
// input, limit does not.
func (px *parExec) consumerIter(n planNode) relation.Iterator {
	var boundary planNode = px.sec.top
	if px.sec.agg != nil {
		boundary = px.sec.agg
	}
	if n == boundary {
		if px.sec.agg != nil {
			return px.aggMergeIter()
		}
		return px.exchangeIter()
	}
	switch t := n.(type) {
	case *limitNode:
		return t.openOn(px.consumerIter(t.child))
	case *sortNode:
		return t.openOn(px.run.counted(px.consumerIter(t.child)))
	case *distinctNode:
		return t.openOn(px.run.counted(px.consumerIter(t.child)))
	default:
		panic(fmt.Sprintf("remotedb: parallel consumer chain reached %T, which findParSection excludes", n))
	}
}

// aggMergeIter waits for every worker's partial and merges them in worker
// order. An interrupted pool emits nothing — next() surfaces the
// cancellation as an error instead of a partial aggregate.
func (px *parExec) aggMergeIter() relation.Iterator {
	px.wg.Wait()
	if px.interrupted.Load() {
		return relation.NewSliceIterator(nil)
	}
	merged := relation.NewAggAccum(px.sec.agg.groupCols, px.sec.agg.specs)
	for _, acc := range px.aggs {
		merged.Merge(acc)
	}
	return relation.NewSliceIterator(merged.Emit())
}

// exchangeIter pulls batches off the bounded exchange. The channel is closed
// after wg.Wait, so exhaustion means every worker has exited and their stats
// and interrupted flags are visible.
func (px *parExec) exchangeIter() relation.Iterator {
	return relation.IteratorFunc(func() (relation.Tuple, bool) {
		for {
			if px.curIdx < len(px.curBatch) {
				t := px.curBatch[px.curIdx]
				px.curIdx++
				return t, true
			}
			b, ok := <-px.out
			if !ok {
				return nil, false
			}
			px.curBatch, px.curIdx = b, 0
		}
	})
}

// shutdown tears the pool down: cancel unparks every worker (they select on
// the exchange send vs ctx.Done, and their guards checkpoint every 64
// tuples), then wait for all of them. Idempotent; safe before the first pull.
func (px *parExec) shutdown() {
	px.done = true
	if !px.started {
		px.cancel()
		return
	}
	px.cancel()
	px.wg.Wait()
}

// err reports why the stream stopped early (nil for a complete delivery).
func (px *parExec) err() error { return px.failErr }

// ops returns the workers' accumulated tuple operations.
func (px *parExec) ops() int64 { return px.workerOps.Load() }

// workerLines renders the per-worker actuals for EXPLAIN ANALYZE: skewed
// partitions show up as unbalanced rows/ops across workers. Call after the
// stream has drained.
func (px *parExec) workerLines() []string {
	total := int64(0)
	for i := range px.workers {
		total += px.workers[i].morsels
	}
	lines := make([]string, 0, len(px.workers)+1)
	lines = append(lines, fmt.Sprintf("parallel: dop %d | morsel %d tuples | %d morsels dispatched", px.dop, px.morsel, total))
	for i := range px.workers {
		ws := &px.workers[i]
		lines = append(lines, fmt.Sprintf("  worker %d: rows %d, ops %d, morsels %d", i, ws.rows, ws.ops, ws.morsels))
	}
	return lines
}
