package remotedb

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Morsel-driven parallel execution. A compiled Plan stays one immutable tree,
// and serial and parallel runs open the same operators on it; what runs on
// several goroutines is a *section*: the driver scan at the bottom of the left
// (probe) spine, the equi-join/filter/project chain above it, and optionally
// the aggregation that tops the chain. The driver's bound rows are split into
// fixed-size morsels claimed from an atomic cursor by a bounded pool of
// workers. Each worker opens the section top on a planRun of its own (its op
// counter, its cancellation checkpoint): its scan reads the morsels it
// claims, and each equi-join probes the relation.Index the stream's own run
// built once over its build side before the pool started, or an index join
// the stored one, read-only afterwards. A range scan's driver rows are its
// candidates, gathered in row order. Workers feed a bounded exchange, or per-worker aggregation
// partials (relation.AggAccum) merged in worker order. The stream's own run
// opens the plan root as a serial run would, reading the exchange or the
// merged aggregate in place of the section. Both sides charge ops at the
// same sites, so a statement's ops do not depend on the dop.
//
// Parallel plans keep the streaming contract but carry no resume token —
// their emission order is nondeterministic — so a mid-stream failure
// surfaces as an error rather than a corrupt skip-based resume
// (resilient_stream.go leaves tokenless streams unwrapped by design).

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
	joins  []*joinNode // equi-joins along the spine, bottom-up (build sides indexed before the pool starts)
	top    planNode    // top of the worker pipeline (excluding agg)
	agg    *aggNode    // non-nil: workers accumulate partials, the consumer merges
}

// boundary is the node whose output the stream's run reads from the workers
// instead of opening it: the aggregate (merged partials) when the section has
// one, else the section top (the exchange).
func (s *parSection) boundary() planNode {
	if s.agg != nil {
		return s.agg
	}
	return s.top
}

// findParSection walks the plan and returns its parallel section, or nil
// when the shape must stay serial. The rules are about blocking operators and
// short-circuiting LIMITs. The section is the pipeline from the driver scan
// up to the first blocking operator (filters, projections, equi-join probes),
// optionally topped by an aggregate, which splits into per-worker partials;
// above it the consumer may run sort, DISTINCT and LIMIT. A LIMIT or TopN
// directly over the pipeline keeps the plan serial: the pull model stops the
// scan after about LIMIT matches, which no degree of parallelism beats. Over
// an aggregate it cannot short-circuit, so fan-out still pays. A nested-loop
// join keeps the plan serial too (its build side has no key to index
// by), and so does a blocking operator inside the chain (a wide sort below
// the projection), which would end the pipeline below its top.
func findParSection(root planNode) *parSection {
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
			if len(t.buildCols) == 0 {
				return nil // nested-loop/cross spine: stays serial
			}
			sec.joins = append(sec.joins, t)
			n = t.left
		case *scanNode:
			sec.driver = t
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
// bound, gated by the optimizer's row threshold on the driver's examine
// estimate under where, the literals the run binds. The morsel count clamps
// it further once the driver snapshot is bound (parExec.start).
func (e *Engine) planDOP(p *Plan, where []SQLCond) int {
	if p.par == nil {
		return 1
	}
	dop := e.Parallelism()
	if dop <= 1 {
		return 1
	}
	if p.par.driver.examine(p.par.driver.path, where) < float64(e.ParallelMinRows()) {
		return 1
	}
	return dop
}

// parWorkerStats is one worker's accounting: written only by that worker,
// read by the consumer after the worker pool has drained (the exchange close
// and the merge both happen after wg.Wait, so the reads are ordered). They
// feed EXPLAIN ANALYZE's per-worker lines, where partition skew shows up as
// unbalanced rows/ops across workers, and, on an analyzed run, its per-node
// actuals inside the section (mergeActuals).
type parWorkerStats struct {
	rows    int64 // tuples the worker's pipeline emitted
	ops     int64 // tuple operations charged by the worker
	morsels int64 // morsels claimed
	analyze map[planNode]*nodeActual
}

// parExec is the per-execution state of a morsel-parallel plan run.
type parExec struct {
	e      *Engine
	run    *planRun // the stream's own run: bound scans, build-side accounting
	sec    *parSection
	dop    int
	morsel int

	ctx    context.Context
	cancel context.CancelFunc

	rows   []relation.Tuple // bound driver rows (snapshot or index lookup)
	cursor atomic.Int64     // next morsel offset

	// out is the exchange; free carries drained batches back to the
	// workers, with room for every batch out can hold, and batches counts
	// the batches the workers have made (parExec.batch). keep is whether
	// the boundary's consumer keeps rows; when it does not, the workers copy
	// each row into its batch's value block (gather).
	out, free   chan parBatch
	keep        bool
	batches     atomic.Int64
	wg          sync.WaitGroup
	interrupted atomic.Bool  // a worker stopped at a cancellation checkpoint
	workerOps   atomic.Int64 // per-worker ops, flushed at worker exit
	workers     []parWorkerStats
	aggs        []*relation.AggAccum
	failErr     error
}

// parBatch is one exchange batch: rows, and when the workers copy them, the
// block their values live in.
type parBatch struct {
	rows []relation.Tuple
	vals []relation.Value
}

// gather is what the stream's run opens in place of the section boundary,
// for a consumer that keeps rows or not: it starts the pool, then reads the
// merged aggregate (once every worker's partial is in) or the exchange. An
// interrupted pool yields nothing here; finish turns that into the stream's
// error.
//
// Workers open the section top for the same consumer. When it keeps rows,
// they are carved from each worker's arena; when it does not, the top's row
// may be reused at the worker's next pull, so each worker copies it into the
// batch's own value block. Either way the consumer hands a batch, with its
// block, back to the workers on the pull after the one that read its last
// row, so a row it reads is valid until its next pull.
func (px *parExec) gather(keep bool) relation.Iterator {
	px.keep = keep
	if err := px.start(); err != nil {
		px.failErr = err
		return relation.Empty()
	}
	if agg := px.sec.agg; agg != nil {
		px.wg.Wait()
		if px.interrupted.Load() {
			return relation.Empty()
		}
		// Merging worker 0's partial into an empty accumulator would copy
		// it exactly, so the others merge into it in place.
		merged := px.aggs[0]
		for _, acc := range px.aggs[1:] {
			merged.Merge(acc)
		}
		return relation.NewSliceIterator(merged.Emit())
	}
	// The channel is closed after wg.Wait, so exhaustion means every worker
	// has exited and their stats and interrupted flags are visible.
	var batch parBatch
	next := 0
	return relation.IteratorFunc(func() (relation.Tuple, bool) {
		for next == len(batch.rows) {
			if batch.rows != nil {
				select {
				case px.free <- batch:
				default:
				}
				batch = parBatch{}
			}
			b, ok := <-px.out
			if !ok {
				return nil, false
			}
			batch, next = b, 0
		}
		next++
		return batch.rows[next-1], true
	})
}

// start binds the driver rows, builds the section's join indexes, and
// launches the worker pool.
func (px *parExec) start() error {
	px.e.parStreams.Add(1)
	px.rows = px.run.boundRows(px.sec.driver)
	// Clamp the pool to the morsel count: fewer morsels than workers would
	// leave goroutines idle from birth.
	if m := (len(px.rows) + px.morsel - 1) / px.morsel; m > 0 && m < px.dop {
		px.dop = m
	}
	// Builds run bottom-up, as a serial open would run them, on this
	// goroutine with the stream's accounting (a build subtree may contain
	// anything, its own joins included), each into the join's state on the
	// stream's run, which every worker then reads.
	for _, jn := range px.sec.joins {
		if jn.stored(px.run) != nil {
			continue // an index join: the workers probe the stored index
		}
		st := state[joinState](px.run, jn)
		build := relation.NewGuardIterator(st.right.counted(px.run, px.run.openNode(jn.right, true)), 0, px.ctx.Err)
		st.build(jn, build)
		if err := build.Err(); err != nil {
			return err
		}
	}

	px.workers = make([]parWorkerStats, px.dop)
	if px.sec.agg != nil {
		px.aggs = make([]*relation.AggAccum, px.dop)
	} else {
		px.out = make(chan parBatch, px.dop*2)
		px.free = make(chan parBatch, px.dop*2)
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

// runWorker is one worker: the section opened on a run of its own, guarded
// by a cancellation checkpoint every DefaultGuardEvery tuples (the
// guard-iterator contract holds per worker, not per plan), feeding either
// the exchange or a per-worker aggregation partial.
func (px *parExec) runWorker(w int) {
	defer px.wg.Done()
	_, sp := px.e.tracer.Load().Start(px.ctx, "engine.parallel_worker")
	sp.Set("worker", strconv.Itoa(w))
	defer sp.End()
	ws := &px.workers[w]
	run := &planRun{plan: px.run.plan, scans: px.run.scans, states: make([]nodeState, len(px.run.states)), par: px, worker: ws}
	if px.run.analyze != nil {
		run.analyze = make(map[planNode]*nodeActual)
		ws.analyze = run.analyze
	}
	var top relation.Iterator
	if px.sec.agg != nil {
		top = run.openNode(px.sec.top, false) // the partial copies what it keeps
	} else {
		// The top is the boundary: its actuals are what the exchange
		// delivered, recorded on the stream's run.
		top = run.open(px.sec.top, px.keep)
	}
	var in relation.Iterator = relation.NewGuardIterator(top, relation.DefaultGuardEvery, px.ctx.Err)
	var acc *relation.AggAccum
	if agg := px.sec.agg; agg != nil {
		acc = relation.NewAggAccum(agg.groupCols, agg.specs, agg.groups)
		px.aggs[w] = acc
		in = &counter{run: run, in: in} // charged as aggNode.open charges its input
	}
	var batch parBatch
	for t, ok := in.Next(); ok; t, ok = in.Next() {
		ws.rows++
		if acc != nil {
			acc.Add(t)
			continue
		}
		if batch.rows == nil {
			if batch = px.batch(); batch.rows == nil {
				break
			}
		}
		if !px.keep {
			off := len(batch.vals)
			batch.vals = append(batch.vals, t...)
			t = batch.vals[off:len(batch.vals):len(batch.vals)]
		}
		if batch.rows = append(batch.rows, t); len(batch.rows) == parBatchTuples {
			if !px.send(batch) {
				break
			}
			batch = parBatch{}
		}
	}
	if len(batch.rows) > 0 {
		px.send(batch)
	}
	if px.ctx.Err() != nil {
		px.interrupted.Store(true)
	}
	ws.ops = run.ops
	px.workerOps.Add(run.ops)
}

// batch returns an empty exchange batch for a worker: one the consumer has
// handed back, a new one while fewer than cap(free) exist, or else the next
// one the consumer hands back, so a stream allocates at most cap(free)
// batches however fast its consumer reads; a batch with nil rows when the
// run is canceled first. Handing every batch back never overflows free, and
// since out holds them all, a send never blocks: a consumer that stops
// reading parks the workers here. A new batch for a consumer that keeps no
// rows comes with a value block sized for its rows.
func (px *parExec) batch() parBatch {
	select {
	case b := <-px.free:
		return parBatch{rows: b.rows[:0], vals: b.vals[:0]}
	default:
	}
	if px.batches.Add(1) <= int64(cap(px.free)) {
		b := parBatch{rows: make([]relation.Tuple, 0, parBatchTuples)}
		if !px.keep {
			b.vals = make([]relation.Value, 0, parBatchTuples*px.sec.top.Schema().Arity())
		}
		return b
	}
	select {
	case b := <-px.free:
		return parBatch{rows: b.rows[:0], vals: b.vals[:0]}
	case <-px.ctx.Done():
		return parBatch{}
	}
}

// send hands a batch to the consumer; false when the run was canceled first.
func (px *parExec) send(batch parBatch) bool {
	select {
	case px.out <- batch:
		return true
	case <-px.ctx.Done():
		return false
	}
}

// claim is the next morsel of the driver scan for worker ws, claimed from the
// shared cursor, or nil when none is left. A claim checks the context first,
// so a canceled run stops within one morsel even before the guard's
// checkpoint fires.
func (px *parExec) claim(ws *parWorkerStats) []relation.Tuple {
	if px.ctx.Err() != nil {
		return nil
	}
	lo := int(px.cursor.Add(int64(px.morsel))) - px.morsel
	if lo >= len(px.rows) {
		return nil
	}
	ws.morsels++
	px.e.parMorselsCt.Add(1)
	return px.rows[lo:min(lo+px.morsel, len(px.rows))]
}

// finish ends a stream that ran dry. Every worker has exited by then (the
// boundary was read to its end), so an interrupted pool is final: it becomes
// the stream's error, never a silently truncated result. The derived context
// is released on natural completion too.
func (px *parExec) finish() {
	if px.failErr == nil && px.interrupted.Load() {
		px.failErr = px.ctx.Err()
	}
	px.cancel()
}

// shutdown tears the pool down: cancel unparks every worker (they select on
// the exchange send vs ctx.Done, and their guards checkpoint every 64
// tuples), then wait for all of them. Idempotent; safe before the pool
// starts.
func (px *parExec) shutdown() {
	px.cancel()
	px.wg.Wait()
}

// mergeActuals adds every worker's per-node actuals into the stream's run, so
// a node inside the section reports the rows and ops it would at dop 1. Call
// after the pool has drained.
func (px *parExec) mergeActuals() {
	for i := range px.workers {
		for n, wa := range px.workers[i].analyze {
			na := px.run.actualFor(n)
			na.rows += wa.rows
			na.examined += wa.examined
			na.wallNS += wa.wallNS
		}
	}
}

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
