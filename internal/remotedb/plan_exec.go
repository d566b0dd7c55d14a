package remotedb

import (
	"context"
	"time"

	"repro/internal/relation"
)

// Plan execution. A Plan is a reusable template; each execution gets a
// planRun holding the base-table snapshots and the statement's literals bound
// under the engine lock, and the server-op counter. The iterator tree itself
// is built lazily on the first pull (outside the lock — snapshots are
// immutable), so opening a stream is cheap and first-tuple latency pays only
// for the blocking prefix (hash-join builds, sorts, aggregation) the plan
// actually contains.
//
// Each node opens knowing whether its consumer keeps rows past the next pull
// (keep). The keepers are the hash-join build and the nested-loop inner side,
// sort, TopN, DISTINCT and PlanStream.Next. A writer (a join or a projection)
// opened for a keeper carves its rows from the run's arena; opened for any
// other consumer it hands out one reused row, valid until the next pull, so a
// stream read in place (the frame writer) allocates nothing per row.

// planRun is the per-execution state of a plan.
type planRun struct {
	ops   int64
	scans []scanBinding // by FROM position (scanNode.pos)
	// analyze, when non-nil, collects per-node actuals (rows emitted,
	// inclusive wall time, scan rows examined) for EXPLAIN ANALYZE. It is nil
	// on ordinary executions, so the hot path pays nothing.
	analyze map[planNode]*nodeActual
	// par is the run's morsel-parallel execution (plan_parallel.go), nil on a
	// serial run. The stream's own run opens par's gather in place of the
	// section boundary. A worker's run (worker non-nil, the worker's
	// accounting) reads the driver scan from the morsels it claims and
	// probes the section's equi-joins through par's prebuilt tables.
	par    *parExec
	worker *parWorkerStats
	// arena holds the rows this run's writers write for consumers that keep
	// them.
	arena relation.Arena
}

// dst is where a writer opened for a consumer that keeps rows (keep) or not
// writes them.
func (run *planRun) dst(keep bool) *relation.Arena {
	if keep {
		return &run.arena
	}
	return nil
}

// nodeActual is what one plan node actually did during an analyzed run.
type nodeActual struct {
	rows     int64 // tuples the node emitted
	examined int64 // scan only: snapshot/index rows read before filtering
	wallNS   int64 // inclusive wall time (open + pulls, children included)
}

// actualFor returns (allocating) the node's actuals; nil when not analyzing.
func (run *planRun) actualFor(n planNode) *nodeActual {
	if run.analyze == nil {
		return nil
	}
	na := run.analyze[n]
	if na == nil {
		na = &nodeActual{}
		run.analyze[n] = na
	}
	return na
}

// scanBinding is a scan's snapshot of the live catalog and its literals:
// the table extension; for an index access path, the index (nil when it has
// been invalidated — the scan then falls back to filtering the full
// extension, which is always correct because the scan's conds include the
// equality predicates the index served) and its key; and the scan's
// conditions with the statement's literals in their slots.
type scanBinding struct {
	rows  []relation.Tuple
	ix    *relation.Index
	key   []relation.Value
	conds []relation.Cond
}

// counted wraps an iterator so every pulled tuple counts as one server-side
// operation, the unit the virtual cost model charges.
func (run *planRun) counted(in relation.Iterator) relation.Iterator {
	return relation.IteratorFunc(func() (relation.Tuple, bool) {
		t, ok := in.Next()
		if ok {
			run.ops++
		}
		return t, ok
	})
}

// openNode opens a node's iterator for a consumer that keeps its rows or
// not, and — when analyzing — times the open (where blocking operators do
// their work) and wraps the iterator so emitted rows and pull time accrue to
// the node. Wall times are inclusive of children, PostgreSQL-style.
func (run *planRun) openNode(n planNode, keep bool) relation.Iterator {
	return run.analyzed(n, func() relation.Iterator { return run.open(n, keep) })
}

// analyzed runs open, n's opener, and when analyzing charges its time and
// its iterator's emitted rows and pull time to n.
func (run *planRun) analyzed(n planNode, open func() relation.Iterator) relation.Iterator {
	if run.analyze == nil {
		return open()
	}
	na := run.actualFor(n)
	t0 := time.Now()
	it := open()
	na.wallNS += time.Since(t0).Nanoseconds()
	return relation.IteratorFunc(func() (relation.Tuple, bool) {
		p0 := time.Now()
		t, ok := it.Next()
		na.wallNS += time.Since(p0).Nanoseconds()
		if ok {
			na.rows++
		}
		return t, ok
	})
}

// open opens n's iterator; on a parallel stream's own run, the section
// boundary opens as the workers' output.
func (run *planRun) open(n planNode, keep bool) relation.Iterator {
	if run.isBoundary(n) {
		return run.par.gather(keep)
	}
	return n.open(run, keep)
}

// isBoundary reports whether n is the parallel section boundary the stream's
// own run reads from the workers.
func (run *planRun) isBoundary(n planNode) bool {
	px := run.par
	return px != nil && run.worker == nil && n == px.sec.boundary()
}

// open binds the plan to the catalog it was compiled against and to where,
// the WHERE of a statement of its shape whose binding chooses its join order:
// the caller holds e.mu and has just fetched a current p or built it
// (openPlan), so every table the plan names exists and no mutation can fall
// between the plan and the snapshots bound here. With analyze set, the run
// records per-node actuals. A streamed open of a resumable plan is always
// serial and mints the resume token for the snapshot it bound; otherwise, when
// the plan has a parallel section and the open-time DOP decision picks
// parallelism, the run carries a parExec.
func (p *Plan) open(ctx context.Context, e *Engine, where []SQLCond, analyze, streamed bool) *PlanStream {
	run := &planRun{scans: p.bind(e, where)}
	if analyze {
		run.analyze = make(map[planNode]*nodeActual)
	}
	ps := &PlanStream{plan: p, run: run}
	if sn := p.resumable; sn != nil && streamed {
		ps.token = ResumeToken{
			Table:   sn.table,
			Version: e.versions[sn.table],
			SnapLen: int64(len(run.scans[sn.pos].rows)),
		}
	} else if p.par != nil {
		if dop := e.planDOP(p); dop > 1 {
			if ctx == nil {
				ctx = context.Background()
			}
			pctx, cancel := context.WithCancel(ctx)
			run.par = &parExec{
				e: e, run: run, sec: p.par,
				dop: dop, morsel: e.MorselSize(),
				ctx: pctx, cancel: cancel,
			}
		} else {
			e.parFallbacks.Add(1)
		}
	}
	return ps
}

// bind resolves every scan against the catalog and where's literals. Serial
// runs and morsel workers read the same bindings. The conditions of all scans
// share one arena and their index keys another, so a run binds in at most
// three allocations however many scans its plan has.
func (p *Plan) bind(e *Engine, where []SQLCond) []scanBinding {
	bs := make([]scanBinding, len(p.scans))
	nconds, nkeys := 0, 0
	for _, sn := range p.scans {
		nconds += len(sn.conds)
		nkeys += len(sn.idxSlots)
	}
	conds := make([]relation.Cond, 0, nconds)
	keys := make([]relation.Value, 0, nkeys)
	for i, sn := range p.scans {
		b := &bs[i]
		b.rows = e.tables[sn.table].Tuples()
		for k := range sn.conds {
			conds = append(conds, sn.cond(k, where))
		}
		b.conds = conds[len(conds)-len(sn.conds) : len(conds) : len(conds)]
		if len(sn.idxCols) == 0 {
			continue
		}
		for _, ix := range e.indexes[sn.table] {
			if ix.Covers(sn.idxCols) {
				b.ix = ix
				break
			}
		}
		for _, s := range sn.idxSlots {
			keys = append(keys, where[s].RightVal)
		}
		b.key = keys[len(keys)-len(sn.idxSlots) : len(keys) : len(keys)]
	}
	return bs
}

// boundRows is what scan n reads on this run: the index lookup over the
// snapshot, its rows appended since the index was built included, when the
// access path survived binding, else the whole snapshot.
func (run *planRun) boundRows(n *scanNode) []relation.Tuple {
	b := run.scans[n.pos]
	if b.ix != nil {
		return b.ix.LookupIn(b.rows, b.key)
	}
	return b.rows
}

// --- Node iterators ---

// open reads the bound snapshot, whose rows outlive any pull: keep changes
// nothing.
func (n *scanNode) open(run *planRun, _ bool) relation.Iterator {
	var src relation.Iterator
	if run.worker != nil {
		src = run.par.morsels(run.worker) // a worker's only scan is the driver
	} else {
		src = relation.NewSliceIterator(run.boundRows(n))
	}
	src = run.counted(src)
	if na := run.actualFor(n); na != nil {
		inner := src
		src = relation.IteratorFunc(func() (relation.Tuple, bool) {
			t, ok := inner.Next()
			if ok {
				na.examined++
			}
			return t, ok
		})
	}
	return relation.Select(src, run.scans[n.pos].conds)
}

func (n *joinNode) open(run *planRun, keep bool) relation.Iterator {
	return n.openCols(run, nil, keep)
}

// openCols probes a worker's prebuilt table (built once for the pool, so the
// build side is not opened here) and otherwise builds from the right input,
// which the build keeps. The join writes each accepted row as the cols
// projection of left ++ right, or, with cols nil, as the concatenation
// itself, into the run's arena when keep is set.
func (n *joinNode) openCols(run *planRun, cols []int, keep bool) relation.Iterator {
	left := run.counted(run.openNode(n.left, false))
	if len(n.eq) == 0 {
		right := run.counted(run.openNode(n.right, true))
		return relation.NestedLoopJoin(left, right, n.left.Schema().Arity(), n.post, cols, run.dst(keep))
	}
	var pt *relation.PartitionedTable
	if run.worker != nil {
		pt = run.par.tables[n]
	} else {
		pt = relation.NewPartitionedTable(run.counted(run.openNode(n.right, true)), n.eq, 1, n.keys)
	}
	return pt.Probe(left, n.post, cols, run.dst(keep))
}

// open projects the child's rows onto n.cols. Over a join (not a parallel
// section's boundary, which opens through gather) the join writes the
// projected rows itself; its actuals are the projection's rows, which a 1-1
// projection leaves equal to its own, and their inclusive time.
func (n *projectNode) open(run *planRun, keep bool) relation.Iterator {
	// The identity over the child's arity (SELECT * over one table) ships the
	// child's tuples as they are: the op is still charged, only the per-tuple
	// copy is skipped.
	identity := len(n.cols) == n.child.Schema().Arity()
	for i, c := range n.cols {
		identity = identity && c == i
	}
	j, overJoin := n.child.(*joinNode)
	fused := overJoin && !identity && !run.isBoundary(j)
	var in relation.Iterator
	switch {
	case fused:
		in = run.analyzed(j, func() relation.Iterator { return j.openCols(run, n.cols, keep) })
	case identity:
		in = run.openNode(n.child, keep)
	default:
		in = run.openNode(n.child, false)
	}
	if n.counted {
		in = run.counted(in)
	}
	if identity || fused {
		return in
	}
	return relation.Project(in, n.cols, run.dst(keep))
}

func (n *filterNode) open(run *planRun, keep bool) relation.Iterator {
	return relation.Select(run.counted(run.openNode(n.child, keep)), n.conds)
}

// open aggregates the child's rows, which the group table copies what it
// keeps of. Its own rows outlive any pull.
func (n *aggNode) open(run *planRun, _ bool) relation.Iterator {
	acc := relation.NewAggAccum(n.groupCols, n.specs, n.groups)
	in := run.counted(run.openNode(n.child, false))
	for t, ok := in.Next(); ok; t, ok = in.Next() {
		acc.Add(t)
	}
	return relation.NewSliceIterator(acc.Emit())
}

// open sorts stably by n.cols, through Relation.SortBy, or keeps the first
// n.limit rows of that order in a bounded heap.
func (n *sortNode) open(run *planRun, _ bool) relation.Iterator {
	in := run.counted(run.openNode(n.child, true))
	if n.limit >= 0 {
		return relation.NewSliceIterator(relation.TopN(in, n.cols, n.limit))
	}
	return relation.Drain("sorted", n.Schema(), in).SortBy(n.cols).Iter()
}

// open passes on the rows it sees first, which it keeps to compare later
// rows with, so they outlive any pull.
func (n *distinctNode) open(run *planRun, _ bool) relation.Iterator {
	return relation.Distinct(run.counted(run.openNode(n.child, true)))
}

func (n *limitNode) open(run *planRun, keep bool) relation.Iterator {
	return relation.Limit(run.openNode(n.child, keep), n.n)
}

// PlanStream executes a bound plan as a pull stream: Next drives the
// iterator tree directly, so a consumer sees the first tuple as soon as the
// plan's blocking prefix allows — no full materialization. It is single
// consumer and must not be shared between goroutines.
type PlanStream struct {
	plan   *Plan
	run    *planRun
	it     relation.Iterator
	cached bool // the plan came out of the plan cache (slow-query log field)
	// token pins the bound snapshot of a streamed resumable plan for
	// mid-stream resume (resume.go); zero otherwise.
	token ResumeToken
	// skip is how many tuples a resumed stream pulls from the root and drops
	// before emitting (the prefix a broken connection already delivered).
	// Dropping above the root makes them count against LIMIT and ops exactly
	// as if they had been emitted, so a resumed delivery is the tail of the
	// uninterrupted one.
	skip int64
}

// Schema returns the result schema.
func (s *PlanStream) Schema() *relation.Schema { return s.plan.schema }

// Name returns the result relation name.
func (s *PlanStream) Name() string { return "result" }

// Ops returns the server-side tuple operations performed so far (for a
// parallel run: the consumer chain's plus every finished worker's).
func (s *PlanStream) Ops() int64 {
	if px := s.run.par; px != nil {
		return s.run.ops + px.workerOps.Load()
	}
	return s.run.ops
}

// Plan returns the compiled plan backing this stream.
func (s *PlanStream) Plan() *Plan { return s.plan }

// Cached reports whether the plan was served from the plan cache.
func (s *PlanStream) Cached() bool { return s.cached }

// ResumeToken identifies the snapshot a resumable stream reads, for the
// header frame. The zero token (empty Table) means the stream is not
// resumable: any shape but a serial single-table pipeline.
func (s *PlanStream) ResumeToken() ResumeToken { return s.token }

// Next returns the next result tuple, which stays valid after later pulls.
// The iterator tree is built on the first call; hash-join builds, sorts and
// a parallel run's worker pool start then.
func (s *PlanStream) Next() (relation.Tuple, bool) { return s.next(true) }

// inPlace reads s for a consumer that reads each row before the next pull and
// keeps none (the frame writer): a join or projection at the top writes every
// row into one reused row. Only a stream not yet pulled can be read in place,
// since the first pull builds the tree.
func (s *PlanStream) inPlace() relation.Iterator { return inPlaceRows{s} }

type inPlaceRows struct{ s *PlanStream }

func (r inPlaceRows) Next() (relation.Tuple, bool) { return r.s.next(false) }

// next pulls the next result row. The first pull builds the iterator tree for
// a consumer that keeps its rows or not (keep), and every later pull reads
// that tree.
func (s *PlanStream) next(keep bool) (relation.Tuple, bool) {
	if s.it == nil {
		s.it = s.run.openNode(s.plan.root, keep)
		for ; s.skip > 0; s.skip-- {
			if _, ok := s.it.Next(); !ok {
				break
			}
		}
	}
	t, ok := s.it.Next()
	if !ok && s.run.par != nil {
		s.run.par.finish()
	}
	return t, ok
}

// Err reports why the stream stopped before delivering every tuple — a
// cancellation observed at a worker checkpoint, for a parallel run — or nil
// for a complete result. Consumers that drain a PlanStream must check Err
// before treating the result as complete: parallel streams carry no resume
// token, so this is what keeps an interrupted run from reading as a
// silently truncated one.
func (s *PlanStream) Err() error {
	if px := s.run.par; px != nil {
		return px.failErr
	}
	return nil
}

// DOP returns the degree of parallelism the stream executes with (1 for the
// serial tree).
func (s *PlanStream) DOP() int {
	if px := s.run.par; px != nil {
		return px.dop
	}
	return 1
}

// Close releases the stream's resources. For a parallel run it cancels and
// joins every morsel worker — abandoning a partially-drained stream leaks no
// goroutines. Serial streams have nothing to release. Idempotent.
func (s *PlanStream) Close() error {
	if px := s.run.par; px != nil {
		px.shutdown()
	}
	return nil
}

// planForLocked returns the plan for sel's shape, compiling (and caching) it
// on a miss, for a caller that holds e.mu: the catalog cannot move, so the
// plan it returns is current until the caller lets go. A cached plan is
// served when it is current (planCurrentLocked) and sel's binding chooses its
// join order (Plan.orderHolds); either failing counts as a miss, and the
// plan compiled for sel replaces it. hit reports a cache hit (the slow-query
// log and EXPLAIN ANALYZE header surface it).
func (e *Engine) planForLocked(ctx context.Context, sel *SelectStmt) (p *Plan, hit bool, err error) {
	_, probe := e.tracer.Load().Start(ctx, "engine.plancache")
	key := sel.shapeKey()
	if p := e.plans.get(key, sel, func(p *Plan) bool { return e.planCurrentLocked(p) && p.orderHolds(sel.Where) }); p != nil {
		e.planHits.Add(1)
		probe.Set("hit", "true")
		probe.End()
		return p, true, nil
	}
	e.planMisses.Add(1)
	probe.Set("hit", "false")
	probe.End()
	_, opt := e.tracer.Load().Start(ctx, "engine.optimize")
	p, err = e.buildPlan(sel)
	opt.End()
	if err != nil {
		return nil, false, err
	}
	e.plans.put(key, p)
	return p, false, nil
}

// ownPlanLocked returns the plan sel runs, carrying sel's own estimates and
// literals, for the reports that show them (EXPLAIN, EXPLAIN ANALYZE,
// PlanForSQL): on a miss the plan just compiled from sel; on a hit a private
// compile of sel, the same tree by the plan-per-shape invariant, stamped with
// the served plan's tick. The caller holds e.mu.
func (e *Engine) ownPlanLocked(ctx context.Context, sel *SelectStmt) (p *Plan, hit bool, err error) {
	p, hit, err = e.planForLocked(ctx, sel)
	if err != nil || !hit {
		return p, hit, err
	}
	own, err := e.buildPlan(sel)
	if err != nil {
		return nil, false, err
	}
	own.epoch = p.epoch
	return own, true, nil
}

// planFor is ownPlanLocked under the read lock.
func (e *Engine) planFor(sel *SelectStmt) (*Plan, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, _, err := e.ownPlanLocked(context.Background(), sel)
	return p, err
}

// PlanForSQL compiles (or fetches from the plan cache) the plan for a
// SELECT statement without executing it. It is the programmatic face of
// EXPLAIN: experiments and tooling use it to read the optimizer's cost
// estimate and plan shape, which are the estimates of src itself.
func (e *Engine) PlanForSQL(src string) (*Plan, error) {
	st, err := ParseSQL(src)
	if err != nil {
		return nil, err
	}
	if st.Select == nil {
		return nil, errNotSelect
	}
	return e.planFor(st.Select)
}

// openPlan fetches-or-builds the plan for sel and binds it to the catalog and
// sel's literals under one hold of the read lock, so a concurrent mutation
// lands before the plan or after the bind, never between them: an open cannot
// lose a race with writers however fast they come. With analyze set the
// returned stream records per-node actuals against sel's own estimates;
// streamed marks an open whose consumer pulls the stream itself (Plan.open).
func (e *Engine) openPlan(ctx context.Context, sel *SelectStmt, analyze, streamed bool) (*PlanStream, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var p *Plan
	var hit bool
	var err error
	if analyze {
		p, hit, err = e.ownPlanLocked(ctx, sel)
	} else {
		p, hit, err = e.planForLocked(ctx, sel)
	}
	if err != nil {
		return nil, err
	}
	ps := p.open(ctx, e, sel.Where, analyze, streamed)
	ps.cached = hit
	return ps, nil
}

// executeSelect runs a SELECT and materializes the streamed result (the
// Execute API returns whole relations; the wire path streams the PlanStream
// directly).
func (e *Engine) executeSelect(ctx context.Context, sel *SelectStmt) (*relation.Relation, int64, error) {
	ctx, sp := e.tracer.Load().Start(ctx, "engine.execute")
	defer sp.End()
	ps, err := e.openPlan(ctx, sel, false, false)
	if err != nil {
		return nil, 0, err
	}
	defer ps.Close()
	rel := relation.Drain("result", ps.Schema(), ps)
	if err := ps.Err(); err != nil {
		return nil, 0, err
	}
	return rel, ps.Ops(), nil
}
