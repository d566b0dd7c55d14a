package remotedb

import (
	"context"
	"math/bits"
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
//
// A run owns one iterator struct per plan node (planRun.states), made on the
// run's first open of the node and re-armed by every later one: the scan with
// its conditions, counting its own ops; the filter, the projection with its
// reused row, the limit and the join probe; and a counter for each input the
// blocking operators charge for. Its bindings' conditions and keys, each key
// lookup's buffer and each range scan's position bitmap, are the run's too. A
// plan keeps one closed serial run (Plan.putRun), so a statement whose shape
// is cached opens, streams and closes with no per-node allocation: a fresh
// run and a kept one open through the same structs. A stream that opens while the kept run is
// out takes a fresh one, and of two runs closing, the later is kept.
// Parallel and EXPLAIN ANALYZE runs are not kept.

// keptLookupRows bounds the lookup buffer a kept run keeps: a run back on its
// plan holds nothing sized by rows beyond it. keptMarkWords bounds a range
// scan's bitmap the same way, at 64 Ki rows of its table.
const (
	keptLookupRows = 64
	keptMarkWords  = 1024
)

// getRun returns p's kept run, or a new one.
func (p *Plan) getRun() *planRun {
	if run := p.kept.Swap(nil); run != nil {
		return run
	}
	return &planRun{
		plan:   p,
		scans:  make([]scanBinding, len(p.scans)),
		conds:  make([]relation.Cond, p.nconds),
		keys:   make([]relation.Value, p.nkeys),
		states: make([]nodeState, p.nodes),
	}
}

// putRun clears a closed serial run, so it pins nothing of its statement, and
// keeps it.
func (p *Plan) putRun(run *planRun) {
	run.release()
	p.kept.Store(run)
}

// planRun is the per-execution state of a plan.
type planRun struct {
	plan  *Plan
	ops   int64
	scans []scanBinding // by FROM position (scanNode.pos)
	// conds and keys hold every scan's bound conditions and index key
	// (scanBinding carves them), sized for the plan.
	conds []relation.Cond
	keys  []relation.Value
	// states are the nodes' iterator structs, by node slot.
	states []nodeState
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

// release clears what run bound and read, keeping its storage: the lookup
// buffers up to keptLookupRows rows each, and the bitmaps up to keptMarkWords
// words, cleared of what a walk left unread.
func (run *planRun) release() {
	for i := range run.scans {
		b := &run.scans[i]
		clear(b.lookup)
		lookup := b.lookup[:0]
		if cap(lookup) > keptLookupRows {
			lookup = nil
		}
		marks := b.marks[:0]
		if cap(marks) > keptMarkWords {
			marks = nil
		}
		clear(marks[:cap(marks)])
		*b = scanBinding{lookup: lookup, marks: marks}
	}
	clear(run.conds)
	clear(run.keys)
	for _, st := range run.states {
		if st != nil {
			st.release()
		}
	}
	run.arena = relation.Arena{}
	run.ops = 0
}

// nodeState is a node's iterator struct on one run.
type nodeState interface {
	// release drops every row, input, table and condition the struct holds,
	// keeping its storage.
	release()
}

// state returns run's iterator struct of type T for n, made on the run's
// first open of n.
func state[T any, PT interface {
	*T
	nodeState
}](run *planRun, n planNode) PT {
	i := n.slotted().id
	st, ok := run.states[i].(PT)
	if !ok {
		st = new(T)
		run.states[i] = st
	}
	return st
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
// predicates the index served) and a key lookup's key; and the scan's
// conditions with the statement's literals in their slots. lookup is the
// buffer a key lookup's matches are read into, and marks the bitmap of a
// range's candidate positions, both kept from run to run.
type scanBinding struct {
	rows   []relation.Tuple
	ix     *relation.Index
	key    []relation.Value
	conds  []relation.Cond
	lookup []relation.Tuple
	marks  []uint64
}

// counter passes its input on, charging every tuple pulled as one
// server-side operation, the unit the virtual cost model charges.
type counter struct {
	run *planRun
	in  relation.Iterator
}

func (c *counter) Next() (relation.Tuple, bool) {
	t, ok := c.in.Next()
	if ok {
		c.run.ops++
	}
	return t, ok
}

func (c *counter) release() { c.in = nil }

// counted re-arms c to charge in's tuples to run, and returns it.
func (c *counter) counted(run *planRun, in relation.Iterator) relation.Iterator {
	c.run, c.in = run, in
	return c
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
	run := p.getRun()
	run.bind(e, where)
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
		if dop := e.planDOP(p, where); dop > 1 {
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

// bind resolves every scan against the catalog and where's literals, into
// the run's own bindings, conditions and keys. Serial runs and morsel workers
// read the same bindings.
func (run *planRun) bind(e *Engine, where []SQLCond) {
	conds, keys := run.conds, run.keys
	for i, sn := range run.plan.scans {
		b := &run.scans[i]
		b.rows = e.tables[sn.table].Tuples()
		for k := range sn.conds {
			conds[k] = sn.cond(k, where)
		}
		b.conds, conds = conds[:len(sn.conds):len(sn.conds)], conds[len(sn.conds):]
		if len(sn.ixCols) == 0 {
			continue
		}
		for _, ix := range e.indexes[sn.table] {
			if ix.Covers(sn.ixCols) {
				b.ix = ix
				break
			}
		}
		if sn.path != keyLookup {
			continue
		}
		for k, s := range sn.idxSlots {
			keys[k] = where[s].RightVal
		}
		b.key, keys = keys[:len(sn.idxSlots):len(sn.idxSlots)], keys[len(sn.idxSlots):]
	}
}

// boundRows is what scan n reads on this run, when its index survived
// binding: a key lookup's or a range's matches over the snapshot, its rows
// appended since the index was built included, in row order, read into the
// binding's lookup buffer; otherwise the whole snapshot. A serial range scan
// walks its bitmap instead (scanNode.open); a parallel one's driver gathers
// its rows here.
func (run *planRun) boundRows(n *scanNode) []relation.Tuple {
	b := &run.scans[n.pos]
	switch {
	case b.ix == nil:
	case n.path == keyLookup:
		b.lookup = b.ix.AppendLookupIn(b.lookup[:0], b.rows, b.key)
		return b.lookup
	case n.path == rangeLookup:
		b.lookup = b.lookup[:0]
		w := markWalk{marks: run.marked(n)}
		for p, ok := w.next(); ok; p, ok = w.next() {
			b.lookup = append(b.lookup, b.rows[p])
		}
		b.lookup = append(b.lookup, b.rows[b.ix.Rows():]...)
		return b.lookup
	}
	return b.rows
}

// marked marks the candidates of range scan n in its binding's bitmap, sized
// for its index's rows, and returns the bitmap.
func (run *planRun) marked(n *scanNode) []uint64 {
	b := &run.scans[n.pos]
	words := (b.ix.Rows() + 63) / 64
	if cap(b.marks) < words {
		b.marks = make([]uint64, words)
	}
	b.marks = b.marks[:words]
	b.ix.MarkRange(b.marks, b.conds)
	return b.marks
}

// markWalk reads a bitmap's set positions in ascending order, clearing each
// word as it takes it, so a walk to the end leaves the bitmap clear.
type markWalk struct {
	marks []uint64
	w     int    // the next word to take
	word  uint64 // the taken word's positions not yet read
}

func (m *markWalk) next() (int, bool) {
	for m.word == 0 {
		if m.w == len(m.marks) {
			return 0, false
		}
		m.word, m.marks[m.w] = m.marks[m.w], 0
		m.w++
	}
	p := (m.w-1)*64 + bits.TrailingZeros64(m.word)
	m.word &= m.word - 1
	return p, true
}

// --- Node iterators ---

// scanIter reads a scan's bound rows — the snapshot, a key's matches, a
// range's candidates walked from its bitmap (walk) and then the rows from
// next on, or on a worker's run each morsel the worker claims — charging every
// row read as one op and passing on the rows its conditions accept.
type scanIter struct {
	run   *planRun
	rows  []relation.Tuple
	next  int
	walk  markWalk
	conds []relation.Cond
	na    *nodeActual // analyzing: counts the rows examined
}

func (s *scanIter) Next() (relation.Tuple, bool) {
	for {
		var t relation.Tuple
		if s.walk.marks != nil {
			p, ok := s.walk.next()
			if !ok {
				s.walk.marks = nil
				continue
			}
			t = s.rows[p]
		} else {
			if s.next == len(s.rows) {
				ws := s.run.worker
				if ws == nil {
					return nil, false
				}
				if s.rows = s.run.par.claim(ws); s.rows == nil {
					return nil, false
				}
				s.next = 0
			}
			t = s.rows[s.next]
			s.next++
		}
		s.run.ops++
		if s.na != nil {
			s.na.examined++
		}
		if relation.EvalAll(s.conds, t) {
			return t, true
		}
	}
}

func (s *scanIter) release() { *s = scanIter{} }

// open reads the bound snapshot, whose rows outlive any pull: keep changes
// nothing.
func (n *scanNode) open(run *planRun, _ bool) relation.Iterator {
	s := state[scanIter](run, n)
	b := &run.scans[n.pos]
	s.run, s.next, s.walk, s.conds, s.na = run, 0, markWalk{}, b.conds, run.actualFor(n)
	switch {
	case run.worker != nil:
		s.rows = nil // a worker's only scan is the driver: it claims morsels
	case n.path == rangeLookup && b.ix != nil:
		s.rows, s.next, s.walk.marks = b.rows, b.ix.Rows(), run.marked(n)
	default:
		s.rows = run.boundRows(n)
	}
	return s
}

// joinState is a join's counted inputs, its build rows and their index, and
// its probe. On a parallel run, the stream's own run holds each section
// join's build, and every worker's run probes it. An analyzed index join
// counts the rows its probe reads in read (analyzedProbe).
type joinState struct {
	left, right counter
	rows        []relation.Tuple
	ix          relation.Index
	probe       relation.ProbeIter
	read        int64
}

// release keeps the build's row slice and index arrays while the slice holds
// at most keptLookupRows rows, as a scan keeps its lookup buffer.
func (st *joinState) release() {
	st.left.release()
	st.right.release()
	st.probe.Reset(nil, nil, nil, nil, nil, nil)
	st.read = 0
	clear(st.rows)
	if cap(st.rows) > keptLookupRows {
		st.rows, st.ix = nil, relation.Index{}
	} else if st.rows != nil {
		st.rows = st.rows[:0]
		st.ix.Rebuild(st.rows, nil)
	}
}

// build drains in into the join's row slice, presized for the build's
// estimated rows, and indexes the rows on n's build columns.
func (st *joinState) build(n *joinNode, in relation.Iterator) *relation.Index {
	rows := st.rows[:0]
	if cap(rows) < n.rows {
		rows = make([]relation.Tuple, 0, n.rows)
	}
	for t, ok := in.Next(); ok; t, ok = in.Next() {
		rows = append(rows, t)
	}
	st.rows = rows
	st.ix.Rebuild(rows, n.buildCols)
	return &st.ix
}

func (n *joinNode) open(run *planRun, keep bool) relation.Iterator {
	return n.openCols(run, nil, keep)
}

// openCols probes, for an index join, the stored index its right scan bound;
// on a worker's run, the index the stream's own run built for the pool (so
// the build side is not opened here); and otherwise builds from the right
// input, which the build keeps. An index join charges each row its probe
// matches on the join columns as one op, as the scan it replaces would. The
// join writes each accepted row as the cols projection of left ++ right, or,
// with cols nil, as the concatenation itself, into the run's arena when keep
// is set.
func (n *joinNode) openCols(run *planRun, cols []int, keep bool) relation.Iterator {
	st := state[joinState](run, n)
	left := st.left.counted(run, run.openNode(n.left, false))
	if len(n.buildCols) == 0 {
		right := st.right.counted(run, run.openNode(n.right, true))
		return relation.NestedLoopJoin(left, right, n.left.Schema().Arity(), n.post, cols, run.dst(keep))
	}
	ix := n.stored(run)
	switch {
	case ix != nil:
		b := &run.scans[n.build]
		st.probe.Reset(ix, n.probeCols, left, n.post, cols, run.dst(keep))
		if na := run.actualFor(n); na != nil {
			st.probe.Inner(b.rows[ix.Rows():], b.conds, &st.read)
			return &analyzedProbe{st: st, run: run, na: na}
		}
		st.probe.Inner(b.rows[ix.Rows():], b.conds, &run.ops)
		return &st.probe
	case run.worker != nil:
		ix = &run.par.run.states[n.id].(*joinState).ix
	default:
		ix = st.build(n, st.right.counted(run, run.openNode(n.right, true)))
	}
	st.probe.Reset(ix, n.probeCols, left, n.post, cols, run.dst(keep))
	return &st.probe
}

// stored is the stored index an index join probes on run, nil for any other
// join or when the index did not survive binding.
func (n *joinNode) stored(run *planRun) *relation.Index {
	if !n.indexed {
		return nil
	}
	return run.scans[n.build].ix
}

// analyzedProbe is an analyzed index join's probe: it charges the rows the
// probe reads to the run's ops and to the join's rows examined.
type analyzedProbe struct {
	st  *joinState
	run *planRun
	na  *nodeActual
}

func (a *analyzedProbe) Next() (relation.Tuple, bool) {
	t, ok := a.st.probe.Next()
	a.run.ops += a.st.read
	a.na.examined += a.st.read
	a.st.read = 0
	return t, ok
}

// projectState is a projection's counted input and its projector.
type projectState struct {
	in   counter
	proj relation.ProjectIter
}

func (st *projectState) release() {
	st.in.release()
	st.proj.Reset(nil, nil, nil)
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
	st := state[projectState](run, n)
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
		in = st.in.counted(run, in)
	}
	if identity || fused {
		return in
	}
	st.proj.Reset(in, n.cols, run.dst(keep))
	return &st.proj
}

// filterState is a filter's counted input and its selection.
type filterState struct {
	in  counter
	sel relation.SelectIter
}

func (st *filterState) release() {
	st.in.release()
	st.sel.Reset(nil, nil)
}

func (n *filterNode) open(run *planRun, keep bool) relation.Iterator {
	st := state[filterState](run, n)
	st.sel.Reset(st.in.counted(run, run.openNode(n.child, keep)), n.conds)
	return &st.sel
}

// open aggregates the child's rows, which the group table copies what it
// keeps of. Its own rows outlive any pull.
func (n *aggNode) open(run *planRun, _ bool) relation.Iterator {
	acc := relation.NewAggAccum(n.groupCols, n.specs, n.groups)
	in := state[counter](run, n).counted(run, run.openNode(n.child, false))
	for t, ok := in.Next(); ok; t, ok = in.Next() {
		acc.Add(t)
	}
	return relation.NewSliceIterator(acc.Emit())
}

// open sorts stably by n.cols, through Relation.SortBy, or keeps the first
// n.limit rows of that order in a bounded heap.
func (n *sortNode) open(run *planRun, _ bool) relation.Iterator {
	in := state[counter](run, n).counted(run, run.openNode(n.child, true))
	if n.limit >= 0 {
		return relation.NewSliceIterator(relation.TopN(in, n.cols, n.limit))
	}
	return relation.Drain("sorted", n.Schema(), in).SortBy(n.cols).Iter()
}

// open passes on the rows it sees first, which it keeps to compare later
// rows with, so they outlive any pull.
func (n *distinctNode) open(run *planRun, _ bool) relation.Iterator {
	return relation.Distinct(state[counter](run, n).counted(run, run.openNode(n.child, true)))
}

// limitState is a limit's truncation.
type limitState struct{ lim relation.LimitIter }

func (st *limitState) release() { st.lim.Reset(nil, 0) }

func (n *limitNode) open(run *planRun, keep bool) relation.Iterator {
	st := state[limitState](run, n)
	st.lim.Reset(run.openNode(n.child, keep), n.n)
	return &st.lim
}

// PlanStream executes a bound plan as a pull stream: Next drives the
// iterator tree directly, so a consumer sees the first tuple as soon as the
// plan's blocking prefix allows — no full materialization. It is single
// consumer and must not be shared between goroutines.
type PlanStream struct {
	plan *Plan
	// run is the stream's execution, nil once Close has given it back to the
	// plan; ops is then what it counted. A kept run is serial, so its stream
	// then reads Err nil and DOP 1.
	run    *planRun
	ops    int64
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
	if s.run == nil {
		return s.ops
	}
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
	if s.run == nil {
		return nil, false
	}
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
	if s.run != nil && s.run.par != nil {
		return s.run.par.failErr
	}
	return nil
}

// DOP returns the degree of parallelism the stream executes with (1 for the
// serial tree).
func (s *PlanStream) DOP() int {
	if s.run != nil && s.run.par != nil {
		return s.run.par.dop
	}
	return 1
}

// Close releases the stream's resources. For a parallel run it cancels and
// joins every morsel worker — abandoning a partially-drained stream leaks no
// goroutines. A serial run goes back to its plan for a later stream of the
// shape, its ops copied into the stream first, so Ops, Err and DOP read as
// before Close. A parallel or analyzing run is not kept: the stream holds
// it, and its workers' stats and actuals stay readable. Idempotent.
func (s *PlanStream) Close() error {
	run := s.run
	if run == nil {
		return nil
	}
	if px := run.par; px != nil {
		px.shutdown()
	}
	if run.par != nil || run.analyze != nil {
		return nil
	}
	s.ops, s.run, s.it = run.ops, nil, nil
	s.plan.putRun(run)
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
