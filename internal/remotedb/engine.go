package remotedb

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/relation"
)

// Engine is the remote DBMS proper: a thread-safe store of base relations
// with a conjunctive select-project-join executor, hash indexes, and catalog
// statistics. It is deliberately a *conventional* engine: it supports only
// its SQL subset, keeping the "the remote DBMS does not support all CAQL
// operations, but the CMS does" asymmetry of Section 5.3.3(d).
type Engine struct {
	mu      sync.RWMutex
	tables  map[string]*relation.Relation
	indexes map[string][]*relation.Index
	// versions is each table's data version: the clock tick (see epoch) of
	// the last change to its extension — create, load, insert, restart.
	// Because versions and epochs come from one clock, anything stamped with
	// an epoch E (a cached plan, a CMS view) is stale for table t exactly
	// when versions[t] > E. A stream resume token pins (table, version), so a
	// token minted against the pre-mutation extension is refused rather than
	// silently resumed against a different table state; the client-side-skip
	// fallback re-reads the (identical) prefix instead.
	versions map[string]uint64
	// meta holds per-table column statistics (NDV, min/max), maintained at
	// CreateTable/LoadTable/Insert for the cost-based optimizer.
	meta map[string]*tableMeta

	// epoch is the engine clock: every mutation, data or DDL, takes its next
	// tick, so it is the high-water mark of every version. It moves only
	// under mu's write lock; readers that need no consistent view of versions
	// load it without the lock.
	epoch atomic.Uint64
	// ddlEpoch is the tick of the last DDL (CreateTable, LoadTable,
	// CreateIndex, restart): access paths and schemas a plan compiled before
	// it may no longer exist. Guarded by mu.
	ddlEpoch uint64

	plans      *planCache
	planHits   atomic.Int64
	planMisses atomic.Int64

	// tracer records engine-side spans (plan-cache probe, optimize, execute).
	// Nil (the default) disables tracing at near-zero cost; the atomic
	// pointer lets a server install it after construction without a lock.
	tracer atomic.Pointer[obs.Tracer]

	// wal, when non-nil, makes every mutation durable: each is logged (and
	// synced per the fsync policy) BEFORE it is applied in memory, so an
	// acknowledged write is on disk by the time its reply leaves the engine.
	// Guarded by mu, like the catalog it protects.
	wal *WAL
	// walErr is the sticky durability failure: once an append or rotation
	// fails, every subsequent mutation returns it rather than silently
	// diverging memory from the log. Guarded by mu.
	walErr error
	// rowBuf is the column batch of the insert being logged, reused from
	// insert to insert (and dropped when one grew it past reuseLimit).
	// Guarded by mu.
	rowBuf []byte

	// Morsel-driven parallel execution knobs (plan_parallel.go). parallelism
	// is the worker-pool bound for eligible plans (<= 1: serial); parMinRows
	// is the optimizer's cost threshold — a plan whose driver scan is
	// estimated below it stays serial, so tiny inputs never pay fan-out
	// overhead; morselSize is the scan split granularity.
	parallelism atomic.Int32
	parMinRows  atomic.Int64
	morselSize  atomic.Int64

	// Parallel-execution counters (read-through metrics + ParallelStats).
	parStreams   atomic.Int64 // executions that ran morsel-parallel
	parMorselsCt atomic.Int64 // morsels dispatched to workers
	parWorkerRt  atomic.Int64 // worker goroutines launched
	parFallbacks atomic.Int64 // eligible plans that chose serial at open
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	e := &Engine{
		tables:   make(map[string]*relation.Relation),
		indexes:  make(map[string][]*relation.Index),
		versions: make(map[string]uint64),
		meta:     make(map[string]*tableMeta),
		plans:    newPlanCache(planCacheCap),
	}
	e.parallelism.Store(int32(runtime.NumCPU()))
	e.parMinRows.Store(parDefaultMinRows)
	e.morselSize.Store(defaultMorselTuples)
	return e
}

// SetTracer installs (or, with nil, removes) the tracer recording
// engine-side spans. Safe to call while the engine serves queries.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer.Store(t) }

// SetParallelism bounds the morsel-execution worker pool for eligible plans.
// Values <= 1 force serial execution. The default is runtime.NumCPU(). Safe
// to call while the engine serves queries; cached plans pick the new degree
// up at their next open.
func (e *Engine) SetParallelism(n int) { e.parallelism.Store(int32(n)) }

// Parallelism returns the configured worker-pool bound.
func (e *Engine) Parallelism() int { return int(e.parallelism.Load()) }

// SetParallelMinRows sets the optimizer's serial/parallel cost threshold: a
// plan whose driver scan is estimated to read fewer rows stays serial, so
// small inputs never pay worker fan-out for work one goroutine finishes
// first. Tests and experiments lower it to force the parallel path on small
// corpora.
func (e *Engine) SetParallelMinRows(n int64) { e.parMinRows.Store(n) }

// ParallelMinRows returns the serial/parallel row threshold.
func (e *Engine) ParallelMinRows() int64 { return e.parMinRows.Load() }

// SetMorselSize sets the scan split granularity in tuples (<= 0 restores the
// default). Smaller morsels improve load balance and cancellation latency at
// the cost of more dispatch operations.
func (e *Engine) SetMorselSize(n int) {
	if n <= 0 {
		n = defaultMorselTuples
	}
	e.morselSize.Store(int64(n))
}

// MorselSize returns the scan split granularity in tuples.
func (e *Engine) MorselSize() int { return int(e.morselSize.Load()) }

// ParallelStats are cumulative morsel-execution counters.
type ParallelStats struct {
	Streams         int64 // executions that ran morsel-parallel
	Morsels         int64 // morsels dispatched to workers
	Workers         int64 // worker goroutines launched
	SerialFallbacks int64 // eligible plans that chose serial at open time
}

// ParallelStats returns the cumulative morsel-execution counters.
func (e *Engine) ParallelStats() ParallelStats {
	return ParallelStats{
		Streams:         e.parStreams.Load(),
		Morsels:         e.parMorselsCt.Load(),
		Workers:         e.parWorkerRt.Load(),
		SerialFallbacks: e.parFallbacks.Load(),
	}
}

// Epoch returns the engine clock: the newest version of any table, or a
// later DDL tick. It rides wire responses with the versions that moved
// (versionsSince), so clients and through them the CMS can tell which cached
// views the backend has moved past.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// versionsSince returns the clock and the versions newer than since: what a
// peer that last heard epoch since has not been told. It is nil when no
// table's data changed after since, which on a read-only workload is every
// call but a connection's first.
func (e *Engine) versionsSince(since uint64) (uint64, []wireVersion) {
	if ep := e.epoch.Load(); ep <= since {
		return ep, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []wireVersion
	for t, v := range e.versions {
		if v > since {
			out = append(out, wireVersion{Table: t, Version: v})
		}
	}
	return e.epoch.Load(), out
}

// logLocked appends one record to the WAL (a no-op for in-memory engines).
// A failure is sticky: the engine refuses all further mutations rather than
// let memory diverge from the log. Called with e.mu held.
func (e *Engine) logLocked(rec *walRecord) error {
	if e.walErr != nil {
		return e.walErr
	}
	if e.wal == nil {
		return nil
	}
	if err := e.wal.Append(rec); err != nil {
		e.walErr = err
		return err
	}
	return nil
}

// rotateLocked rotates the WAL behind a full-state checkpoint once the live
// segment outgrows its budget. Called with e.mu held, after a successful
// mutation, so the snapshot is consistent with the log tail.
func (e *Engine) rotateLocked() {
	if e.wal == nil || e.walErr != nil || !e.wal.shouldRotate() {
		return
	}
	if err := e.wal.Rotate(e.checkpointLocked()); err != nil {
		e.walErr = err
	}
}

// checkpointLocked snapshots the full engine state for a checkpoint file.
func (e *Engine) checkpointLocked() *walCheckpoint {
	ck := &walCheckpoint{
		Epoch:    e.epoch.Load(),
		Versions: make(map[string]uint64, len(e.versions)),
		Indexes:  make(map[string][][]int),
	}
	for n, v := range e.versions {
		ck.Versions[n] = v
	}
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ck.Tables = append(ck.Tables, toWALTable(e.tables[n]))
	}
	for n, ixs := range e.indexes {
		for _, ix := range ixs {
			ck.Indexes[n] = append(ck.Indexes[n], ix.Cols())
		}
	}
	return ck
}

// WALStats returns the engine's WAL counters (zero for in-memory engines).
func (e *Engine) WALStats() WALStats {
	e.mu.RLock()
	w := e.wal
	e.mu.RUnlock()
	if w == nil {
		return WALStats{}
	}
	return w.Stats()
}

// CloseWAL syncs and closes the WAL (a no-op for in-memory engines). The
// engine keeps serving reads; further mutations fail.
func (e *Engine) CloseWAL() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return nil
	}
	err := e.wal.Close()
	if e.walErr == nil {
		e.walErr = fmt.Errorf("remotedb: wal closed")
	}
	return err
}

// CreateTable registers an empty table.
func (e *Engine) CreateTable(name string, schema *relation.Schema) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[name]; dup {
		return fmt.Errorf("remotedb: table %s already exists", name)
	}
	if err := e.logLocked(&walRecord{Kind: walCreateTable, Name: name, Attrs: toWireAttrs(schema)}); err != nil {
		return err
	}
	e.applyCreateTable(name, schema)
	e.rotateLocked()
	return nil
}

func (e *Engine) applyCreateTable(name string, schema *relation.Schema) {
	e.tables[name] = relation.New(name, schema)
	e.meta[name] = newTableMeta(schema.Arity())
	e.versions[name] = e.epoch.Add(1)
	e.ddlEpoch = e.versions[name]
}

// LoadTable registers a table with its extension (replacing any previous
// definition); a bulk-load convenience for workload generators. On a durable
// engine a WAL failure leaves the table unchanged and surfaces as the sticky
// error on the next erroring mutation (the signature predates durability and
// its twenty-odd callers are bulk loaders that check nothing).
func (e *Engine) LoadTable(r *relation.Relation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec := &walRecord{Kind: walLoadTable}
	if e.wal != nil { // an in-memory engine logs nothing: encode nothing
		rec.Rel = toWALTable(r)
	}
	if err := e.logLocked(rec); err != nil {
		return
	}
	e.applyLoadTable(r)
	e.rotateLocked()
}

func (e *Engine) applyLoadTable(r *relation.Relation) {
	e.tables[r.Name] = r
	delete(e.indexes, r.Name)
	e.meta[r.Name] = buildTableMeta(r)
	e.versions[r.Name] = e.epoch.Add(1)
	e.ddlEpoch = e.versions[r.Name]
}

// Insert appends rows to a table, validating kinds (ints coerce to float
// columns). Validation happens before logging: a rejected batch mutates
// nothing — not the table, not the epoch, not the log.
//
// The stored rows are the batch's own: one value arena, and one blob holding
// every string's bytes, so they pin neither the caller's tuples nor the
// statement text those were parsed from.
func (e *Engine) Insert(table string, rows []relation.Tuple) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[table]
	if !ok {
		return fmt.Errorf("remotedb: unknown table %s", table)
	}
	schema := t.Schema()
	arity := schema.Arity()
	vals := make([]relation.Value, len(rows)*arity)
	coerced := make([]relation.Tuple, len(rows))
	text := 0
	for r, row := range rows {
		if len(row) != arity {
			return fmt.Errorf("remotedb: insert arity %d into %s%s", len(row), table, schema)
		}
		crow := vals[r*arity : (r+1)*arity : (r+1)*arity]
		for i, v := range row {
			cv, err := coerce(v, schema.Attr(i).Kind)
			if err != nil {
				return fmt.Errorf("remotedb: column %s of %s: %w", schema.Attr(i).Name, table, err)
			}
			crow[i] = cv
			text += len(cv.AsString())
		}
		coerced[r] = crow
	}
	var blob strings.Builder
	blob.Grow(text)
	for _, v := range vals {
		blob.WriteString(v.AsString())
	}
	for k, s := 0, blob.String(); k < len(vals); k++ {
		if n := len(vals[k].AsString()); n > 0 {
			vals[k], s = relation.Str(s[:n]), s[n:]
		}
	}
	rec := walRecord{Kind: walInsert, Name: table}
	if e.wal != nil {
		e.rowBuf = appendBatch(e.rowBuf[:0], arity, coerced)
		rec.Rows = e.rowBuf
	}
	err := e.logLocked(&rec)
	e.rowBuf = reuse(e.rowBuf)
	if err != nil {
		return err
	}
	e.applyInsert(table, coerced)
	e.rotateLocked()
	return nil
}

// applyInsert applies pre-validated rows. The whole batch lands under one
// mutex hold and one WAL record: concurrent readers (and crash recovery) see
// all of it or none of it, never a half-applied batch.
func (e *Engine) applyInsert(table string, rows []relation.Tuple) {
	t := e.tables[table]
	m := e.meta[table]
	for _, row := range rows {
		t.MustAppend(row)
		if m != nil {
			m.addRow(row)
		}
	}
	// An index covers the rows it was built over, and a lookup scans the
	// rows appended since (Index.AppendLookupIn). Once they pass an eighth
	// of the covered rows, the index is rebuilt over all of them.
	ixs := e.indexes[table]
	for i, ix := range ixs {
		if t.Len()-ix.Rows() > ix.Rows()/8 {
			ixs[i] = relation.BuildIndex(t, ix.Cols())
		}
	}
	e.versions[t.Name] = e.epoch.Add(1) // t.Name, not table: a map store keeps the key it is given
}

func coerce(v relation.Value, kind relation.Kind) (relation.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	if v.Kind() == relation.KindInt && kind == relation.KindFloat {
		return relation.Float(v.AsFloat()), nil
	}
	return relation.Value{}, fmt.Errorf("kind %s does not fit column kind %s", v.Kind(), kind)
}

// CreateIndex builds a hash index on the given columns of a table. The
// executor uses it for equality selections.
func (e *Engine) CreateIndex(table string, cols []int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[table]; !ok {
		return fmt.Errorf("remotedb: unknown table %s", table)
	}
	if err := e.logLocked(&walRecord{Kind: walCreateIndex, Name: table, Cols: cols}); err != nil {
		return err
	}
	e.applyCreateIndex(table, cols)
	e.rotateLocked()
	return nil
}

// applyCreateIndex builds the index, replacing one on the same columns.
func (e *Engine) applyCreateIndex(table string, cols []int) {
	ix := relation.BuildIndex(e.tables[table], cols)
	ixs := e.indexes[table]
	if i := slices.IndexFunc(ixs, func(o *relation.Index) bool { return o.Covers(cols) }); i >= 0 {
		ixs[i] = ix
	} else {
		e.indexes[table] = append(ixs, ix)
	}
	e.ddlEpoch = e.epoch.Add(1)
}

// applyRestart is the walRestart record's effect: every table version moves
// to one new tick, past anything the pre-crash engine handed out, so resume
// tokens and CMS views stamped before the crash are refused durably — across
// any number of crash/recover cycles, because the record itself is in the
// log.
func (e *Engine) applyRestart() {
	v := e.epoch.Add(1)
	for name := range e.versions {
		e.versions[name] = v
	}
	e.ddlEpoch = v
}

// Tables returns the table names, sorted.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Schema returns the schema of the named table.
func (e *Engine) Schema(name string) (*relation.Schema, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("remotedb: unknown table %s", name)
	}
	return t.Schema(), nil
}

// TableStats carries the catalog statistics the IE's problem-graph shaper
// consumes ("cardinality and selectivity information from the DBMS schema",
// Section 4.1).
type TableStats struct {
	Rows int
	// Distinct is each column's distinct-value count: exact up to 4 096,
	// a bottom-k sketch's estimate above (ColStats says which).
	Distinct []int
}

// Stats returns a table's catalog statistics in O(columns), from the
// sketches stats.go maintains. A relation appended to behind the engine's
// back no longer matches its sketches' row count; for it, Stats sketches the
// table afresh.
func (e *Engine) Stats(name string) (TableStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return TableStats{}, fmt.Errorf("remotedb: unknown table %s", name)
	}
	m := e.meta[name]
	if m == nil || m.rows != t.Len() {
		m = buildTableMeta(t)
	}
	st := TableStats{Rows: m.rows, Distinct: make([]int, len(m.cols))}
	for i := range m.cols {
		st.Distinct[i] = m.cols[i].ndv()
	}
	return st, nil
}

// ExecuteCtx runs a parsed statement, returning the result relation (nil for
// DDL/DML) and the number of server-side tuple operations performed (the
// cost-model input). A SELECT's statement may stay in the plan cache as the
// shape its plan serves, so the caller must not modify it afterwards. Engine
// spans started here parent under the caller's span in ctx (or join a trace
// ID adopted from the wire).
func (e *Engine) ExecuteCtx(ctx context.Context, st *Statement) (*relation.Relation, int64, error) {
	switch {
	case st.Create != nil:
		return nil, 1, e.CreateTable(st.Create.Table, st.Create.Schema)
	case st.Insert != nil:
		return nil, int64(len(st.Insert.Rows)), e.Insert(st.Insert.Table, st.Insert.Rows)
	case st.Select != nil:
		if st.Explain {
			if st.Analyze {
				return e.explainAnalyzeSelect(ctx, st.Select)
			}
			return e.explainSelect(st.Select)
		}
		return e.executeSelect(ctx, st.Select)
	default:
		return nil, 0, fmt.Errorf("remotedb: empty statement")
	}
}

// ExecuteSQL parses and runs a statement.
func (e *Engine) ExecuteSQL(src string) (*relation.Relation, int64, error) {
	return e.ExecuteSQLCtx(context.Background(), src)
}

// ExecuteSQLCtx parses and runs a statement under ctx (span parenting and
// wire-adopted trace IDs flow through).
func (e *Engine) ExecuteSQLCtx(ctx context.Context, src string) (*relation.Relation, int64, error) {
	st, err := e.bind(ctx, src)
	if err != nil {
		return nil, 0, err
	}
	return e.ExecuteCtx(ctx, st)
}

// bind parses src under the engine.bind span.
func (e *Engine) bind(ctx context.Context, src string) (*Statement, error) {
	_, sp := e.tracer.Load().Start(ctx, "engine.bind")
	defer sp.End()
	return ParseSQL(src)
}

// selScope is the resolved FROM/WHERE of one SELECT, indexed by FROM
// position: alias bindings plus the WHERE conjuncts classified into per-alias
// filters and cross-alias conditions. The planner and the tests' reference
// evaluator (reference_test.go) share it so both report identical resolution
// errors.
type selScope struct {
	aliases  []string
	tables   []*relation.Relation
	perAlias [][]relation.Cond
	// slots parallels perAlias: for a column-vs-literal conjunct, the index in
	// the statement's WHERE of the conjunct whose literal it compares against;
	// -1 for a column-vs-column one. A plan keeps the slots, not the literals.
	slots [][]int
	cross []crossCond
}

// crossCond is a WHERE conjunct spanning two aliases, given by FROM position.
type crossCond struct {
	lp, lc int
	op     relation.CmpOp
	rp, rc int
}

// position returns alias's FROM position, or -1.
func (sc *selScope) position(alias string) int {
	for p, a := range sc.aliases {
		if a == alias {
			return p
		}
	}
	return -1
}

// resolve binds a possibly-qualified column reference to (FROM position,
// column).
func (sc *selScope) resolve(c ColRef) (int, int, error) {
	if c.Qualifier != "" {
		p := sc.position(c.Qualifier)
		if p < 0 {
			return 0, 0, fmt.Errorf("remotedb: unknown alias %s", c.Qualifier)
		}
		i := sc.tables[p].Schema().ColIndex(c.Column)
		if i < 0 {
			return 0, 0, fmt.Errorf("remotedb: no column %s in %s", c.Column, c.Qualifier)
		}
		return p, i, nil
	}
	found, idx := -1, -1
	for p, t := range sc.tables {
		if i := t.Schema().ColIndex(c.Column); i >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("remotedb: ambiguous column %s", c.Column)
			}
			found, idx = p, i
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("remotedb: unknown column %s", c.Column)
	}
	return found, idx, nil
}

// analyzeSelect resolves the FROM clause and classifies the WHERE conjuncts:
// per-alias (col-const or col-col within one alias) vs cross-alias
// equi-joins and theta residuals. The caller must hold e.mu.
func (e *Engine) analyzeSelect(sel *SelectStmt) (*selScope, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("remotedb: SELECT without FROM")
	}
	sc := &selScope{}
	for _, ref := range sel.From {
		t, ok := e.tables[ref.Table]
		if !ok {
			return nil, fmt.Errorf("remotedb: unknown table %s", ref.Table)
		}
		if sc.position(ref.Alias) >= 0 {
			return nil, fmt.Errorf("remotedb: duplicate alias %s", ref.Alias)
		}
		sc.aliases = append(sc.aliases, ref.Alias)
		sc.tables = append(sc.tables, t)
	}
	sc.perAlias = make([][]relation.Cond, len(sc.aliases))
	sc.slots = make([][]int, len(sc.aliases))
	for w, c := range sel.Where {
		lp, lc, err := sc.resolve(c.Left)
		if err != nil {
			return nil, err
		}
		if !c.RightIsCol {
			sc.perAlias[lp] = append(sc.perAlias[lp], relation.ColConst(lc, c.Op, c.RightVal))
			sc.slots[lp] = append(sc.slots[lp], w)
			continue
		}
		rp, rc, err := sc.resolve(c.RightCol)
		if err != nil {
			return nil, err
		}
		if lp == rp {
			sc.perAlias[lp] = append(sc.perAlias[lp], relation.ColCol(lc, c.Op, rc))
			sc.slots[lp] = append(sc.slots[lp], -1)
			continue
		}
		sc.cross = append(sc.cross, crossCond{lp: lp, lc: lc, op: c.Op, rp: rp, rc: rc})
	}
	return sc, nil
}
