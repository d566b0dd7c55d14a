package remotedb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/relation"
)

// This file defines the explicit Plan tree the cost-based optimizer
// (optimizer.go) produces for a SELECT: an operator DAG (left-deep tree) of
// scans, pipelined hash joins, filters, projections, aggregation, sort/TopN,
// distinct, and limit. A Plan is immutable once built and safe for concurrent
// reuse out of the plan cache (plancache.go): all per-execution state lives
// in a planRun, which the plan keeps for reuse once its stream closes, and
// base-table snapshots are bound at open time under the engine lock
// (plan_exec.go). EXPLAIN renders the tree one node per line.

// Plan is a compiled, optimizer-chosen execution strategy for one SELECT
// shape. The tree holds no literal: a scan's conditions and index key name
// WHERE conjuncts by position (slots), and each execution binds them to its
// statement's literals (bind). The estimates, and the literals EXPLAIN
// renders, are those of stmt, the statement the plan was compiled from.
type Plan struct {
	root   planNode
	schema *relation.Schema
	epoch  uint64 // engine clock tick the plan was built at
	stmt   *SelectStmt

	estRows float64 // estimated result cardinality
	estOps  float64 // estimated server-side tuple operations

	// nodeEst is the optimizer's per-node output-cardinality estimate,
	// stamped at build time and rendered against actuals by EXPLAIN ANALYZE.
	// Read-only after buildPlan, like the tree itself.
	nodeEst map[planNode]float64

	// scans are the plan's scans by FROM position; cross and order are the
	// cross-alias conjuncts and the join order chosen, in FROM positions.
	// They are what orderHolds re-derives the order from, and scans are also
	// every table the plan reads (planCurrentLocked).
	scans []*scanNode
	cross []crossCond
	order []int

	// par is the plan's parallelizable section (plan_parallel.go), or nil
	// when the shape must stay serial. Eligibility is decided at build time;
	// whether a given execution actually runs parallel is decided at open
	// time from the engine's Parallelism and ParallelMinRows settings.
	par *parSection

	// resumable is the plan's only scan when its shape is [limit] → [project]
	// → scan: one FROM table, no DISTINCT / ORDER BY / aggregate. Run serially,
	// such a plan emits in base order, a deterministic function of the bound
	// snapshot, so its streamed executions carry a resume token (resume.go).
	// Nil for every other shape.
	resumable *scanNode

	// attrs is the result schema as the header frame carries it, rendered
	// once. nodes, nconds and nkeys size a run: its node states, and its
	// scans' bound conditions and index keys.
	attrs                []wireAttr
	nodes, nconds, nkeys int

	// kept is the plan's closed serial run (plan_exec.go), the one part of a
	// Plan that changes after buildPlan.
	kept atomic.Pointer[planRun]
}

// nodeSlot is embedded in every plan node: id is the node's position in its
// plan's pre-order, where a run keeps the node's iterator struct.
type nodeSlot struct{ id int }

func (s *nodeSlot) slotted() *nodeSlot { return s }

// numberNodes gives n and its subtree the slots from next on, in pre-order,
// and returns the next free slot.
func numberNodes(n planNode, next int) int {
	n.slotted().id = next
	next++
	for _, c := range n.children() {
		next = numberNodes(c, next)
	}
	return next
}

// EstCost is the plan's simulated cost under the virtual cost model: one
// round trip, the estimated result tuples shipped, the estimated server ops.
func (p *Plan) EstCost(c Costs) float64 {
	return c.RequestCost(int64(p.estRows), int64(p.estOps))
}

// Explain renders the plan tree, one line per operator, children indented
// under their parent.
func (p *Plan) Explain() []string {
	var lines []string
	explainNode(p, p.root, 0, &lines)
	return lines
}

func explainNode(p *Plan, n planNode, depth int, out *[]string) {
	*out = append(*out, strings.Repeat("  ", depth)+n.describe(p))
	for _, c := range n.children() {
		explainNode(p, c, depth+1, out)
	}
}

// orderHolds reports whether where, the WHERE of a statement of p's shape,
// chooses p's join order: the one decision in a plan that reads a literal's
// value. It repeats buildPlan's choice over that binding's per-alias
// estimates and allocates nothing for up to joinEnumLimit aliases.
func (p *Plan) orderHolds(where []SQLCond) bool {
	if len(p.scans) < 2 {
		return true
	}
	var bufs joinBufs
	js := newJoinSearch(p.scans, p.cross, where, &bufs)
	return slices.Equal(js.choose(), p.order)
}

// errNotSelect reports that PlanForSQL was handed a non-SELECT statement.
var errNotSelect = errors.New("remotedb: not a SELECT statement")

// planNode is one operator of a compiled plan.
type planNode interface {
	Schema() *relation.Schema
	// open builds the operator's pull iterator over the run's bound
	// snapshots. Blocking operators (hash-join build, sort, aggregation) do
	// their blocking work when opened, which happens on the first pull of
	// the root — so a streamed plan's first-tuple latency includes exactly
	// the blocking prefix the plan could not avoid. keep tells it whether
	// its consumer keeps rows past the next pull (plan_exec.go).
	open(run *planRun, keep bool) relation.Iterator
	// describe renders the operator's EXPLAIN line, with p's literals and
	// estimates. Nothing renders it but EXPLAIN.
	describe(p *Plan) string
	children() []planNode
	slotted() *nodeSlot
}

// scanNode reads one base table: a full snapshot scan or an index equality
// lookup, with every pushed-down per-alias predicate applied in the same
// pass. The node stores names and slots, not snapshots or literals: the
// extension, the index and the literals are bound each run (Plan.bind), and a
// mutation of the table (or any DDL) makes every cached plan reading it stale
// (the next open replans), so plans never dangle.
type scanNode struct {
	nodeSlot
	table, alias string
	pos          int // FROM position
	sch          *relation.Schema
	// conds are the pushed-down conjuncts. slots parallels them: a
	// column-vs-literal conjunct's Const is empty here, and its slot is the
	// index in the statement's WHERE of the conjunct holding the literal; a
	// column-vs-column conjunct's slot is -1.
	conds []relation.Cond
	slots []int
	// idxCols/idxSlots select an index access path when non-empty: bind looks
	// up an index on exactly idxCols, keyed by the literals in idxSlots,
	// falling back to the full scan (conds still include the equality
	// predicates) if it no longer exists.
	idxCols  []int
	idxSlots []int

	// What the estimates read: the table's statistics and length at compile
	// time, and the rows the access path examines (rows, or rows/NDV of the
	// index), which no literal moves.
	meta    *tableMeta
	rows    float64
	examine float64
}

func (n *scanNode) Schema() *relation.Schema { return n.sch }
func (n *scanNode) children() []planNode     { return nil }

func (n *scanNode) describe(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan %s", n.table)
	if n.alias != n.table {
		fmt.Fprintf(&b, " AS %s", n.alias)
	}
	if len(n.idxCols) > 0 {
		names := make([]string, len(n.idxCols))
		for i, c := range n.idxCols {
			names[i] = n.sch.Attr(c).Name
		}
		fmt.Fprintf(&b, " via index(%s)", strings.Join(names, ", "))
	}
	if len(n.conds) > 0 {
		strs := make([]string, len(n.conds))
		for k := range n.conds {
			c := n.cond(k, p.stmt.Where)
			strs[k] = c.String(n.sch)
		}
		fmt.Fprintf(&b, " where [%s]", strings.Join(strs, " AND "))
	}
	fmt.Fprintf(&b, " (examine~%.0f, emit~%.0f)", n.examine, p.nodeEst[n])
	return b.String()
}

// joinNode joins two subtrees. The left side is the probe input and
// streams; the right side is the build input, drained when the node opens
// and, for an equi-join, indexed on its join columns.
type joinNode struct {
	nodeSlot
	left, right planNode
	// probeCols[i] of the left side equals buildCols[i] of the right; both
	// are empty for a cross or theta join.
	probeCols, buildCols []int
	post                 []relation.Cond // residual theta conditions over the concatenated tuple
	sch                  *relation.Schema
	on                   []crossCond // the conjuncts the columns and post came from, for EXPLAIN
	build                int         // FROM position of the build side's alias
	rows                 int         // the build's estimated rows: the capacity its drain starts from
}

func (n *joinNode) Schema() *relation.Schema { return n.sch }
func (n *joinNode) children() []planNode     { return []planNode{n.left, n.right} }

func (n *joinNode) describe(p *Plan) string {
	attr := func(pos, col int) string { return p.scans[pos].alias + "." + p.scans[pos].sch.Attr(col).Name }
	conds := make([]string, len(n.on))
	for i, c := range n.on {
		conds[i] = fmt.Sprintf("%s %s %s", attr(c.lp, c.lc), c.op, attr(c.rp, c.rc))
	}
	kind := "hash join"
	if len(n.buildCols) == 0 {
		kind = "nested-loop join"
		if len(n.post) == 0 {
			conds = append(conds, "cross")
		}
	}
	return fmt.Sprintf("%s [%s] (build %s, probe streams)", kind, strings.Join(conds, " AND "), p.scans[n.build].alias)
}

// projectNode projects each input tuple onto cols. counted distinguishes the
// final projection (accounted as one tuple operation per tuple, matching the
// materializing executor) from column pruning below a join (bookkeeping the
// optimizer inserted; the join's own input accounting already covers it),
// which narrows alias's scan.
type projectNode struct {
	nodeSlot
	child   planNode
	cols    []int
	sch     *relation.Schema
	counted bool
	alias   string
}

func (n *projectNode) Schema() *relation.Schema { return n.sch }
func (n *projectNode) children() []planNode     { return []planNode{n.child} }

func (n *projectNode) describe(*Plan) string {
	names := attrNames(n.sch)
	if n.counted {
		return "project (" + names + ")"
	}
	return "prune " + n.alias + " to (" + names + ")"
}

// attrNames lists a schema's column names, comma-separated.
func attrNames(s *relation.Schema) string {
	names := make([]string, s.Arity())
	for i := range names {
		names[i] = s.Attr(i).Name
	}
	return strings.Join(names, ", ")
}

// filterNode applies residual conditions (defensive; ordinarily residuals
// fold into the join that completes them).
type filterNode struct {
	nodeSlot
	child planNode
	conds []relation.Cond
}

func (n *filterNode) Schema() *relation.Schema { return n.child.Schema() }
func (n *filterNode) children() []planNode     { return []planNode{n.child} }
func (n *filterNode) describe(*Plan) string {
	return fmt.Sprintf("filter (%d residual conds)", len(n.conds))
}

// aggNode drains its input into grouped aggregation and emits the group rows
// incrementally.
type aggNode struct {
	nodeSlot
	child     planNode
	groupCols []int
	specs     []relation.AggSpec
	sch       *relation.Schema
	// names are the base column names of groupCols, then of each spec's
	// column ("" for COUNT(*)), for EXPLAIN: the input schema may have
	// renamed a column a join repeated.
	names []string
	// groups is the optimizer's group estimate: the group table's size hint.
	groups int
}

func (n *aggNode) Schema() *relation.Schema { return n.sch }
func (n *aggNode) children() []planNode     { return []planNode{n.child} }

func (n *aggNode) describe(*Plan) string {
	g := len(n.groupCols)
	specs := make([]string, len(n.specs))
	for i, s := range n.specs {
		col := "*"
		if s.Col >= 0 {
			col = n.names[g+i]
		}
		specs[i] = fmt.Sprintf("%s(%s)", s.Op, col)
	}
	return fmt.Sprintf("aggregate group by (%s) [%s]", strings.Join(n.names[:g], ", "), strings.Join(specs, ", "))
}

// sortNode sorts its input stably by cols. With limit >= 0 it runs as a
// bounded-heap TopN: the LIMIT was pushed into the sort, so memory and
// comparisons are O(limit) instead of O(input). wide marks a sort below the
// projection, over the joined tuples; names are the sort columns' names for
// EXPLAIN.
type sortNode struct {
	nodeSlot
	child planNode
	cols  []int
	limit int // -1: full sort; else TopN
	wide  bool
	names []string
}

func (n *sortNode) Schema() *relation.Schema { return n.child.Schema() }
func (n *sortNode) children() []planNode     { return []planNode{n.child} }

func (n *sortNode) describe(*Plan) string {
	kind := "sort"
	if n.limit >= 0 {
		kind = "topn"
	}
	if n.wide {
		kind += " wide"
	}
	s := kind + " (" + strings.Join(n.names, ", ") + ")"
	if n.limit >= 0 {
		s += fmt.Sprintf(" limit %d", n.limit)
	}
	return s
}

// distinctNode deduplicates, streaming first occurrences through.
type distinctNode struct {
	nodeSlot
	child planNode
}

func (n *distinctNode) Schema() *relation.Schema { return n.child.Schema() }
func (n *distinctNode) children() []planNode     { return []planNode{n.child} }
func (n *distinctNode) describe(*Plan) string    { return "distinct" }

// limitNode truncates the stream after n tuples; because execution is
// pull-based, upstream operators simply stop being asked for more.
type limitNode struct {
	nodeSlot
	child planNode
	n     int
}

func (n *limitNode) Schema() *relation.Schema { return n.child.Schema() }
func (n *limitNode) children() []planNode     { return []planNode{n.child} }
func (n *limitNode) describe(*Plan) string    { return fmt.Sprintf("limit %d", n.n) }

// explainSelect renders the plan for sel as a one-column relation, the
// wire-transparent form of EXPLAIN <select>: it flows through every client
// and transport like an ordinary result.
func (e *Engine) explainSelect(sel *SelectStmt) (*relation.Relation, int64, error) {
	p, err := e.planFor(sel)
	if err != nil {
		return nil, 0, err
	}
	header := fmt.Sprintf("plan epoch %d | est rows %.0f | est cost %.1f sim-ms",
		p.epoch, p.estRows, p.EstCost(DefaultCosts()))
	if p.par != nil {
		if dop := e.planDOP(p); dop > 1 {
			header += fmt.Sprintf(" | parallel dop %d (driver est %.0f rows, morsel %d)",
				dop, p.par.driver.examine, e.MorselSize())
		} else {
			header += fmt.Sprintf(" | parallel eligible, serial chosen (driver est %.0f rows, min %d, parallelism %d)",
				p.par.driver.examine, e.ParallelMinRows(), e.Parallelism())
		}
	}
	lines := []string{header}
	lines = append(lines, p.Explain()...)
	return planLinesRelation(lines), int64(len(lines)), nil
}

// planLinesRelation wraps EXPLAIN output as a one-column relation so it
// flows through every client and transport like an ordinary result.
func planLinesRelation(lines []string) *relation.Relation {
	out := relation.New("plan", relation.NewSchema(relation.Attr{Name: "plan", Kind: relation.KindString}))
	for _, l := range lines {
		out.MustAppend(relation.Tuple{relation.Str(l)})
	}
	return out
}

// explainAnalyze renders the plan tree with the optimizer's per-node
// estimates against the run's recorded actuals: rows emitted, input tuple
// operations (scan rows examined; for interior nodes the sum of child
// emissions), and inclusive wall time. Below a parallel section's boundary
// the actuals are the workers' summed, so rows and ops read as at dop 1 and
// time is the workers' total.
func (p *Plan) explainAnalyze(run *planRun) []string {
	var lines []string
	var walk func(n planNode, depth int)
	walk = func(n planNode, depth int) {
		line := strings.Repeat("  ", depth) + n.describe(p)
		if est, ok := p.nodeEst[n]; ok {
			line += fmt.Sprintf(" (est rows %.0f)", est)
		}
		if na := run.analyze[n]; na != nil {
			ops := na.examined
			for _, c := range n.children() {
				if ca := run.analyze[c]; ca != nil {
					ops += ca.rows
				}
			}
			line += fmt.Sprintf(" (actual rows %d, ops %d, time %.3fms)",
				na.rows, ops, float64(na.wallNS)/1e6)
		}
		lines = append(lines, line)
		for _, c := range n.children() {
			walk(c, depth+1)
		}
	}
	walk(p.root, 0)
	return lines
}

// explainAnalyzeSelect executes sel with per-node instrumentation and
// renders estimated-vs-actual rows/ops/time for every plan node (EXPLAIN
// ANALYZE SELECT).
func (e *Engine) explainAnalyzeSelect(ctx context.Context, sel *SelectStmt) (*relation.Relation, int64, error) {
	ps, err := e.openPlan(ctx, sel, true, false)
	if err != nil {
		return nil, 0, err
	}
	defer ps.Close()
	t0 := time.Now()
	rows := int64(0)
	for {
		if _, ok := ps.Next(); !ok {
			break
		}
		rows++
	}
	wall := time.Since(t0)
	if err := ps.Err(); err != nil {
		return nil, 0, err
	}
	if px := ps.run.par; px != nil {
		px.shutdown() // joins the pool, so the workers' actuals are final
		px.mergeActuals()
	}
	p := ps.plan
	cache := "miss"
	if ps.cached {
		cache = "hit"
	}
	lines := []string{fmt.Sprintf(
		"plan epoch %d | plan cache %s | est rows %.0f | actual rows %d | ops %d | time %.3fms | dop %d",
		p.epoch, cache, p.estRows, rows, ps.Ops(), float64(wall.Nanoseconds())/1e6, ps.DOP())}
	if ps.DOP() > 1 {
		// Per-worker actuals: skewed partitions show up here as unbalanced
		// rows/ops across workers, which node-level wall time cannot reveal.
		lines = append(lines, ps.run.par.workerLines()...)
	}
	lines = append(lines, p.explainAnalyze(ps.run)...)
	return planLinesRelation(lines), ps.Ops(), nil
}
