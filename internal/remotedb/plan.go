package remotedb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/relation"
)

// This file defines the explicit Plan tree the cost-based optimizer
// (optimizer.go) produces for a SELECT: an operator DAG (left-deep tree) of
// scans, pipelined hash joins, filters, projections, aggregation, sort/TopN,
// distinct, and limit. A Plan is immutable once built and safe for concurrent
// reuse out of the plan cache (plancache.go): all per-execution state lives
// in a planRun, and base-table snapshots are bound at open time under the
// engine lock (plan_exec.go). EXPLAIN renders the tree one node per line.

// Plan is a compiled, optimizer-chosen execution strategy for one SELECT.
type Plan struct {
	root   planNode
	schema *relation.Schema
	epoch  uint64 // engine clock tick the plan was built at

	estRows float64 // estimated result cardinality
	estOps  float64 // estimated server-side tuple operations

	// nodeEst is the optimizer's per-node output-cardinality estimate,
	// stamped at build time and rendered against actuals by EXPLAIN ANALYZE.
	// Read-only after buildPlan, like the tree itself.
	nodeEst map[planNode]float64

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
}

// EstRows is the optimizer's estimate of the result cardinality.
func (p *Plan) EstRows() float64 { return p.estRows }

// EstOps is the optimizer's estimate of server-side tuple operations.
func (p *Plan) EstOps() float64 { return p.estOps }

// EstCost is the plan's simulated cost under the virtual cost model: one
// round trip, the estimated result tuples shipped, the estimated server ops.
func (p *Plan) EstCost(c Costs) float64 {
	return c.RequestCost(int64(p.estRows), int64(p.estOps))
}

// Explain renders the plan tree, one line per operator, children indented
// under their parent.
func (p *Plan) Explain() []string {
	var lines []string
	explainNode(p.root, 0, &lines)
	return lines
}

func explainNode(n planNode, depth int, out *[]string) {
	prefix := ""
	for i := 0; i < depth; i++ {
		prefix += "  "
	}
	*out = append(*out, prefix+n.describe())
	for _, c := range n.children() {
		explainNode(c, depth+1, out)
	}
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
	// the blocking prefix the plan could not avoid.
	open(run *planRun) relation.Iterator
	describe() string
	children() []planNode
}

// scanNode reads one base table: a full snapshot scan or an index equality
// lookup, with every pushed-down per-alias predicate applied in the same
// pass. The node stores names, not snapshots: the extension and the index
// are bound to the live catalog each run, and a mutation of the table (or
// any DDL) makes every cached plan reading it stale (the next open replans),
// so plans never dangle.
type scanNode struct {
	table, alias string
	sch          *relation.Schema
	conds        []relation.Cond
	// idxCols/idxVals select an index access path when non-empty: bind looks
	// up an index on exactly idxCols, falling back to the full scan (conds
	// still include the equality predicates) if it no longer exists.
	idxCols []int
	idxVals []relation.Value
	desc    string
}

func (n *scanNode) Schema() *relation.Schema { return n.sch }
func (n *scanNode) children() []planNode     { return nil }
func (n *scanNode) describe() string         { return n.desc }

// joinNode joins two subtrees. The left side is the probe input and
// streams; the right side is the build input, drained into a hash table
// (equi-join) or a buffer (cross/theta join) when the node opens.
type joinNode struct {
	left, right planNode
	eq          []relation.JoinCond // probe position = Left, build position = Right
	post        []relation.Cond     // residual theta conditions over the concatenated tuple
	sch         *relation.Schema
	desc        string
}

func (n *joinNode) Schema() *relation.Schema { return n.sch }
func (n *joinNode) children() []planNode     { return []planNode{n.left, n.right} }
func (n *joinNode) describe() string         { return n.desc }

// projectNode projects each input tuple onto cols. counted distinguishes the
// final projection (accounted as one tuple operation per tuple, matching the
// materializing executor) from column pruning below a join (bookkeeping the
// optimizer inserted; the join's own input accounting already covers it).
type projectNode struct {
	child   planNode
	cols    []int
	sch     *relation.Schema
	counted bool
	desc    string
}

func (n *projectNode) Schema() *relation.Schema { return n.sch }
func (n *projectNode) children() []planNode     { return []planNode{n.child} }
func (n *projectNode) describe() string         { return n.desc }

// filterNode applies residual conditions (defensive; ordinarily residuals
// fold into the join that completes them).
type filterNode struct {
	child planNode
	conds []relation.Cond
	desc  string
}

func (n *filterNode) Schema() *relation.Schema { return n.child.Schema() }
func (n *filterNode) children() []planNode     { return []planNode{n.child} }
func (n *filterNode) describe() string         { return n.desc }

// aggNode drains its input into grouped aggregation and emits the group rows
// incrementally.
type aggNode struct {
	child     planNode
	groupCols []int
	specs     []relation.AggSpec
	sch       *relation.Schema
	desc      string
}

func (n *aggNode) Schema() *relation.Schema { return n.sch }
func (n *aggNode) children() []planNode     { return []planNode{n.child} }
func (n *aggNode) describe() string         { return n.desc }

// sortNode sorts its input stably by cols. With limit >= 0 it runs as a
// bounded-heap TopN: the LIMIT was pushed into the sort, so memory and
// comparisons are O(limit) instead of O(input).
type sortNode struct {
	child planNode
	cols  []int
	limit int // -1: full sort; else TopN
	desc  string
}

func (n *sortNode) Schema() *relation.Schema { return n.child.Schema() }
func (n *sortNode) children() []planNode     { return []planNode{n.child} }
func (n *sortNode) describe() string         { return n.desc }

// distinctNode deduplicates, streaming first occurrences through.
type distinctNode struct {
	child planNode
	desc  string
}

func (n *distinctNode) Schema() *relation.Schema { return n.child.Schema() }
func (n *distinctNode) children() []planNode     { return []planNode{n.child} }
func (n *distinctNode) describe() string         { return n.desc }

// limitNode truncates the stream after n tuples; because execution is
// pull-based, upstream operators simply stop being asked for more.
type limitNode struct {
	child planNode
	n     int
	desc  string
}

func (n *limitNode) Schema() *relation.Schema { return n.child.Schema() }
func (n *limitNode) children() []planNode     { return []planNode{n.child} }
func (n *limitNode) describe() string         { return n.desc }

// explainSelect renders the plan for sel as a one-column relation, the
// wire-transparent form of EXPLAIN <select>: it flows through every client
// and transport like an ordinary result.
func (e *Engine) explainSelect(sel *SelectStmt) (*relation.Relation, int64, error) {
	p, _, err := e.planFor(context.Background(), sel)
	if err != nil {
		return nil, 0, err
	}
	header := fmt.Sprintf("plan epoch %d | est rows %.0f | est cost %.1f sim-ms",
		p.epoch, p.estRows, p.EstCost(DefaultCosts()))
	if p.par != nil {
		if dop := e.planDOP(p); dop > 1 {
			header += fmt.Sprintf(" | parallel dop %d (driver est %.0f rows, morsel %d)",
				dop, p.par.estRows, e.MorselSize())
		} else {
			header += fmt.Sprintf(" | parallel eligible, serial chosen (driver est %.0f rows, min %d, parallelism %d)",
				p.par.estRows, e.ParallelMinRows(), e.Parallelism())
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
// emissions), and inclusive wall time.
func (p *Plan) explainAnalyze(run *planRun) []string {
	var lines []string
	var walk func(n planNode, depth int)
	walk = func(n planNode, depth int) {
		line := strings.Repeat("  ", depth) + n.describe()
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
