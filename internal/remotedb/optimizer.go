package remotedb

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/relation"
)

// The cost-based optimizer: compiles a SELECT into a Plan tree (plan.go)
// using the catalog statistics maintained in stats.go. The rewrites, in
// order:
//
//   - predicate pushdown: every single-alias WHERE conjunct evaluates inside
//     that alias's scan, below any join;
//   - index-aware access paths: equality-constant conjuncts select the most
//     selective covering hash index (estimated by the product of the indexed
//     columns' NDVs);
//   - join reordering: left-deep orders enumerated exhaustively up to
//     joinEnumLimit aliases (greedily beyond), costed with per-step
//     build+probe+output cardinalities; ties break toward the largest probe
//     side, so small relations build and large ones stream (small-drives-large);
//   - column pruning: each scan in a multi-table plan projects away columns
//     nothing downstream reads, narrowing hash-table entries and shipped
//     intermediates;
//   - LIMIT/TopN pushdown: a LIMIT over an ORDER BY fuses into a bounded-heap
//     TopN sort; a bare LIMIT short-circuits naturally because execution is
//     pull-based;
//   - hash-table sizing: a join build starts sized for min(build rows, the
//     product of its key columns' NDVs) keys, and a GROUP BY table for the
//     group estimate, so that neither grows as it fills. Like the estimates
//     EXPLAIN shows, a cached plan keeps those of the binding that compiled
//     it: they size tables and change no row, op or order.
//
// A plan is compiled per statement shape, not per constant (plancache.go).
// Every decision above but one reads only the shape and the catalog: the
// index choice reads which conjuncts are equalities, pruning which columns
// are named, parallel eligibility and the DOP threshold the tree and each
// access path's examine estimate (rows, or rows/NDV). The join order alone
// reads a literal's value, through each alias's output estimate (1/NDV, 0
// outside min/max, or a range interpolation). So the tree holds its WHERE
// literals as slots that each run fills (Plan.bind), and a cached plan with
// two or more aliases is served to a binding only when that binding's
// estimates choose the same order (Plan.orderHolds). The invariant: the plan
// a binding runs is the plan that binding compiles on a fresh engine.
//
// The golden parity suite (parity_test.go) holds the planner to the semantics
// of the tests' reference evaluator (reference_test.go) exactly, including its
// resolution error messages, via the shared analyzeSelect.

// joinEnumLimit caps exhaustive join-order enumeration (n! permutations).
const joinEnumLimit = 6

// colKey names one resolved column: (FROM position, column offset in its
// base table).
type colKey struct {
	pos int
	col int
}

// buildPlan compiles sel against the current catalog. The caller holds e.mu
// (planForLocked), so the clock tick stamped on the plan is at or past the
// version of everything the plan was resolved and costed against. The plan's
// estimates are sel's; its tree serves every statement of sel's shape whose
// binding chooses the same join order.
func (e *Engine) buildPlan(sel *SelectStmt) (*Plan, error) {
	epoch := e.epoch.Load()

	scope, err := e.analyzeSelect(sel)
	if err != nil {
		return nil, err
	}
	attrName := func(k colKey) string { return scope.attr(k).Name }

	// --- Resolution (same order and error strings as reference_test.go) ---
	hasAgg := false
	for _, it := range sel.Items {
		if it.IsAgg {
			hasAgg = true
		}
	}

	var groupRefs []colKey
	type aggItem struct {
		op   relation.AggOp
		star bool
		ref  colKey
	}
	var aggItems []aggItem
	star := false
	var itemRefs []colKey

	if hasAgg {
		for _, g := range sel.GroupBy {
			p, i, err := scope.resolve(g)
			if err != nil {
				return nil, err
			}
			groupRefs = append(groupRefs, colKey{p, i})
		}
		for _, it := range sel.Items {
			if !it.IsAgg {
				continue // non-aggregate items must be group-by columns; they are re-emitted first
			}
			ai := aggItem{op: it.Agg, star: it.AggStar}
			if !it.AggStar {
				p, i, err := scope.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				ai.ref = colKey{p, i}
			}
			aggItems = append(aggItems, ai)
		}
		if err := scope.distinctOutput(groupRefs); err != nil {
			return nil, err
		}
	} else {
		star = len(sel.Items) == 1 && sel.Items[0].Star
		if star {
			for p, t := range scope.tables {
				for i := 0; i < t.Schema().Arity(); i++ {
					itemRefs = append(itemRefs, colKey{p, i})
				}
			}
		} else {
			for _, it := range sel.Items {
				if it.Star {
					return nil, fmt.Errorf("remotedb: * must be the only select item")
				}
				p, i, err := scope.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				itemRefs = append(itemRefs, colKey{p, i})
			}
			if err := scope.distinctOutput(itemRefs); err != nil {
				return nil, err
			}
		}
	}

	// Projection schema (non-agg) and ORDER BY resolution. An ORDER BY column
	// resolves against the projection's output names first, by bare name; one
	// the projection dropped resolves against the FROM aliases and forces the
	// sort below the projection. Aggregate ORDER BY resolves later, against
	// the aggregate output schema.
	var projSch *relation.Schema
	var sortResIdx []int      // projection positions, when every sort col is projected
	var sortWideRefs []colKey // all sort cols as wide refs, when any is not projected
	needWide := false
	if !hasAgg {
		projSch = scope.outputSchema(itemRefs)
		for _, c := range sel.OrderBy {
			found := projSch.ColIndex(c.Column)
			if found >= 0 {
				sortResIdx = append(sortResIdx, found)
				sortWideRefs = append(sortWideRefs, itemRefs[found])
				continue
			}
			needWide = true
			p, i, err := scope.resolve(c)
			if err != nil {
				return nil, err
			}
			sortWideRefs = append(sortWideRefs, colKey{p, i})
		}
	}

	// --- Access paths, per-alias estimates and the join order ---
	n := len(scope.aliases)
	scans := make([]*scanNode, n)
	for p := range scans {
		scans[p] = e.accessFor(scope, p)
	}
	var bufs joinBufs
	js := newJoinSearch(scans, scope.cross, sel.Where, &bufs)
	order := append([]int(nil), js.choose()...)
	estOps, wideEst := js.cost(order)
	outs := js.outs

	// --- Column pruning: which base columns does anything above the joins
	// read? (Only meaningful with 2+ aliases; single-table plans prune via
	// the final projection itself.) ---
	needed := make([][]bool, n)
	mark := func(k colKey) {
		if needed[k.pos] == nil {
			needed[k.pos] = make([]bool, scans[k.pos].sch.Arity())
		}
		needed[k.pos][k.col] = true
	}
	for _, r := range itemRefs {
		mark(r)
	}
	for _, r := range groupRefs {
		mark(r)
	}
	for _, ai := range aggItems {
		if !ai.star {
			mark(ai.ref)
		}
	}
	for _, r := range sortWideRefs {
		mark(r)
	}
	for _, c := range scope.cross {
		mark(colKey{c.lp, c.lc})
		mark(colKey{c.rp, c.rc})
	}

	// nodeEst stamps the optimizer's output-cardinality estimate on every
	// node as it is built; EXPLAIN ANALYZE renders it against actuals.
	nodeEst := make(map[planNode]float64)

	// --- Per-alias subtrees: scan (+ prune) ---
	subtree := make([]planNode, n)
	prunedCols := make([][]int, n)
	for p, sn := range scans {
		var node planNode = sn
		arity := sn.sch.Arity()
		keep := make([]int, 0, arity)
		for i := 0; i < arity; i++ {
			if n == 1 || needed[p] != nil && needed[p][i] {
				keep = append(keep, i)
			}
		}
		if len(keep) < arity {
			node = &projectNode{child: sn, cols: keep, sch: sn.sch.Project(keep), alias: sn.alias}
			nodeEst[node] = outs[p]
		}
		nodeEst[sn] = outs[p]
		prunedCols[p] = keep
		subtree[p] = node
	}
	rankIn := func(k colKey) int {
		for i, c := range prunedCols[k.pos] {
			if c == k.col {
				return i
			}
		}
		return -1
	}

	// --- Left-deep join tree in the chosen order; each cross-alias conjunct
	// folds into the join that completes it (equi-joins into the hash join's
	// key, theta conditions as post-filters). ---
	offs := make([]int, n)
	joined := make([]bool, n)
	joined[order[0]] = true
	cur := subtree[order[0]]
	wideArity := len(prunedCols[order[0]])
	consumed := make([]bool, len(scope.cross))
	leftEst := outs[order[0]]
	for _, a := range order[1:] {
		right := subtree[a]
		// Per-step output estimate, mirroring joinSearch.cost's recurrence
		// (joined does not yet include a here).
		stepOut := leftEst * outs[a] * js.step(joined, a)
		var eq []relation.JoinCond
		var post []relation.Cond
		var on []crossCond
		keyNDV := 1.0 // the product of the build's key columns' NDVs
		for ci, c := range scope.cross {
			if consumed[ci] {
				continue
			}
			lk, rk := colKey{c.lp, c.lc}, colKey{c.rp, c.rc}
			switch {
			case c.lp == a && joined[c.rp]:
				if c.op == relation.OpEq {
					eq = append(eq, relation.JoinCond{Left: offs[c.rp] + rankIn(rk), Right: rankIn(lk)})
					keyNDV *= float64(colNDV(scans[a].meta, c.lc))
				} else {
					post = append(post, relation.Cond{Left: wideArity + rankIn(lk), Op: c.op, Right: offs[c.rp] + rankIn(rk)})
				}
			case c.rp == a && joined[c.lp]:
				if c.op == relation.OpEq {
					eq = append(eq, relation.JoinCond{Left: offs[c.lp] + rankIn(lk), Right: rankIn(rk)})
					keyNDV *= float64(colNDV(scans[a].meta, c.rc))
				} else {
					post = append(post, relation.Cond{Left: offs[c.lp] + rankIn(lk), Op: c.op, Right: wideArity + rankIn(rk)})
				}
			default:
				continue
			}
			consumed[ci] = true
			on = append(on, c)
		}
		jn := &joinNode{
			left:  cur,
			right: right,
			eq:    eq,
			post:  post,
			sch:   cur.Schema().Concat(right.Schema()),
			on:    on,
			build: a,
			keys:  sizeHint(math.Min(outs[a], keyNDV)),
		}
		nodeEst[jn] = stepOut
		leftEst = stepOut
		offs[a] = wideArity
		wideArity += len(prunedCols[a])
		cur = jn
		joined[a] = true
	}
	// Defensive: a conjunct not folded above (cannot normally happen) applies
	// as a residual filter over the full wide tuple.
	var leftover []relation.Cond
	for ci, c := range scope.cross {
		if !consumed[ci] {
			leftover = append(leftover, relation.Cond{
				Left:  offs[c.lp] + rankIn(colKey{c.lp, c.lc}),
				Op:    c.op,
				Right: offs[c.rp] + rankIn(colKey{c.rp, c.rc}),
			})
		}
	}
	if len(leftover) > 0 {
		cur = &filterNode{child: cur, conds: leftover}
		nodeEst[cur] = wideEst
	}

	pos := func(k colKey) int { return offs[k.pos] + rankIn(k) }

	// --- Tail: aggregation or projection, then distinct / sort / limit ---
	est := wideEst
	var schema *relation.Schema
	if hasAgg {
		var groupCols []int
		groupNDV := 1.0
		names := make([]string, 0, len(groupRefs)+len(aggItems))
		for _, r := range groupRefs {
			groupCols = append(groupCols, pos(r))
			groupNDV *= float64(colNDV(scans[r.pos].meta, r.col))
			names = append(names, attrName(r))
		}
		var specs []relation.AggSpec
		for _, ai := range aggItems {
			spec := relation.AggSpec{Op: ai.op, Col: -1}
			name := ""
			if !ai.star {
				spec.Col = pos(ai.ref)
				name = attrName(ai.ref)
			}
			specs = append(specs, spec)
			names = append(names, name)
		}
		var attrs []relation.Attr
		for i, s := range specs {
			kind := relation.KindFloat
			if s.Op == relation.AggCount {
				kind = relation.KindInt
			} else if (s.Op == relation.AggMin || s.Op == relation.AggMax) && s.Col >= 0 {
				kind = cur.Schema().Attr(s.Col).Kind
			}
			attrs = append(attrs, relation.Attr{Name: fmt.Sprintf("agg%d", i), Kind: kind})
		}
		aggSch := scope.outputSchema(groupRefs, attrs...)
		estOps += est
		if len(groupCols) > 0 {
			est = math.Min(est, groupNDV)
		} else {
			est = 1
		}
		cur = &aggNode{child: cur, groupCols: groupCols, specs: specs, sch: aggSch, names: names, groups: sizeHint(est)}
		nodeEst[cur] = est
		if sel.Distinct {
			estOps += est
			cur = &distinctNode{child: cur}
			nodeEst[cur] = est
		}
		if len(sel.OrderBy) > 0 {
			var cols []int
			var names []string
			for _, c := range sel.OrderBy {
				i := aggSch.ColIndex(c.Column)
				if i < 0 {
					return nil, fmt.Errorf("remotedb: ORDER BY column %s not in result", c.Column)
				}
				cols = append(cols, i)
				names = append(names, c.Column)
			}
			estOps += est
			sn := &sortNode{child: cur, cols: cols, limit: -1, names: names}
			if sel.Limit >= 0 { // distinct runs below the sort, so TopN fusing is safe
				sn.limit = sel.Limit
			}
			cur = sn
			nodeEst[cur] = est
		}
		schema = aggSch
	} else {
		cols := make([]int, len(itemRefs))
		for i, r := range itemRefs {
			cols[i] = pos(r)
		}
		if needWide {
			// Satellite semantics: ORDER BY names a non-projected column, so
			// the sort runs below the projection, over the wide tuples.
			widePoss := make([]int, len(sortWideRefs))
			names := make([]string, len(sortWideRefs))
			for i, r := range sortWideRefs {
				widePoss[i] = pos(r)
				names[i] = attrName(r)
			}
			estOps += est
			sn := &sortNode{child: cur, cols: widePoss, limit: -1, names: names, wide: true}
			if sel.Limit >= 0 && !sel.Distinct { // projection is 1-1, so TopN below it is safe
				sn.limit = sel.Limit
			}
			cur = sn
			nodeEst[cur] = est
			estOps += est
			cur = &projectNode{child: cur, cols: cols, sch: projSch, counted: true}
			nodeEst[cur] = est
			if sel.Distinct {
				estOps += est
				cur = &distinctNode{child: cur}
				nodeEst[cur] = est
			}
		} else {
			estOps += est
			cur = &projectNode{child: cur, cols: cols, sch: projSch, counted: true}
			nodeEst[cur] = est
			if sel.Distinct {
				estOps += est
				cur = &distinctNode{child: cur}
				nodeEst[cur] = est
			}
			if len(sortResIdx) > 0 {
				names := make([]string, len(sortResIdx))
				for i, p := range sortResIdx {
					names[i] = projSch.Attr(p).Name
				}
				estOps += est
				sn := &sortNode{child: cur, cols: sortResIdx, limit: -1, names: names}
				if sel.Limit >= 0 { // distinct (if any) runs below the sort
					sn.limit = sel.Limit
				}
				cur = sn
				nodeEst[cur] = est
			}
		}
		schema = projSch
	}
	if sel.Limit >= 0 {
		est = math.Min(est, float64(sel.Limit))
		cur = &limitNode{child: cur, n: sel.Limit}
		nodeEst[cur] = est
	}

	nconds, nkeys := 0, 0
	for _, sn := range scans {
		nconds += len(sn.conds)
		nkeys += len(sn.idxSlots)
	}
	return &Plan{
		attrs:   toWireAttrs(schema),
		nodes:   numberNodes(cur, 0),
		nconds:  nconds,
		nkeys:   nkeys,
		root:    cur,
		schema:  schema,
		epoch:   epoch,
		stmt:    sel,
		estRows: est,
		estOps:  estOps,
		nodeEst: nodeEst,
		scans:   scans,
		cross:   scope.cross,
		order:   order,
		// Parallel eligibility is a pure shape property, so it is decided
		// here, once per plan; the per-execution DOP decision stays at open
		// time where the engine's settings are known.
		par:       findParSection(cur),
		resumable: resumableScan(cur),
	}, nil
}

// resumableScan returns the scan of a [limit] → [project] → scan plan, or nil
// for any other shape (Plan.resumable).
func resumableScan(n planNode) *scanNode {
	if l, ok := n.(*limitNode); ok {
		n = l.child
	}
	if p, ok := n.(*projectNode); ok {
		n = p.child
	}
	sn, _ := n.(*scanNode)
	return sn
}

// attr returns the base-table attribute a resolved column names.
func (sc *selScope) attr(k colKey) relation.Attr { return sc.tables[k.pos].Schema().Attr(k.col) }

// distinctOutput rejects an output list (select items, or GROUP BY columns)
// that names one column twice: a result schema cannot hold both.
func (sc *selScope) distinctOutput(refs []colKey) error {
	for i, r := range refs {
		for _, q := range refs[:i] {
			if q == r {
				return fmt.Errorf("remotedb: duplicate output column %s", sc.attr(r).Name)
			}
		}
	}
	return nil
}

// outputSchema names a result's columns: the base attributes of refs, then
// extra, in that order. A name already taken (po.id beside cu.id) gets the
// _2, _3, … suffix Schema.Concat would give it, assigned here in output order
// so that the names are a function of the statement, not of the join order
// the planner happened to choose.
func (sc *selScope) outputSchema(refs []colKey, extra ...relation.Attr) *relation.Schema {
	attrs := make([]relation.Attr, 0, len(refs)+len(extra))
	for _, r := range refs {
		attrs = append(attrs, sc.attr(r))
	}
	attrs = append(attrs, extra...)
	seen := make(map[string]bool, len(attrs))
	for i, a := range attrs {
		for n := 2; seen[attrs[i].Name]; n++ {
			attrs[i].Name = fmt.Sprintf("%s_%d", a.Name, n)
		}
		seen[attrs[i].Name] = true
	}
	return relation.NewSchema(attrs...)
}

// accessFor builds the scan of the alias at FROM position p: its pushed-down
// conjuncts, with each literal replaced by its slot, and its access path — the
// most selective covering hash index when equality-literal conjuncts match
// one, else a full scan. The caller holds e.mu.
func (e *Engine) accessFor(scope *selScope, p int) *scanNode {
	base := scope.tables[p]
	sn := &scanNode{
		table: base.Name,
		alias: scope.aliases[p],
		pos:   p,
		sch:   base.Schema(),
		conds: scope.perAlias[p],
		slots: scope.slots[p],
		meta:  e.meta[base.Name],
		rows:  float64(base.Len()),
	}
	sn.examine = sn.rows
	eqs := false
	for k, c := range sn.conds {
		if sn.slots[k] >= 0 {
			sn.conds[k].Const = relation.Value{}
			eqs = eqs || c.Op == relation.OpEq
		}
	}
	if !eqs {
		return sn
	}
	var best *relation.Index
	bestNDV := 0.0
	for _, ix := range e.indexes[base.Name] {
		if !sn.eqCovers(ix.Cols()) {
			continue
		}
		nd := 1.0
		for _, col := range ix.Cols() {
			nd *= float64(colNDV(sn.meta, col))
		}
		if best == nil || nd > bestNDV {
			best, bestNDV = ix, nd
		}
	}
	if best == nil {
		return sn
	}
	sn.idxCols = append([]int(nil), best.Cols()...)
	sn.idxSlots = make([]int, len(sn.idxCols))
	for i, col := range sn.idxCols {
		for k, c := range sn.conds {
			if sn.slots[k] >= 0 && c.Op == relation.OpEq && c.Left == col {
				sn.idxSlots[i] = sn.slots[k]
			}
		}
	}
	if bestNDV > 0 {
		sn.examine = sn.rows / bestNDV
	}
	return sn
}

// eqCovers reports whether every one of cols has an equality-literal
// conjunct.
func (n *scanNode) eqCovers(cols []int) bool {
	for _, col := range cols {
		found := false
		for k, c := range n.conds {
			if n.slots[k] >= 0 && c.Op == relation.OpEq && c.Left == col {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// cond returns the scan's k-th conjunct with where's literal in its slot.
func (n *scanNode) cond(k int, where []SQLCond) relation.Cond {
	c := n.conds[k]
	if s := n.slots[k]; s >= 0 {
		c.Const = where[s].RightVal
	}
	return c
}

// outEst is the rows the scan emits under where's literals: its examined
// extension times each pushed-down conjunct's selectivity.
func (n *scanNode) outEst(where []SQLCond) float64 {
	selv := 1.0
	for k := range n.conds {
		selv *= condSelectivity(n.meta, n.cond(k, where))
	}
	return math.Max(n.rows*selv, 0)
}

// sizeHint turns an estimate into a hash table's size hint, at most the
// 1<<16 the executor caps hints at (an estimate over a cross product may
// not fit an int).
func sizeHint(est float64) int {
	return int(math.Min(est, 1<<16))
}

// colNDV returns the column's distinct-value estimate (a default guess of 10
// without statistics; never below 1).
func colNDV(m *tableMeta, col int) int {
	if m == nil || col < 0 || col >= len(m.cols) {
		return 10
	}
	n := m.cols[col].ndv()
	if n < 1 {
		return 1
	}
	return n
}

// condSelectivity estimates the fraction of rows a pushed-down conjunct
// keeps: 1/NDV for equality against a constant (0 when the constant falls
// outside the observed min/max), (NDV-1)/NDV for inequality, a min/max
// interpolated fraction for numeric ranges, 1/3 otherwise.
func condSelectivity(m *tableMeta, c relation.Cond) float64 {
	if c.Right >= 0 { // column vs column within one table
		nd := float64(maxInt(colNDV(m, c.Left), colNDV(m, c.Right)))
		switch c.Op {
		case relation.OpEq:
			return 1 / nd
		case relation.OpNe:
			return 1 - 1/nd
		default:
			return 1.0 / 3
		}
	}
	nd := float64(colNDV(m, c.Left))
	var acc *colAcc
	if m != nil && c.Left >= 0 && c.Left < len(m.cols) {
		acc = &m.cols[c.Left]
	}
	switch c.Op {
	case relation.OpEq:
		if acc != nil && acc.any && (c.Const.Less(acc.min) || acc.max.Less(c.Const)) {
			return 0
		}
		return 1 / nd
	case relation.OpNe:
		return (nd - 1) / nd
	default:
		return rangeSelectivity(acc, c.Op, c.Const)
	}
}

// rangeSelectivity interpolates a range predicate's selectivity between the
// column's observed min and max (numeric columns only; 1/3 otherwise).
func rangeSelectivity(acc *colAcc, op relation.CmpOp, v relation.Value) float64 {
	if acc == nil || !acc.any || !acc.min.IsNumeric() || !acc.max.IsNumeric() || !v.IsNumeric() {
		return 1.0 / 3
	}
	lo, hi := acc.min.AsFloat(), acc.max.AsFloat()
	if hi <= lo {
		return 0.5
	}
	f := (v.AsFloat() - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	switch op {
	case relation.OpLt, relation.OpLe:
		return f
	case relation.OpGt, relation.OpGe:
		return 1 - f
	}
	return 1.0 / 3
}

// joinSearch is the join-order choice for one binding: each alias's examine
// estimate (its scan's, a property of the shape) and output estimate (under
// the binding's literals), indexed by FROM position. buildPlan makes the
// choice and Plan.orderHolds repeats it for a later binding, through the same
// code, so the two agree exactly.
type joinSearch struct {
	scans []*scanNode
	cross []crossCond
	outs  []float64

	// Scratch: the aliases an order has joined so far, the order under
	// consideration, and the best order found.
	joined      []bool
	order, best []int

	bestCost, bestProbe float64
}

// joinBufs backs a joinSearch over up to joinEnumLimit aliases, so that
// repeating the choice for a cache hit allocates nothing.
type joinBufs struct {
	outs        [joinEnumLimit]float64
	joined      [joinEnumLimit]bool
	order, best [joinEnumLimit]int
}

func newJoinSearch(scans []*scanNode, cross []crossCond, where []SQLCond, b *joinBufs) joinSearch {
	n := len(scans)
	js := joinSearch{scans: scans, cross: cross}
	if n <= joinEnumLimit {
		js.outs, js.joined, js.order, js.best = b.outs[:n], b.joined[:n], b.order[:n], b.best[:n]
	} else {
		js.outs, js.joined, js.order, js.best = make([]float64, n), make([]bool, n), make([]int, n), make([]int, n)
	}
	for p, sn := range scans {
		js.outs[p] = sn.outEst(where)
	}
	return js
}

// step estimates the selectivity of the cross-alias conjuncts that joining
// next into the joined aliases completes: 1/max(NDV) per equi-join, 1/3 per
// theta condition.
func (js *joinSearch) step(joined []bool, next int) float64 {
	s := 1.0
	for _, c := range js.cross {
		if !((c.lp == next && joined[c.rp]) || (c.rp == next && joined[c.lp])) {
			continue
		}
		if c.op == relation.OpEq {
			d := float64(maxInt(colNDV(js.scans[c.lp].meta, c.lc), colNDV(js.scans[c.rp].meta, c.rc)))
			if d < 1 {
				d = 1
			}
			s /= d
		} else {
			s /= 3
		}
	}
	return s
}

// cost costs one left-deep order: each step pays the new alias's access
// path, the probe stream, the build, and the estimated output.
func (js *joinSearch) cost(order []int) (cost, outRows float64) {
	clear(js.joined)
	js.joined[order[0]] = true
	cost = js.scans[order[0]].examine
	left := js.outs[order[0]]
	for _, a := range order[1:] {
		out := left * js.outs[a] * js.step(js.joined, a)
		cost += js.scans[a].examine + left + js.outs[a] + out
		left = out
		js.joined[a] = true
	}
	return cost, left
}

// choose returns the cheapest left-deep order: exhaustively for up to
// joinEnumLimit aliases, greedily beyond. Cost ties break toward the larger
// first (probe) side so the big relation streams and small ones build. The
// result is scratch, valid until the search is used again.
func (js *joinSearch) choose() []int {
	n := len(js.scans)
	for p := range js.order {
		js.order[p] = p
	}
	copy(js.best, js.order)
	if n <= 1 {
		return js.best
	}
	if n <= joinEnumLimit {
		js.bestCost, _ = js.cost(js.best)
		js.bestProbe = js.outs[js.best[0]]
		js.permute(0)
		return js.best
	}
	// Greedy: start from the largest filtered alias (it streams as the probe
	// side), then repeatedly add the cheapest next step.
	rest, outs := js.order, js.outs
	slices.SortStableFunc(rest, func(a, b int) int { return cmp.Compare(outs[b], outs[a]) })
	order := js.best[:0]
	clear(js.joined)
	order = append(order, rest[0])
	js.joined[rest[0]] = true
	left := js.outs[rest[0]]
	rest = rest[1:]
	for len(rest) > 0 {
		bestI := 0
		bestStep := math.Inf(1)
		bestOut := 0.0
		for i, a := range rest {
			out := left * js.outs[a] * js.step(js.joined, a)
			step := js.scans[a].examine + left + js.outs[a] + out
			if step < bestStep {
				bestI, bestStep, bestOut = i, step, out
			}
		}
		a := rest[bestI]
		rest = append(rest[:bestI], rest[bestI+1:]...)
		order = append(order, a)
		js.joined[a] = true
		left = bestOut
	}
	return order
}

// permute visits every order of js.order[k:] (the identity first), keeping
// the cheapest in js.best.
func (js *joinSearch) permute(k int) {
	perm := js.order
	if k == len(perm) {
		c, _ := js.cost(perm)
		probe := js.outs[perm[0]]
		const eps = 1e-9
		if c < js.bestCost-eps || (math.Abs(c-js.bestCost) <= eps && probe > js.bestProbe) {
			js.bestCost, js.bestProbe = c, probe
			copy(js.best, perm)
		}
		return
	}
	for i := k; i < len(perm); i++ {
		perm[k], perm[i] = perm[i], perm[k]
		js.permute(k + 1)
		perm[k], perm[i] = perm[i], perm[k]
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
