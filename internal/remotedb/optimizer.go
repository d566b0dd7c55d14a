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
//   - index-aware access paths: a scan reads the stored index whose columns
//     equality literals key (the most selective, by the product of its
//     columns' NDVs), or the sorted order of the one whose first column range
//     literals bound, or the whole table, whichever its binding's estimates
//     price cheapest;
//   - join reordering and method: left-deep orders enumerated exhaustively up
//     to joinEnumLimit aliases (greedily beyond), each step costed as a hash
//     join (the new alias's access path, its build, the probe stream and the
//     output) or, when the new alias has a stored index on its join columns,
//     as an index join (the stream and one probe of that index per row), the
//     cheaper; ties break toward the hash join and the largest probe side, so
//     small relations build, or drive probes into large ones, and large ones
//     stream (small-drives-large);
//   - column pruning: each scan in a multi-table plan, but an index join's
//     inner one, projects away columns nothing downstream reads, narrowing
//     hash-table entries and shipped intermediates;
//   - LIMIT/TopN pushdown: a LIMIT over an ORDER BY fuses into a bounded-heap
//     TopN sort; a bare LIMIT short-circuits naturally because execution is
//     pull-based;
//   - hash-table sizing: a join build starts sized for min(build rows, the
//     product of its key columns' NDVs) keys, and a GROUP BY table for the
//     group estimate, so that neither grows as it fills. Like the estimates
//     EXPLAIN shows, a cached plan keeps those of the binding that compiled
//     it: they size tables and change no row, op or order.
//
// Every estimate is in server tuple operations, the unit Costs.PerServerOp
// prices, so a cheaper plan by these counts is a cheaper one by Costs.
//
// A plan is compiled per statement shape, not per constant (plancache.go).
// Which index paths a scan may take, pruning and parallel eligibility read
// only the shape and the catalog. Three decisions read a literal's value,
// through each alias's output estimate (1/NDV, 0 outside min/max, or an
// interval interpolated between them) and a range path's examine estimate:
// each scan's access path, the join order and each join's method. So the
// tree holds its WHERE literals as slots that each run fills (Plan.bind), and
// a cached plan is served to a binding only when that binding's estimates
// make the same three decisions (Plan.orderHolds); the DOP threshold reads
// the driver's examine estimate under the binding it runs. The invariant:
// the plan a binding runs is the plan that binding compiles on a fresh
// engine.
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
	via := append([]int(nil), js.bestVia...)
	estOps, wideEst := js.cost(order)
	outs := js.outs
	for p, sn := range scans {
		sn.path = js.paths[p]
		if via[p] >= 0 {
			sn.path, sn.via = probed, via[p]
		}
		switch sn.path {
		case keyLookup:
			sn.ixCols = sn.ixs[sn.key].cols
		case rangeLookup:
			sn.ixCols = sn.ixs[sn.rng].cols
		case probed:
			sn.ixCols = sn.ixs[sn.via].cols
		}
	}

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

	// --- Per-alias subtrees: scan (+ prune). An index join emits its inner
	// side's stored rows whole, so that side is not pruned. ---
	subtree := make([]planNode, n)
	prunedCols := make([][]int, n)
	for p, sn := range scans {
		var node planNode = sn
		arity := sn.sch.Arity()
		keep := make([]int, 0, arity)
		for i := 0; i < arity; i++ {
			if n == 1 || via[p] >= 0 || needed[p] != nil && needed[p][i] {
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
		var probeCols, buildCols []int
		var post []relation.Cond
		var on []crossCond
		for ci, c := range scope.cross {
			if consumed[ci] {
				continue
			}
			lk, rk := colKey{c.lp, c.lc}, colKey{c.rp, c.rc}
			switch {
			case c.lp == a && joined[c.rp]:
				if c.op == relation.OpEq {
					probeCols, buildCols = append(probeCols, offs[c.rp]+rankIn(rk)), append(buildCols, rankIn(lk))
				} else {
					post = append(post, relation.Cond{Left: wideArity + rankIn(lk), Op: c.op, Right: offs[c.rp] + rankIn(rk)})
				}
			case c.rp == a && joined[c.lp]:
				if c.op == relation.OpEq {
					probeCols, buildCols = append(probeCols, offs[c.lp]+rankIn(lk)), append(buildCols, rankIn(rk))
				} else {
					post = append(post, relation.Cond{Left: offs[c.lp] + rankIn(lk), Op: c.op, Right: wideArity + rankIn(rk)})
				}
			default:
				continue
			}
			consumed[ci] = true
			on = append(on, c)
		}
		if v := via[a]; v >= 0 {
			// The index join probes the stored index on exactly its columns,
			// so its key pairs them in the index's order; an equi-join
			// conjunct past them is a post condition.
			var pc, bc []int
			used := make([]bool, len(buildCols))
			for _, col := range scans[a].ixs[v].cols {
				i := 0
				for used[i] || buildCols[i] != col {
					i++
				}
				used[i] = true
				pc, bc = append(pc, probeCols[i]), append(bc, col)
			}
			for i, u := range used {
				if !u {
					post = append(post, relation.Cond{Left: probeCols[i], Op: relation.OpEq, Right: wideArity + buildCols[i]})
				}
			}
			probeCols, buildCols = pc, bc
		}
		jn := &joinNode{
			left:      cur,
			right:     right,
			probeCols: probeCols,
			buildCols: buildCols,
			post:      post,
			sch:       cur.Schema().Concat(right.Schema()),
			on:        on,
			build:     a,
			rows:      sizeHint(outs[a]),
			indexed:   via[a] >= 0,
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
		if sn.path == keyLookup {
			nkeys += len(sn.idxSlots)
		}
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
		via:     via,
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
// conjuncts, with each literal replaced by its slot, the table's stored
// indexes, and among them the candidates for its access paths (key, rng).
// The caller holds e.mu.
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
		key:   -1,
		rng:   -1,
	}
	for k := range sn.conds {
		if sn.slots[k] >= 0 {
			sn.conds[k].Const = relation.Value{}
		}
	}
	for _, ix := range e.indexes[base.Name] {
		st := storedIx{cols: ix.Cols(), ndv: 1}
		for _, col := range st.cols {
			st.ndv *= float64(colNDV(sn.meta, col))
		}
		tail := sn.rows - float64(ix.Rows())
		st.probe, st.tail = (sn.rows-tail)/st.ndv+tail, tail
		sn.ixs = append(sn.ixs, st)
		i := len(sn.ixs) - 1
		if sn.eqCovers(st.cols) && (sn.key < 0 || st.ndv > sn.ixs[sn.key].ndv) {
			sn.key = i
		}
		if sn.bounded(st.cols[0]) && (sn.rng < 0 || colNDV(sn.meta, st.cols[0]) > colNDV(sn.meta, sn.ixs[sn.rng].cols[0])) {
			sn.rng = i
		}
	}
	if sn.key < 0 {
		return sn
	}
	key := sn.ixs[sn.key].cols
	sn.idxSlots = make([]int, len(key))
	for i, col := range key {
		for k, c := range sn.conds {
			if sn.slots[k] >= 0 && c.Op == relation.OpEq && c.Left == col {
				sn.idxSlots[i] = sn.slots[k]
			}
		}
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

// bound reports whether the scan's k-th conjunct bounds its column by a
// literal: <, <=, > or >=.
func (n *scanNode) bound(k int) bool {
	op := n.conds[k].Op
	return n.slots[k] >= 0 && op != relation.OpEq && op != relation.OpNe
}

// bounded reports whether a conjunct bounds column col by a literal.
func (n *scanNode) bounded(col int) bool {
	for k, c := range n.conds {
		if n.bound(k) && c.Left == col {
			return true
		}
	}
	return false
}

// examine estimates the rows the scan reads by path under where's literals:
// the table; a key's rows, rows/NDV; a range's candidates and the rows
// appended since its index was built; an index join's rows matched by one
// probe.
func (n *scanNode) examine(path accessPath, where []SQLCond) float64 {
	switch path {
	case keyLookup:
		return n.rows / n.ixs[n.key].ndv
	case rangeLookup:
		ix := n.ixs[n.rng]
		return (n.rows-ix.tail)*n.interval(ix.cols[0], where) + ix.tail
	case probed:
		return n.ixs[n.via].probe
	}
	return n.rows
}

// access chooses the scan's path under where's literals: the key lookup when
// there is one, the range when what it examines and a word of its position
// bitmap per 64 indexed rows cost less, and the full scan when the table
// costs less than both.
func (n *scanNode) access(where []SQLCond) accessPath {
	path, cost := fullScan, n.rows
	if n.key >= 0 {
		path, cost = keyLookup, n.examine(keyLookup, where)
	}
	if n.rng >= 0 {
		if c := n.examine(rangeLookup, where) + (n.rows-n.ixs[n.rng].tail)/64; c < cost {
			path = rangeLookup
		}
	}
	return path
}

// cond returns the scan's k-th conjunct with where's literal in its slot.
func (n *scanNode) cond(k int, where []SQLCond) relation.Cond {
	c := n.conds[k]
	if s := n.slots[k]; s >= 0 {
		c.Const = where[s].RightVal
	}
	return c
}

// outEst is the rows the scan emits under where's literals: its table's rows
// times each pushed-down conjunct's selectivity, the bounds on one column
// taken together as one interval.
func (n *scanNode) outEst(where []SQLCond) float64 {
	selv := 1.0
	for k, c := range n.conds {
		if !n.bound(k) {
			selv *= condSelectivity(n.meta, n.cond(k, where))
			continue
		}
		first := true
		for j := range k {
			first = first && !(n.bound(j) && n.conds[j].Left == c.Left)
		}
		if first {
			selv *= n.interval(c.Left, where)
		}
	}
	return math.Max(n.rows*selv, 0)
}

// interval estimates the share of rows whose column col lies within the
// bounds where's literals put on it, interpolated as one interval between
// the column's min and max: sid >= 100 AND sid < 105 spans 5 of 2 000 keys,
// where P(≥ 100)·P(< 105) would read 0.05. An interval bounded on both sides
// and not empty holds at least one value's rows, 1/NDV. When a bound cannot
// be interpolated (a column or literal not numeric, or a column of one
// value), the bounds' selectivities multiply.
func (n *scanNode) interval(col int, where []SQLCond) float64 {
	lo, hi, product, exact := 0.0, 1.0, 1.0, true
	lower, upper := false, false
	var acc *colAcc
	if n.meta != nil && col < len(n.meta.cols) {
		acc = &n.meta.cols[col]
	}
	for k := range n.conds {
		if !n.bound(k) || n.conds[k].Left != col {
			continue
		}
		c := n.cond(k, where)
		product *= condSelectivity(n.meta, c)
		f, ok := rangeFraction(acc, c.Const)
		exact = exact && ok
		if c.Op == relation.OpLt || c.Op == relation.OpLe {
			hi, upper = math.Min(hi, f), true
		} else {
			lo, lower = math.Max(lo, f), true
		}
	}
	switch {
	case !exact:
		return product
	case lower && upper && hi >= lo:
		return math.Max(hi-lo, 1/float64(colNDV(n.meta, col)))
	}
	return math.Max(hi-lo, 0)
}

// sizeHint turns an estimate into a size hint for a join's build rows or an
// aggregate's group table, at most 1<<16 (an estimate over a cross product
// may not fit an int).
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
	f, ok := rangeFraction(acc, v)
	if !ok {
		return 0.5
	}
	switch op {
	case relation.OpLt, relation.OpLe:
		return f
	case relation.OpGt, relation.OpGe:
		return 1 - f
	}
	return 1.0 / 3
}

// rangeFraction is where v falls between the column's observed min and max,
// from 0 at min to 1 at max, clamped; ok is false when it cannot be
// interpolated: no statistics, a column or v not numeric, or min = max.
func rangeFraction(acc *colAcc, v relation.Value) (f float64, ok bool) {
	if acc == nil || !acc.any || !acc.min.IsNumeric() || !acc.max.IsNumeric() || !v.IsNumeric() {
		return 0, false
	}
	lo, hi := acc.min.AsFloat(), acc.max.AsFloat()
	if hi <= lo {
		return 0, false
	}
	return math.Min(math.Max((v.AsFloat()-lo)/(hi-lo), 0), 1), true
}

// joinSearch is the join-order and join-method choice for one binding. By
// FROM position it holds each alias's output estimate, access path and the
// rows that path examines, under the binding's literals. buildPlan makes the
// choice and Plan.orderHolds repeats it for a later binding, through the same
// code, so the two agree exactly.
type joinSearch struct {
	scans []*scanNode
	cross []crossCond
	outs  []float64
	paths []accessPath
	exams []float64

	// Scratch: the aliases an order has joined so far, the order under
	// consideration, and the best order found. via and bestVia are, by FROM
	// position, the stored index (an entry of the alias's ixs) that an index
	// join probes to join the alias, in the order last costed and in the best
	// order, or -1.
	joined              []bool
	order, best         []int
	via, bestVia        []int
	bestCost, bestProbe float64
}

// joinBufs backs a joinSearch over up to joinEnumLimit aliases, so that
// repeating the choice for a cache hit allocates nothing.
type joinBufs struct {
	outs, exams               [joinEnumLimit]float64
	paths                     [joinEnumLimit]accessPath
	joined                    [joinEnumLimit]bool
	order, best, via, bestVia [joinEnumLimit]int
}

func newJoinSearch(scans []*scanNode, cross []crossCond, where []SQLCond, b *joinBufs) joinSearch {
	n := len(scans)
	js := joinSearch{scans: scans, cross: cross}
	if n <= joinEnumLimit {
		js.outs, js.exams, js.paths, js.joined = b.outs[:n], b.exams[:n], b.paths[:n], b.joined[:n]
		js.order, js.best, js.via, js.bestVia = b.order[:n], b.best[:n], b.via[:n], b.bestVia[:n]
	} else {
		js.outs, js.exams, js.paths, js.joined = make([]float64, n), make([]float64, n), make([]accessPath, n), make([]bool, n)
		js.order, js.best, js.via, js.bestVia = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	}
	for p, sn := range scans {
		js.outs[p] = sn.outEst(where)
		js.paths[p] = sn.access(where)
		js.exams[p] = sn.examine(js.paths[p], where)
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

// join prices joining alias a into the joined aliases, whose output is left
// rows: as a hash join, which pays a's access path, its rows into the build,
// the left stream and the output; or as an index join, which pays the left
// stream, one probe of a's stored index a left row and the output, when an
// equi-join conjunct with a joined alias keys each of that index's columns.
// It returns the cheaper, ties to the hash join, with the output estimate and
// the index an index join probes, or -1.
func (js *joinSearch) join(a int, left float64) (cost, out float64, via int) {
	out = left * js.outs[a] * js.step(js.joined, a)
	cost, via = js.exams[a]+left+js.outs[a]+out, -1
	for i, ix := range js.scans[a].ixs {
		if c := left + left*ix.probe + out; c < cost && js.keys(a, ix.cols) {
			cost, via = c, i
		}
	}
	return cost, out, via
}

// keys reports whether every one of alias a's columns cols is equated with a
// column of a joined alias.
func (js *joinSearch) keys(a int, cols []int) bool {
	for _, col := range cols {
		found := false
		for _, c := range js.cross {
			found = found || c.op == relation.OpEq && (c.lp == a && c.lc == col && js.joined[c.rp] || c.rp == a && c.rc == col && js.joined[c.lp])
		}
		if !found {
			return false
		}
	}
	return true
}

// cost costs one left-deep order, each step by join, and records each
// step's method in via.
func (js *joinSearch) cost(order []int) (cost, outRows float64) {
	clear(js.joined)
	js.joined[order[0]] = true
	js.via[order[0]] = -1
	cost = js.exams[order[0]]
	left := js.outs[order[0]]
	for _, a := range order[1:] {
		c, out, via := js.join(a, left)
		cost += c
		js.via[a] = via
		left = out
		js.joined[a] = true
	}
	return cost, left
}

// choose returns the cheapest left-deep order, with its joins' methods in
// bestVia: exhaustively for up to joinEnumLimit aliases, greedily beyond.
// Cost ties break toward the larger first (probe) side so the big relation
// streams and small ones build. The result is scratch, valid until the
// search is used again.
func (js *joinSearch) choose() []int {
	n := len(js.scans)
	for p := range js.order {
		js.order[p] = p
	}
	copy(js.best, js.order)
	if n <= 1 {
		js.bestVia[0] = -1
		return js.best
	}
	if n <= joinEnumLimit {
		js.bestCost, _ = js.cost(js.best)
		copy(js.bestVia, js.via)
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
	js.bestVia[rest[0]] = -1
	left := js.outs[rest[0]]
	rest = rest[1:]
	for len(rest) > 0 {
		bestI, bestVia := 0, -1
		bestStep := math.Inf(1)
		bestOut := 0.0
		for i, a := range rest {
			if step, out, via := js.join(a, left); step < bestStep {
				bestI, bestStep, bestOut, bestVia = i, step, out, via
			}
		}
		a := rest[bestI]
		rest = append(rest[:bestI], rest[bestI+1:]...)
		order = append(order, a)
		js.joined[a] = true
		js.bestVia[a] = bestVia
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
			copy(js.bestVia, js.via)
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
