package remotedb

import (
	"fmt"
	"math"
	"sort"
	"strings"

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
//     pull-based.
//
// The golden parity suite (parity_test.go) holds the planner to the semantics
// of the tests' reference evaluator (reference_test.go) exactly, including its
// resolution error messages, via the shared analyzeSelect.

// joinEnumLimit caps exhaustive join-order enumeration (n! permutations).
const joinEnumLimit = 6

// aliasAccess is the chosen access path and cardinality estimates for one
// FROM alias.
type aliasAccess struct {
	alias string
	table string
	sch   *relation.Schema
	conds []relation.Cond
	meta  *tableMeta

	idxCols []int
	idxVals []relation.Value

	examineEst float64 // rows the access path reads
	outEst     float64 // rows surviving the pushed-down predicates
}

// colKey names one resolved column: (alias, column offset in its base table).
type colKey struct {
	alias string
	col   int
}

// buildPlan compiles sel against the current catalog. The caller holds e.mu
// (planFor), so the clock tick stamped on the plan is at or past the version
// of everything the plan was resolved and costed against.
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
			a, i, err := scope.resolve(g)
			if err != nil {
				return nil, err
			}
			groupRefs = append(groupRefs, colKey{a, i})
		}
		for _, it := range sel.Items {
			if !it.IsAgg {
				continue // non-aggregate items must be group-by columns; they are re-emitted first
			}
			ai := aggItem{op: it.Agg, star: it.AggStar}
			if !it.AggStar {
				a, i, err := scope.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				ai.ref = colKey{a, i}
			}
			aggItems = append(aggItems, ai)
		}
		if err := scope.distinctOutput(groupRefs); err != nil {
			return nil, err
		}
	} else {
		star = len(sel.Items) == 1 && sel.Items[0].Star
		if star {
			for _, a := range scope.order {
				for i := 0; i < scope.aliases[a].Schema().Arity(); i++ {
					itemRefs = append(itemRefs, colKey{a, i})
				}
			}
		} else {
			for _, it := range sel.Items {
				if it.Star {
					return nil, fmt.Errorf("remotedb: * must be the only select item")
				}
				a, i, err := scope.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				itemRefs = append(itemRefs, colKey{a, i})
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
			a, i, err := scope.resolve(c)
			if err != nil {
				return nil, err
			}
			sortWideRefs = append(sortWideRefs, colKey{a, i})
		}
	}

	// --- Access paths and per-alias estimates ---
	accs := make(map[string]*aliasAccess, len(scope.order))
	for _, a := range scope.order {
		accs[a] = e.accessFor(scope, a)
	}

	// --- Join order ---
	best := e.chooseJoinOrder(scope, accs)
	estOps, wideEst := joinOrderCost(scope, accs, best)

	// --- Column pruning: which base columns does anything above the joins
	// read? (Only meaningful with 2+ aliases; single-table plans prune via
	// the final projection itself.) ---
	needed := make(map[string]map[int]bool, len(scope.order))
	mark := func(k colKey) {
		if needed[k.alias] == nil {
			needed[k.alias] = make(map[int]bool)
		}
		needed[k.alias][k.col] = true
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
		mark(colKey{c.la, c.lc})
		mark(colKey{c.ra, c.rc})
	}

	// nodeEst stamps the optimizer's output-cardinality estimate on every
	// node as it is built; EXPLAIN ANALYZE renders it against actuals.
	nodeEst := make(map[planNode]float64)

	// --- Per-alias subtrees: scan (+ prune) ---
	subtree := make(map[string]planNode, len(scope.order))
	prunedCols := make(map[string][]int, len(scope.order))
	scanExamine := make(map[*scanNode]float64, len(scope.order))
	for _, a := range scope.order {
		acc := accs[a]
		sn := &scanNode{
			table:   acc.table,
			alias:   a,
			sch:     acc.sch,
			conds:   acc.conds,
			idxCols: acc.idxCols,
			idxVals: acc.idxVals,
			desc:    scanDesc(acc),
		}
		scanExamine[sn] = acc.examineEst
		var node planNode = sn
		arity := acc.sch.Arity()
		keep := make([]int, 0, arity)
		if len(scope.order) > 1 && len(needed[a]) < arity {
			for i := 0; i < arity; i++ {
				if needed[a][i] {
					keep = append(keep, i)
				}
			}
			names := make([]string, len(keep))
			for i, c := range keep {
				names[i] = acc.sch.Attr(c).Name
			}
			node = &projectNode{
				child: sn,
				cols:  keep,
				sch:   acc.sch.Project(keep),
				desc:  fmt.Sprintf("prune %s to (%s)", a, strings.Join(names, ", ")),
			}
		} else {
			for i := 0; i < arity; i++ {
				keep = append(keep, i)
			}
		}
		nodeEst[sn] = acc.outEst
		if node != planNode(sn) {
			nodeEst[node] = acc.outEst
		}
		prunedCols[a] = keep
		subtree[a] = node
	}
	rankIn := func(k colKey) int {
		for i, c := range prunedCols[k.alias] {
			if c == k.col {
				return i
			}
		}
		return -1
	}

	// --- Left-deep join tree in the chosen order; each cross-alias conjunct
	// folds into the join that completes it (equi-joins into the hash join's
	// key, theta conditions as post-filters). ---
	offs := map[string]int{best[0]: 0}
	joined := map[string]bool{best[0]: true}
	cur := subtree[best[0]]
	wideArity := len(prunedCols[best[0]])
	consumed := make([]bool, len(scope.cross))
	leftEst := accs[best[0]].outEst
	for _, a := range best[1:] {
		right := subtree[a]
		// Per-step output estimate, mirroring joinOrderCost's recurrence
		// (joined does not yet include a here).
		stepOut := leftEst * accs[a].outEst * joinStepSelectivity(scope, accs, joined, a)
		var eq []relation.JoinCond
		var post []relation.Cond
		var condStrs []string
		for ci, c := range scope.cross {
			if consumed[ci] {
				continue
			}
			lk, rk := colKey{c.la, c.lc}, colKey{c.ra, c.rc}
			switch {
			case c.la == a && joined[c.ra]:
				if c.op == relation.OpEq {
					eq = append(eq, relation.JoinCond{Left: offs[c.ra] + rankIn(rk), Right: rankIn(lk)})
				} else {
					post = append(post, relation.Cond{Left: wideArity + rankIn(lk), Op: c.op, Right: offs[c.ra] + rankIn(rk)})
				}
			case c.ra == a && joined[c.la]:
				if c.op == relation.OpEq {
					eq = append(eq, relation.JoinCond{Left: offs[c.la] + rankIn(lk), Right: rankIn(rk)})
				} else {
					post = append(post, relation.Cond{Left: offs[c.la] + rankIn(lk), Op: c.op, Right: wideArity + rankIn(rk)})
				}
			default:
				continue
			}
			consumed[ci] = true
			condStrs = append(condStrs, fmt.Sprintf("%s.%s %s %s.%s", c.la, attrName(lk), c.op, c.ra, attrName(rk)))
		}
		kind := "hash join"
		if len(eq) == 0 {
			kind = "nested-loop join"
			if len(post) == 0 {
				condStrs = append(condStrs, "cross")
			}
		}
		jn := &joinNode{
			left:  cur,
			right: right,
			eq:    eq,
			post:  post,
			sch:   cur.Schema().Concat(right.Schema()),
			desc:  fmt.Sprintf("%s [%s] (build %s, probe streams)", kind, strings.Join(condStrs, " AND "), a),
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
				Left:  offs[c.la] + rankIn(colKey{c.la, c.lc}),
				Op:    c.op,
				Right: offs[c.ra] + rankIn(colKey{c.ra, c.rc}),
			})
		}
	}
	if len(leftover) > 0 {
		cur = &filterNode{child: cur, conds: leftover, desc: fmt.Sprintf("filter (%d residual conds)", len(leftover))}
		nodeEst[cur] = wideEst
	}

	pos := func(k colKey) int { return offs[k.alias] + rankIn(k) }

	// --- Tail: aggregation or projection, then distinct / sort / limit ---
	est := wideEst
	var schema *relation.Schema
	if hasAgg {
		var groupCols []int
		groupNDV := 1.0
		for _, r := range groupRefs {
			groupCols = append(groupCols, pos(r))
			groupNDV *= float64(colNDV(accs[r.alias].meta, r.col))
		}
		var specs []relation.AggSpec
		var attrs []relation.Attr
		var specStrs []string
		for _, ai := range aggItems {
			spec := relation.AggSpec{Op: ai.op, Col: -1}
			if !ai.star {
				spec.Col = pos(ai.ref)
				specStrs = append(specStrs, fmt.Sprintf("%s(%s)", ai.op, attrName(ai.ref)))
			} else {
				specStrs = append(specStrs, fmt.Sprintf("%s(*)", ai.op))
			}
			specs = append(specs, spec)
		}
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
		groupNames := make([]string, len(groupRefs))
		for i, r := range groupRefs {
			groupNames[i] = attrName(r)
		}
		estOps += est
		if len(groupCols) > 0 {
			est = math.Min(est, groupNDV)
		} else {
			est = 1
		}
		cur = &aggNode{
			child: cur, groupCols: groupCols, specs: specs, sch: aggSch,
			desc: fmt.Sprintf("aggregate group by (%s) [%s]", strings.Join(groupNames, ", "), strings.Join(specStrs, ", ")),
		}
		nodeEst[cur] = est
		if sel.Distinct {
			estOps += est
			cur = &distinctNode{child: cur, desc: "distinct"}
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
			sn := &sortNode{child: cur, cols: cols, limit: -1, desc: "sort (" + strings.Join(names, ", ") + ")"}
			if sel.Limit >= 0 { // distinct runs below the sort, so TopN fusing is safe
				sn.limit = sel.Limit
				sn.desc = fmt.Sprintf("topn (%s) limit %d", strings.Join(names, ", "), sel.Limit)
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
		projNames := make([]string, projSch.Arity())
		for i := range projNames {
			projNames[i] = projSch.Attr(i).Name
		}
		projDesc := "project (" + strings.Join(projNames, ", ") + ")"

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
			sn := &sortNode{child: cur, cols: widePoss, limit: -1, desc: "sort wide (" + strings.Join(names, ", ") + ")"}
			if sel.Limit >= 0 && !sel.Distinct { // projection is 1-1, so TopN below it is safe
				sn.limit = sel.Limit
				sn.desc = fmt.Sprintf("topn wide (%s) limit %d", strings.Join(names, ", "), sel.Limit)
			}
			cur = sn
			nodeEst[cur] = est
			estOps += est
			cur = &projectNode{child: cur, cols: cols, sch: projSch, counted: true, desc: projDesc}
			nodeEst[cur] = est
			if sel.Distinct {
				estOps += est
				cur = &distinctNode{child: cur, desc: "distinct"}
				nodeEst[cur] = est
			}
		} else {
			estOps += est
			cur = &projectNode{child: cur, cols: cols, sch: projSch, counted: true, desc: projDesc}
			nodeEst[cur] = est
			if sel.Distinct {
				estOps += est
				cur = &distinctNode{child: cur, desc: "distinct"}
				nodeEst[cur] = est
			}
			if len(sortResIdx) > 0 {
				names := make([]string, len(sortResIdx))
				for i, p := range sortResIdx {
					names[i] = projSch.Attr(p).Name
				}
				estOps += est
				sn := &sortNode{child: cur, cols: sortResIdx, limit: -1, desc: "sort (" + strings.Join(names, ", ") + ")"}
				if sel.Limit >= 0 { // distinct (if any) runs below the sort
					sn.limit = sel.Limit
					sn.desc = fmt.Sprintf("topn (%s) limit %d", strings.Join(names, ", "), sel.Limit)
				}
				cur = sn
				nodeEst[cur] = est
			}
		}
		schema = projSch
	}
	if sel.Limit >= 0 {
		est = math.Min(est, float64(sel.Limit))
		cur = &limitNode{child: cur, n: sel.Limit, desc: fmt.Sprintf("limit %d", sel.Limit)}
		nodeEst[cur] = est
	}

	return &Plan{
		root:    cur,
		schema:  schema,
		epoch:   epoch,
		estRows: est,
		estOps:  estOps,
		nodeEst: nodeEst,
		// Parallel eligibility is a pure shape property, so it is decided
		// here, once per plan; the per-execution DOP decision stays at open
		// time where the engine's settings are known.
		par:       findParSection(cur, scanExamine),
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
func (sc *selScope) attr(k colKey) relation.Attr { return sc.aliases[k.alias].Schema().Attr(k.col) }

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

// accessFor picks the access path for one alias: the most selective covering
// hash index when an equality-constant conjunct matches one, else a full
// scan. The caller holds e.mu.
func (e *Engine) accessFor(scope *selScope, a string) *aliasAccess {
	base := scope.aliases[a]
	m := e.meta[base.Name]
	rows := float64(base.Len())
	conds := scope.perAlias[a]
	selv := 1.0
	for _, c := range conds {
		selv *= condSelectivity(m, c)
	}
	acc := &aliasAccess{
		alias: a, table: base.Name, sch: base.Schema(), conds: conds, meta: m,
		examineEst: rows,
		outEst:     math.Max(rows*selv, 0),
	}
	pairs := scope.eqConsts[a]
	if len(pairs) == 0 {
		return acc
	}
	var best *relation.Index
	bestNDV := 0.0
	for _, ix := range e.indexes[base.Name] {
		if !indexCovered(ix, pairs) {
			continue
		}
		nd := 1.0
		for _, col := range ix.Cols() {
			nd *= float64(colNDV(m, col))
		}
		if best == nil || nd > bestNDV {
			best, bestNDV = ix, nd
		}
	}
	if best == nil {
		return acc
	}
	acc.idxCols = append([]int(nil), best.Cols()...)
	acc.idxVals = make([]relation.Value, len(acc.idxCols))
	for i, col := range acc.idxCols {
		for _, p := range pairs {
			if p[0].(int) == col {
				acc.idxVals[i] = p[1].(relation.Value)
			}
		}
	}
	if bestNDV > 0 {
		acc.examineEst = rows / bestNDV
	}
	return acc
}

// indexCovered reports whether every indexed column has an equality pair.
func indexCovered(ix *relation.Index, pairs [][2]any) bool {
	for _, col := range ix.Cols() {
		found := false
		for _, p := range pairs {
			if p[0].(int) == col {
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

// joinStepSelectivity estimates the selectivity of the cross-alias conjuncts
// that joining `next` into `joined` completes: 1/max(NDV) per equi-join, 1/3
// per theta condition.
func joinStepSelectivity(scope *selScope, accs map[string]*aliasAccess, joined map[string]bool, next string) float64 {
	s := 1.0
	for _, c := range scope.cross {
		if !((c.la == next && joined[c.ra]) || (c.ra == next && joined[c.la])) {
			continue
		}
		if c.op == relation.OpEq {
			d := float64(maxInt(colNDV(accs[c.la].meta, c.lc), colNDV(accs[c.ra].meta, c.rc)))
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

// joinOrderCost costs one left-deep order: each step pays the new alias's
// access path, the probe stream, the build, and the estimated output.
func joinOrderCost(scope *selScope, accs map[string]*aliasAccess, order []string) (cost, outRows float64) {
	joined := map[string]bool{order[0]: true}
	cost = accs[order[0]].examineEst
	left := accs[order[0]].outEst
	for _, a := range order[1:] {
		b := accs[a]
		out := left * b.outEst * joinStepSelectivity(scope, accs, joined, a)
		cost += b.examineEst + left + b.outEst + out
		left = out
		joined[a] = true
	}
	return cost, left
}

// chooseJoinOrder picks the cheapest left-deep order: exhaustively for up to
// joinEnumLimit aliases, greedily beyond. Cost ties break toward the larger
// first (probe) side so the big relation streams and small ones build.
func (e *Engine) chooseJoinOrder(scope *selScope, accs map[string]*aliasAccess) []string {
	n := len(scope.order)
	if n <= 1 {
		return scope.order
	}
	if n <= joinEnumLimit {
		best := append([]string(nil), scope.order...)
		bestCost, _ := joinOrderCost(scope, accs, best)
		bestProbe := accs[best[0]].outEst
		permutations(scope.order, func(p []string) {
			c, _ := joinOrderCost(scope, accs, p)
			probe := accs[p[0]].outEst
			const eps = 1e-9
			if c < bestCost-eps || (math.Abs(c-bestCost) <= eps && probe > bestProbe) {
				bestCost, bestProbe = c, probe
				copy(best, p)
			}
		})
		return best
	}
	// Greedy: start from the largest filtered alias (it streams as the probe
	// side), then repeatedly add the cheapest next step.
	rest := append([]string(nil), scope.order...)
	sort.SliceStable(rest, func(i, j int) bool { return accs[rest[i]].outEst > accs[rest[j]].outEst })
	order := []string{rest[0]}
	joined := map[string]bool{rest[0]: true}
	left := accs[rest[0]].outEst
	rest = rest[1:]
	for len(rest) > 0 {
		bestI := 0
		bestStep := math.Inf(1)
		bestOut := 0.0
		for i, a := range rest {
			b := accs[a]
			out := left * b.outEst * joinStepSelectivity(scope, accs, joined, a)
			step := b.examineEst + left + b.outEst + out
			if step < bestStep {
				bestI, bestStep, bestOut = i, step, out
			}
		}
		a := rest[bestI]
		rest = append(rest[:bestI], rest[bestI+1:]...)
		order = append(order, a)
		joined[a] = true
		left = bestOut
	}
	return order
}

// permutations visits every permutation of items (the identity first).
func permutations(items []string, visit func([]string)) {
	perm := append([]string(nil), items...)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			visit(perm)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// scanDesc renders a scan node's EXPLAIN line.
func scanDesc(acc *aliasAccess) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan %s", acc.table)
	if acc.alias != acc.table {
		fmt.Fprintf(&b, " AS %s", acc.alias)
	}
	if len(acc.idxCols) > 0 {
		names := make([]string, len(acc.idxCols))
		for i, c := range acc.idxCols {
			names[i] = acc.sch.Attr(c).Name
		}
		fmt.Fprintf(&b, " via index(%s)", strings.Join(names, ", "))
	}
	if len(acc.conds) > 0 {
		strs := make([]string, len(acc.conds))
		for i, c := range acc.conds {
			strs[i] = c.String(acc.sch)
		}
		fmt.Fprintf(&b, " where [%s]", strings.Join(strs, " AND "))
	}
	fmt.Fprintf(&b, " (examine~%.0f, emit~%.0f)", acc.examineEst, acc.outEst)
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
