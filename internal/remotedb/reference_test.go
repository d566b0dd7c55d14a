package remotedb

import (
	"fmt"

	"repro/internal/relation"
)

// referenceSelect is the reference evaluator the parity suite holds the
// planner to. It is what used to be the engine's naive executor, kept for
// tests only and written to be obviously correct rather than fast: every
// alias is read in full (it shares no index code with the planner), the FROM
// list is cross-multiplied left to right and the cross-alias conjuncts filter
// the product, and sort, projection / aggregation, distinct and limit then run
// one after the other over fully materialized intermediates. It takes the
// read lock itself and changes no engine state.
//
// ops follow the planner's single-table conventions — one per base row read
// and one per input row of each sort, projection, aggregation and distinct —
// which is all TestPlannedOpsMatchNaiveSingleTable compares; join work is not
// counted.
func (e *Engine) referenceSelect(sel *SelectStmt) (*relation.Relation, int64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	scope, err := e.analyzeSelect(sel)
	if err != nil {
		return nil, 0, err
	}

	// wide holds every alias's columns side by side, in FROM order.
	var ops int64
	var wide *relation.Relation
	var wideAttrs []relation.Attr // base attributes by wide position
	offset := make([]int, len(scope.tables))
	for p, base := range scope.tables {
		ops += int64(base.Len())
		rows := relation.Drain(base.Name, base.Schema(), relation.Select(base.Iter(), scope.perAlias[p]))
		offset[p] = len(wideAttrs)
		wideAttrs = append(wideAttrs, base.Schema().Attrs()...)
		if wide == nil {
			wide = rows
		} else {
			cross := relation.NestedLoopJoin(wide.Iter(), rows.Iter(), wide.Schema().Arity(), nil, nil, new(relation.Arena))
			wide = relation.Drain("wide", wide.Schema().Concat(rows.Schema()), cross)
		}
	}
	var conds []relation.Cond
	for _, c := range scope.cross {
		conds = append(conds, relation.ColCol(offset[c.lp]+c.lc, c.op, offset[c.rp]+c.rc))
	}
	wide = relation.Drain("wide", wide.Schema(), relation.Select(wide.Iter(), conds))

	widePos := func(c ColRef) (int, error) {
		p, i, err := scope.resolve(c)
		return offset[p] + i, err
	}
	// outputSchema names the columns at the given wide positions, then extra,
	// the way a join materialized in that order would: a repeated name takes
	// Schema.Concat's _2, _3, … suffix.
	outputSchema := func(cols []int, extra ...relation.Attr) (*relation.Schema, error) {
		sch := relation.NewSchema()
		seen := make(map[int]bool, len(cols))
		for _, p := range cols {
			if seen[p] {
				return nil, fmt.Errorf("remotedb: duplicate output column %s", wideAttrs[p].Name)
			}
			seen[p] = true
			sch = sch.Concat(relation.NewSchema(wideAttrs[p]))
		}
		return sch.Concat(relation.NewSchema(extra...)), nil
	}
	limit := func(r *relation.Relation) *relation.Relation {
		if sel.Limit >= 0 && r.Len() > sel.Limit {
			return relation.FromTuples(r.Name, r.Schema(), r.Tuples()[:sel.Limit])
		}
		return r
	}

	hasAgg := false
	for _, it := range sel.Items {
		hasAgg = hasAgg || it.IsAgg
	}
	if hasAgg {
		// The output is the GROUP BY columns, then one column per aggregate;
		// non-aggregate select items must be GROUP BY columns and add nothing.
		var groupCols []int
		for _, g := range sel.GroupBy {
			p, err := widePos(g)
			if err != nil {
				return nil, 0, err
			}
			groupCols = append(groupCols, p)
		}
		var specs []relation.AggSpec
		var aggAttrs []relation.Attr
		for _, it := range sel.Items {
			if !it.IsAgg {
				continue
			}
			spec := relation.AggSpec{Op: it.Agg, Col: -1}
			kind := relation.KindFloat
			if !it.AggStar {
				if spec.Col, err = widePos(it.Col); err != nil {
					return nil, 0, err
				}
				if it.Agg == relation.AggMin || it.Agg == relation.AggMax {
					kind = wideAttrs[spec.Col].Kind
				}
			}
			if it.Agg == relation.AggCount {
				kind = relation.KindInt
			}
			aggAttrs = append(aggAttrs, relation.Attr{Name: fmt.Sprintf("agg%d", len(specs)), Kind: kind})
			specs = append(specs, spec)
		}
		sch, err := outputSchema(groupCols, aggAttrs...)
		if err != nil {
			return nil, 0, err
		}
		ops += int64(wide.Len())
		result := relation.FromTuples("result", sch, relation.Aggregate(wide.Iter(), groupCols, specs))
		if sel.Distinct {
			ops += int64(result.Len())
			result = relation.DistinctRel(result)
		}
		if len(sel.OrderBy) > 0 {
			// An aggregate's ORDER BY resolves against the group output only:
			// sorting its input by a pre-aggregation column is meaningless.
			var cols []int
			for _, c := range sel.OrderBy {
				i := sch.ColIndex(c.Column)
				if i < 0 {
					return nil, 0, fmt.Errorf("remotedb: ORDER BY column %s not in result", c.Column)
				}
				cols = append(cols, i)
			}
			ops += int64(result.Len())
			result.SortBy(cols)
		}
		return limit(result), ops, nil
	}

	// Plain projection.
	var cols []int
	if len(sel.Items) == 1 && sel.Items[0].Star {
		for i := range wideAttrs {
			cols = append(cols, i)
		}
	} else {
		for _, it := range sel.Items {
			if it.Star {
				return nil, 0, fmt.Errorf("remotedb: * must be the only select item")
			}
			p, err := widePos(it.Col)
			if err != nil {
				return nil, 0, err
			}
			cols = append(cols, p)
		}
	}
	sch, err := outputSchema(cols)
	if err != nil {
		return nil, 0, err
	}

	// An ORDER BY column names an output column, by bare name, or else any
	// column of the FROM list. The sort is stable and runs over the wide rows,
	// so it may use columns the projection drops, and DISTINCT (which keeps
	// first occurrences) leaves the survivors in sorted order.
	var sortCols []int
	for _, c := range sel.OrderBy {
		p := -1
		if i := sch.ColIndex(c.Column); i >= 0 {
			p = cols[i]
		} else if p, err = widePos(c); err != nil {
			return nil, 0, err
		}
		sortCols = append(sortCols, p)
	}
	if len(sortCols) > 0 {
		ops += int64(wide.Len())
		wide.SortBy(sortCols)
	}
	ops += int64(wide.Len())
	result := relation.Drain("result", sch, relation.Project(wide.Iter(), cols, new(relation.Arena)))
	if sel.Distinct {
		ops += int64(result.Len())
		result = relation.DistinctRel(result)
	}
	return limit(result), ops, nil
}
