package remotedb

import (
	"fmt"
	"math"

	"repro/internal/relation"
)

// Per-column catalog statistics, maintained incrementally at LoadTable and
// Insert so the cost-based optimizer (optimizer.go) never has to scan a table
// to plan a query against it. Each column tracks an exact distinct-value set
// up to statsNDVCap values (beyond which the NDV becomes a saturated lower
// bound) and the min/max of every non-NaN value inserted. The accumulators are
// add-only, matching the engine's append-only extensions: deletes do not
// exist, and wholesale replacement (LoadTable) rebuilds the accumulator.

// statsNDVCap bounds the per-column distinct-value tracking set. The set
// holds Value.Hash, not the values: eight bytes a member and nothing rendered
// per inserted value. Below the cap NDV is therefore exact up to a 64-bit
// collision (two distinct values counted once: about 1e-10 for a column at
// the cap); at the cap it saturates into a lower bound. 1<<16 keeps the
// bench workloads (tens of thousands of rows) exact while bounding the
// catalog to ~64k hashes per column.
const statsNDVCap = 1 << 16

// colAcc accumulates one column's statistics.
type colAcc struct {
	seen      map[uint64]struct{}
	saturated bool
	min, max  relation.Value
	any       bool
}

func (c *colAcc) add(v relation.Value) {
	if !c.saturated {
		if c.seen == nil {
			c.seen = make(map[uint64]struct{})
		}
		c.seen[v.Hash()] = struct{}{}
		if len(c.seen) >= statsNDVCap {
			c.saturated = true
		}
	}
	// NaN sorts after every number, so a NaN max would leave range
	// interpolation nothing to divide by; the bounds cover the numbers only.
	if v.IsNumeric() && math.IsNaN(v.AsFloat()) {
		return
	}
	if !c.any {
		c.min, c.max, c.any = v, v, true
		return
	}
	if v.Less(c.min) {
		c.min = v
	}
	if c.max.Less(v) {
		c.max = v
	}
}

// ndv returns the distinct-value count (never below 1 for a non-empty
// column, so selectivity divisions are safe).
func (c *colAcc) ndv() int {
	n := len(c.seen)
	if n == 0 && c.any {
		return 1
	}
	return n
}

// tableMeta is the per-table statistics record.
type tableMeta struct {
	rows int
	cols []colAcc
}

func newTableMeta(arity int) *tableMeta {
	return &tableMeta{cols: make([]colAcc, arity)}
}

func buildTableMeta(r *relation.Relation) *tableMeta {
	m := newTableMeta(r.Schema().Arity())
	for _, t := range r.Tuples() {
		m.addRow(t)
	}
	return m
}

func (m *tableMeta) addRow(t relation.Tuple) {
	m.rows++
	for i := range m.cols {
		if i < len(t) {
			m.cols[i].add(t[i])
		}
	}
}

// exact reports whether every column's NDV is exact and the row count
// matches the live extension (false when a relation was mutated behind the
// engine's back, e.g. appended to after LoadTable).
func (m *tableMeta) exact(liveRows int) bool {
	if m == nil || m.rows != liveRows {
		return false
	}
	for i := range m.cols {
		if m.cols[i].saturated {
			return false
		}
	}
	return true
}

// ColStats is one column's catalog statistics as exposed to callers (and to
// the experiments harness).
type ColStats struct {
	// NDV is the number of distinct values observed; a lower bound when
	// Exact is false (tracking saturated at statsNDVCap).
	NDV   int
	Exact bool
	// Min and Max bound the observed values other than NaN; valid when
	// HasMinMax.
	Min, Max  relation.Value
	HasMinMax bool
}

// ColStats returns the maintained per-column statistics of a table.
func (e *Engine) ColStats(name string) ([]ColStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if _, ok := e.tables[name]; !ok {
		return nil, fmt.Errorf("remotedb: unknown table %s", name)
	}
	m := e.meta[name]
	if m == nil {
		return nil, nil
	}
	out := make([]ColStats, len(m.cols))
	for i := range m.cols {
		c := &m.cols[i]
		out[i] = ColStats{
			NDV:       c.ndv(),
			Exact:     !c.saturated,
			Min:       c.min,
			Max:       c.max,
			HasMinMax: c.any,
		}
	}
	return out, nil
}
