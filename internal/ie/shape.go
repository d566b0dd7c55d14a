package ie

import (
	"repro/internal/logic"
	"repro/internal/remotedb"
)

// Shaper implements the shaper of Section 4.1: eager constraining of each
// clause before any systematic traversal. A clause is shaped bare, once per
// compile, since the goal's constants are bound only when an ask runs.
//
//   - Ground comparisons are evaluated immediately, culling contradictory
//     clauses.
//   - Mutual-exclusion culling: a rule body containing two mutually
//     exclusive predicates over the same arguments can never succeed.
//   - Conjunct ordering: producer-consumer relationships derived from
//     catalog cardinality/selectivity statistics and functional-dependency
//     SOAs order each rule body cheapest-first (bound-most-first).
type Shaper struct {
	// Reorder enables conjunct reordering (off reproduces strict program
	// order, Prolog-style).
	Reorder bool
	// Stats supplies catalog statistics; nil degrades ordering to the
	// bound-count heuristic.
	Stats StatsSource
}

// StatsSource resolves base relation statistics; bridge.DataSource satisfies
// it.
type StatsSource interface {
	RelationStats(name string) (remotedb.TableStats, error)
}

// shapeAND constrains one rule body, returning it shaped in a new slice, or
// false when the rule is culled (statically contradictory).
func (sh *Shaper) shapeAND(kb *logic.KB, conj []logic.Atom) ([]logic.Atom, bool) {
	// Evaluate ground comparisons; drop satisfied ones, cull on violation.
	var body []logic.Atom
	for _, a := range conj {
		if a.IsComparison() && a.IsGround() {
			if !a.CmpOp().Eval(a.Args[0].Const, a.Args[1].Const) {
				return nil, false
			}
			continue // statically true: drop
		}
		body = append(body, a)
	}

	// Mutual-exclusion culling: p(t...) and q(t...) with mutex(p, q) in one
	// conjunction is a contradiction.
	for i := 0; i < len(body); i++ {
		for j := i + 1; j < len(body); j++ {
			a, b := body[i], body[j]
			if a.IsComparison() || b.IsComparison() {
				continue
			}
			if !kb.MutuallyExclusive(a.Ref(), b.Ref()) {
				continue
			}
			if len(a.Args) == len(b.Args) && sameArgs(a, b) {
				return nil, false
			}
		}
	}

	if sh.Reorder {
		body = sh.reorder(kb, body)
	}
	return body, true
}

func sameArgs(a, b logic.Atom) bool {
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// reorder greedily picks the next cheapest conjunct under the current bound
// set: comparisons as soon as their variables are bound, then atoms by
// estimated result cardinality (catalog rows divided by the distinct counts
// of bound columns; functional dependencies cap the estimate at 1 when a
// determinant is bound). Derived atoms estimate pessimistically.
func (sh *Shaper) reorder(kb *logic.KB, body []logic.Atom) []logic.Atom {
	n := len(body)
	if n <= 1 {
		return body
	}
	// The clause is bare, so no variable starts bound; constants count as
	// bound positions directly.
	bound := make(map[string]bool)
	used := make([]bool, n)
	var newBody []logic.Atom
	for len(newBody) < n {
		best := -1
		bestCost := 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			a := body[i]
			if a.IsComparison() {
				ready := true
				for _, t := range a.Args {
					if t.IsVar() && !bound[t.Var] {
						ready = false
					}
				}
				if ready {
					best = i
					bestCost = 0
					break
				}
				continue
			}
			cost := sh.estimate(kb, a, bound)
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			// Only unready comparisons remain; emit them in order.
			for i := 0; i < n; i++ {
				if !used[i] {
					best = i
					break
				}
			}
		}
		used[best] = true
		newBody = append(newBody, body[best])
		for _, t := range body[best].Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	return newBody
}

// estimate approximates the number of bindings an atom will produce given
// the bound variable set.
func (sh *Shaper) estimate(kb *logic.KB, a logic.Atom, bound map[string]bool) float64 {
	boundPos := make(map[int]bool)
	nBound := 0
	for i, t := range a.Args {
		if t.IsConst() || (t.IsVar() && bound[t.Var]) {
			boundPos[i] = true
			nBound++
		}
	}
	ref := a.Ref()
	if !kb.IsBase(ref) {
		// Derived atom: prefer after base atoms; scale down with bound args.
		return 1e6 / float64(1+nBound)
	}
	// Functional dependencies: a bound determinant caps output at one row.
	for _, fd := range kb.FDs(ref) {
		allBound := len(fd.From) > 0
		for _, c := range fd.From {
			if !boundPos[c] {
				allBound = false
			}
		}
		if allBound {
			return 1
		}
	}
	rows := 1000.0
	var distinct []int
	if sh.Stats != nil {
		if st, err := sh.Stats.RelationStats(a.Pred); err == nil {
			rows = float64(st.Rows)
			distinct = st.Distinct
		}
	}
	est := rows
	for i := range a.Args {
		if !boundPos[i] {
			continue
		}
		d := 10.0
		if i < len(distinct) && distinct[i] > 0 {
			d = float64(distinct[i])
		}
		est /= d
	}
	if est < 1 {
		est = 1
	}
	return est
}
