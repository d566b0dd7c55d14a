// Package subsume implements BrAID's subsumption machinery (Section 5.3.2 of
// the paper): deciding when a cached view (a cache element defined by a PSJ
// expression) can be used to derive a CAQL query or one of its conjunctive
// subqueries, and producing the derivation plan (residual selections and
// projection over the cached extension).
//
// The algorithm follows the paper's two steps: (1) match each query atom
// against same-predicate atoms of the cache element with one-directional
// unification — a constant in the query matches the same constant or a
// variable in the element, a query variable matches only a variable; (2)
// reject elements with atoms the query does not also have (the element would
// be more restricted). On top of the paper's sketch, comparison predicates
// are handled with interval implication (the element's range constraints
// must be weaker than the query's), and the derivation accounts for which
// element columns are actually available in its stored extension.
//
// Matching runs on prepared forms (prepared.go): Prepare numbers a query's
// variables once, and Match, DeriveFull and the MayDerive pre-filter then
// compare integers in stack scratch space, allocating only for a candidate
// they return. The package-level Match and DeriveFull take plain queries and
// prepare them on the way.
package subsume

import (
	"repro/internal/logic"
	"repro/internal/relation"
)

// Range is the solution set of the single-variable constraints accumulated
// from comparison atoms: an optional exact value, an optional interval, and
// excluded values.
type Range struct {
	Eq     *relation.Value
	Lo, Hi relation.Value // meaningful when HasLo, HasHi
	Ne     []relation.Value
	// The flags sit together so the struct packs: the CMS keeps a Range per
	// constrained variable of every cached range definition.
	HasLo, LoOpen bool
	HasHi, HiOpen bool
	Infeasib      bool // statically empty
}

// RangeOf gathers the constraints on variable v from var-vs-constant
// comparison atoms. Var-vs-var comparisons are ignored here (handled
// syntactically by the matcher).
func RangeOf(v string, cmps []logic.Atom) Range {
	var r Range
	for _, c := range cmps {
		if !c.IsComparison() {
			continue
		}
		l, rt := c.Args[0], c.Args[1]
		op := c.CmpOp()
		var cv relation.Value
		switch {
		case l.IsVar() && l.Var == v && rt.IsConst():
			cv = rt.Const
		case rt.IsVar() && rt.Var == v && l.IsConst():
			cv = l.Const
			op = op.Flip()
		default:
			continue
		}
		r.Add(op, cv)
	}
	return r
}

// Add tightens the range with "x op c".
func (r *Range) Add(op relation.CmpOp, c relation.Value) {
	switch op {
	case relation.OpEq:
		if r.Eq != nil && !r.Eq.Equal(c) {
			r.Infeasib = true
			return
		}
		v := c
		r.Eq = &v
	case relation.OpNe:
		r.Ne = append(r.Ne, c)
	case relation.OpLt:
		if !r.HasHi || c.Compare(r.Hi) < 0 || (c.Equal(r.Hi) && !r.HiOpen) {
			r.HasHi, r.Hi, r.HiOpen = true, c, true
		}
	case relation.OpLe:
		if !r.HasHi || c.Compare(r.Hi) < 0 {
			r.HasHi, r.Hi, r.HiOpen = true, c, false
		}
	case relation.OpGt:
		if !r.HasLo || c.Compare(r.Lo) > 0 || (c.Equal(r.Lo) && !r.LoOpen) {
			r.HasLo, r.Lo, r.LoOpen = true, c, true
		}
	case relation.OpGe:
		if !r.HasLo || c.Compare(r.Lo) > 0 {
			r.HasLo, r.Lo, r.LoOpen = true, c, false
		}
	}
	r.checkFeasible()
}

func (r *Range) checkFeasible() {
	if r.Eq != nil {
		if r.HasLo {
			c := r.Eq.Compare(r.Lo)
			if c < 0 || (c == 0 && r.LoOpen) {
				r.Infeasib = true
			}
		}
		if r.HasHi {
			c := r.Eq.Compare(r.Hi)
			if c > 0 || (c == 0 && r.HiOpen) {
				r.Infeasib = true
			}
		}
		for _, n := range r.Ne {
			if r.Eq.Equal(n) {
				r.Infeasib = true
			}
		}
	}
	if r.HasLo && r.HasHi {
		c := r.Lo.Compare(r.Hi)
		if c > 0 || (c == 0 && (r.LoOpen || r.HiOpen)) {
			r.Infeasib = true
		}
	}
}

// Implies reports whether every value in the range satisfies "x op c". An
// infeasible (empty) range implies everything.
func (r Range) Implies(op relation.CmpOp, c relation.Value) bool {
	if r.Infeasib {
		return true
	}
	if r.Eq != nil {
		return op.Eval(*r.Eq, c)
	}
	switch op {
	case relation.OpEq:
		return false // a non-singleton range never implies equality
	case relation.OpNe:
		// Implied if c is excluded or outside the interval.
		for _, n := range r.Ne {
			if n.Equal(c) {
				return true
			}
		}
		if r.HasHi {
			cmp := c.Compare(r.Hi)
			if cmp > 0 || (cmp == 0 && r.HiOpen) {
				return true
			}
		}
		if r.HasLo {
			cmp := c.Compare(r.Lo)
			if cmp < 0 || (cmp == 0 && r.LoOpen) {
				return true
			}
		}
		return false
	case relation.OpLt:
		// x < c for all x in range iff hi < c, or hi = c with open top.
		if !r.HasHi {
			return false
		}
		cmp := r.Hi.Compare(c)
		return cmp < 0 || (cmp == 0 && r.HiOpen)
	case relation.OpLe:
		if !r.HasHi {
			return false
		}
		return r.Hi.Compare(c) <= 0
	case relation.OpGt:
		if !r.HasLo {
			return false
		}
		cmp := r.Lo.Compare(c)
		return cmp > 0 || (cmp == 0 && r.LoOpen)
	case relation.OpGe:
		if !r.HasLo {
			return false
		}
		return r.Lo.Compare(c) >= 0
	default:
		return false
	}
}
