package subsume

import (
	"fmt"
	"slices"

	"repro/internal/relation"
)

// referenceDeriveFull is DeriveFull as it was written before the one-block
// build: run Match for the head variables, and take the first candidate that
// accounts for every comparison and has a column for every head variable,
// reading the columns from its VarCols. It is kept only as the oracle the
// derivation tests hold (*Prepared).DeriveFull to.
func referenceDeriveFull(e, q *Prepared) (*Derivation, bool) {
	if len(e.Query.Rels) != len(q.Query.Rels) {
		return nil, false
	}
	empty := false
	for ci, a := range q.Query.Cmps {
		if c := q.cmp(ci); c.l < 0 && c.r < 0 && !c.op.Eval(a.Args[0].Const, a.Args[1].Const) {
			empty = true
		}
	}
	for _, cand := range e.Match(q, q.Query.Head.VarSet()) {
		ok := true
		for ci := range q.Query.Cmps {
			if c := q.cmp(ci); (c.l >= 0 || c.r >= 0) && !slices.Contains(cand.CoveredCmps, ci) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		d := &Derivation{
			Candidate: cand,
			OutCols:   make([]int, len(q.head)),
			Consts:    make([]relation.Value, len(q.head)),
			Empty:     empty,
		}
		feasible := true
		for i, t := range q.Query.Head.Args {
			if t.IsConst() {
				d.OutCols[i] = -1
				d.Consts[i] = t.Const
				continue
			}
			col, ok := cand.VarCols[t.Var]
			if !ok {
				feasible = false
				break
			}
			d.OutCols[i] = col
		}
		if feasible {
			return d, true
		}
	}
	return nil, false
}

// sameDerivation reports how got departs from the reference derivation want
// ("" when it does not): the same cover, covered comparisons, residual
// selections, output columns, constants and emptiness.
func sameDerivation(got, want *Derivation) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("derivable %v, reference %v", got != nil, want != nil)
	case got == nil:
		return ""
	case !slices.Equal(got.Candidate.Cover, want.Candidate.Cover):
		return fmt.Sprintf("Cover %v, reference %v", got.Candidate.Cover, want.Candidate.Cover)
	case !slices.Equal(got.Candidate.CoveredCmps, want.Candidate.CoveredCmps):
		return fmt.Sprintf("CoveredCmps %v, reference %v", got.Candidate.CoveredCmps, want.Candidate.CoveredCmps)
	case !slices.EqualFunc(got.Candidate.Conds, want.Candidate.Conds, sameCond):
		return fmt.Sprintf("Conds %v, reference %v", got.Candidate.Conds, want.Candidate.Conds)
	case !slices.Equal(got.OutCols, want.OutCols):
		return fmt.Sprintf("OutCols %v, reference %v", got.OutCols, want.OutCols)
	case !slices.EqualFunc(got.Consts, want.Consts, relation.Value.Equal):
		return fmt.Sprintf("Consts %v, reference %v", got.Consts, want.Consts)
	case got.Empty != want.Empty:
		return fmt.Sprintf("Empty %v, reference %v", got.Empty, want.Empty)
	}
	return ""
}

func sameCond(a, b relation.Cond) bool {
	return a.Left == b.Left && a.Op == b.Op && a.Right == b.Right && a.Const.Equal(b.Const)
}
