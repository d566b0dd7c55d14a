package logic

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Atom is a predicate applied to terms: p(t1, ..., tn). Comparison atoms use
// the operator symbol as the predicate name (e.g. "<"); IsComparison
// distinguishes them from ordinary relational atoms.
type Atom struct {
	Pred string
	Args []Term
}

// A constructs an atom.
func A(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// IsComparison reports whether the atom is a built-in comparison.
func (a Atom) IsComparison() bool {
	_, ok := relation.LookupCmpOp(a.Pred)
	return ok && len(a.Args) == 2
}

// CmpOp returns the comparison operator of a comparison atom.
func (a Atom) CmpOp() relation.CmpOp {
	op, ok := relation.LookupCmpOp(a.Pred)
	if !ok {
		panic(fmt.Sprintf("logic: CmpOp on non-comparison atom %s", a))
	}
	return op
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Equal reports structural equality.
func (a Atom) Equal(o Atom) bool {
	if a.Pred != o.Pred || len(a.Args) != len(o.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars appends the names of variables occurring in the atom to dst (in
// occurrence order, with duplicates) and returns it.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar() {
			dst = append(dst, t.Var)
		}
	}
	return dst
}

// VarSet returns the set of variable names occurring in the atom.
func (a Atom) VarSet() map[string]bool {
	s := make(map[string]bool)
	for _, t := range a.Args {
		if t.IsVar() {
			s[t.Var] = true
		}
	}
	return s
}

// String renders the atom; comparison atoms render infix.
func (a Atom) String() string {
	if a.IsComparison() {
		return fmt.Sprintf("%s %s %s", a.Args[0], a.Pred, a.Args[1])
	}
	if len(a.Args) == 0 {
		return a.Pred
	}
	return fmt.Sprintf("%s(%s)", a.Pred, termsString(a.Args))
}

// AtomsString renders a conjunction of atoms separated by commas.
func AtomsString(atoms []Atom) string {
	var b strings.Builder
	for i, a := range atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// VarsOf returns the set of variables over a list of atoms.
func VarsOf(atoms []Atom) map[string]bool {
	s := make(map[string]bool)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				s[t.Var] = true
			}
		}
	}
	return s
}
