package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Subst is a substitution: a finite mapping from variable names to terms,
// bound in place. It is the public form of an answer and of a one-off
// rewrite; an SLD search binds in a Bindings instead and builds a Subst only
// for the answers it delivers.
type Subst map[string]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Walk resolves a term through the substitution until it reaches a constant
// or an unbound variable. Binding chains that cycle (possible when two
// formulas share variable names, e.g. a cache element and a query both using
// X) terminate at an arbitrary variable of the cycle — all its members
// denote the same value.
func (s Subst) Walk(t Term) Term {
	for steps := 0; t.IsVar(); steps++ {
		next, ok := s[t.Var]
		if !ok || (next.IsVar() && next.Var == t.Var) || steps > len(s) {
			return t
		}
		t = next
	}
	return t
}

// BindInPlace adds v -> t to s, mutating it.
func (s Subst) BindInPlace(v string, t Term) { s[v] = t }

// ApplyAtom rewrites all arguments of an atom.
func (s Subst) ApplyAtom(a Atom) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Walk(t)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// ApplyAtoms rewrites a conjunction.
func (s Subst) ApplyAtoms(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = s.ApplyAtom(a)
	}
	return out
}

// Equal reports whether two substitutions denote the same mapping over their
// union of domains (after walking).
func (s Subst) Equal(o Subst) bool {
	if len(s) != len(o) {
		return false
	}
	for v := range s {
		a := s.Walk(V(v))
		b, ok := o[v]
		if !ok {
			return false
		}
		if !a.Equal(o.Walk(b)) {
			return false
		}
	}
	return true
}

// String renders bindings sorted by variable name: {X=1, Y=Z}.
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, s.Walk(V(k)))
	}
	b.WriteByte('}')
	return b.String()
}
