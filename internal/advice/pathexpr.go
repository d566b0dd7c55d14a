package advice

import (
	"fmt"
	"strings"
)

// Expr is a path expression element (Section 4.2.2): a query pattern, a
// sequence, or an alternation.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// PatArg is one argument of a query pattern: a variable with an optional
// binding annotation, or a constant placeholder.
type PatArg struct {
	Name    string
	Binding Binding
}

// String renders e.g. "X^" or "Y?".
func (p PatArg) String() string { return p.Name + p.Binding.String() }

// Pattern is a query pattern d_i(T1, ..., Tn): an abstraction of one CAQL
// query the IE will emit, referring to a view specification by name.
type Pattern struct {
	Name string
	Args []PatArg
}

func (*Pattern) isExpr() {}

// String renders the pattern.
func (p *Pattern) String() string {
	if len(p.Args) == 0 {
		return p.Name
	}
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", p.Name, strings.Join(parts, ", "))
}

// Bound is a repetition bound: a concrete count, a symbolic cardinality
// (|Y|, resolved only at run time), or infinity.
type Bound struct {
	N   int    // valid when Sym == "" and !Inf
	Sym string // "|Y|" style symbolic bound (variable name)
	Inf bool
}

// Unbounded reports whether the bound is not a concrete small count.
func (b Bound) Unbounded() bool { return b.Inf || b.Sym != "" }

// String renders the bound.
func (b Bound) String() string {
	switch {
	case b.Inf:
		return "*"
	case b.Sym != "":
		return "|" + b.Sym + "|"
	default:
		return fmt.Sprintf("%d", b.N)
	}
}

// Sequence is a precise ordering of member expressions with a repetition
// count <lo, hi>: the whole sequence occurs between lo and hi times.
type Sequence struct {
	Elems []Expr
	Lo    int
	Hi    Bound
}

func (*Sequence) isExpr() {}

// String renders "(e1, e2)<lo,hi>".
func (s *Sequence) String() string {
	parts := make([]string, len(s.Elems))
	for i, e := range s.Elems {
		parts[i] = e.String()
	}
	return fmt.Sprintf("(%s)<%d,%s>", strings.Join(parts, ", "), s.Lo, s.Hi)
}

// Alternation is an unordered set of alternatives, of which one or more may
// be emitted in unknown order; Select bounds how many alternatives fire per
// occurrence (0 = no bound; 1 = mutually exclusive).
type Alternation struct {
	Elems  []Expr
	Select int
}

func (*Alternation) isExpr() {}

// String renders "[e1, e2]" with an optional "^s" selection term.
func (a *Alternation) String() string {
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		parts[i] = e.String()
	}
	s := fmt.Sprintf("[%s]", strings.Join(parts, ", "))
	if a.Select > 0 {
		s += fmt.Sprintf("^%d", a.Select)
	}
	return s
}
