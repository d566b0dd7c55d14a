// Package caql implements CAQL, BrAID's Cache Query Language (Section 5 of
// the paper): the language in which the inference engine expresses database
// access to the Cache Management System.
//
// A CAQL query is a well-formed formula in function-free first-order
// predicate calculus. Following Section 5.3.2, the core form handled by the
// subsumption machinery is the PSJ (project-select-join) conjunctive query:
// a head (projection) over a conjunction of relational atoms plus comparison
// atoms. Programs of several such clauses, unions and recursion included,
// run on a semi-naive fixed-point operator layered on top (RunProgram,
// Fixpoint); the CMS evaluates them even though the remote DBMS's DML may
// not support them.
package caql

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/relation"
)

// Query is a conjunctive PSJ query:
//
//	Head :- Rels & Cmps
//
// Head is an atom whose predicate names the query (the paper's d_i view
// identifiers) and whose arguments are the projection (variables, or
// constants for bound arguments). Rels are the relational atoms over base
// relations or views; Cmps are built-in comparison atoms.
type Query struct {
	Head logic.Atom
	Rels []logic.Atom
	Cmps []logic.Atom
}

// NewQuery assembles a query, splitting the body into relational and
// comparison atoms.
func NewQuery(head logic.Atom, body []logic.Atom) *Query {
	q := &Query{Head: head}
	for _, a := range body {
		if a.IsComparison() {
			q.Cmps = append(q.Cmps, a)
		} else {
			q.Rels = append(q.Rels, a)
		}
	}
	return q
}

// Name returns the query's head predicate (its view identifier).
func (q *Query) Name() string { return q.Head.Pred }

// Body returns the full body: relational atoms followed by comparisons.
func (q *Query) Body() []logic.Atom {
	out := make([]logic.Atom, 0, len(q.Rels)+len(q.Cmps))
	out = append(out, q.Rels...)
	out = append(out, q.Cmps...)
	return out
}

// Clone returns a deep copy in three allocations, however many atoms q has:
// the Query, one block for Rels and Cmps, and one for every atom's Args.
// Each slice is capped at its length, so an append to one copies it instead
// of writing over its neighbour.
func (q *Query) Clone() *Query {
	nterms := len(q.Head.Args)
	for _, as := range [2][]logic.Atom{q.Rels, q.Cmps} {
		for _, a := range as {
			nterms += len(a.Args)
		}
	}
	terms := make([]logic.Term, 0, nterms)
	clone := func(a logic.Atom) logic.Atom {
		if len(a.Args) == 0 {
			return logic.Atom{Pred: a.Pred}
		}
		terms = append(terms, a.Args...)
		return logic.Atom{Pred: a.Pred, Args: terms[len(terms)-len(a.Args) : len(terms) : len(terms)]}
	}
	atoms := make([]logic.Atom, len(q.Rels)+len(q.Cmps))
	out := &Query{Head: clone(q.Head), Rels: atoms[:len(q.Rels):len(q.Rels)], Cmps: atoms[len(q.Rels):]}
	for i, a := range q.Rels {
		out.Rels[i] = clone(a)
	}
	for i, a := range q.Cmps {
		out.Cmps[i] = clone(a)
	}
	return out
}

// Validate checks the safety conditions: at least one relational atom, every
// head variable occurs in a relational atom, and every comparison variable
// occurs in a relational atom.
func (q *Query) Validate() error {
	if len(q.Rels) == 0 {
		return fmt.Errorf("caql: query %s has no relational atoms", q.Name())
	}
	relVars := logic.VarsOf(q.Rels)
	for _, t := range q.Head.Args {
		if t.IsVar() && !relVars[t.Var] {
			return fmt.Errorf("caql: head variable %s of %s not bound by any relational atom", t.Var, q.Name())
		}
	}
	for _, c := range q.Cmps {
		for _, t := range c.Args {
			if t.IsVar() && !relVars[t.Var] {
				return fmt.Errorf("caql: comparison variable %s of %s not bound by any relational atom", t.Var, q.Name())
			}
		}
	}
	for _, a := range q.Rels {
		if a.IsComparison() {
			return fmt.Errorf("caql: comparison %s classified as relational atom", a)
		}
	}
	return nil
}

// VarSet returns all variables of the query.
func (q *Query) VarSet() map[string]bool {
	s := logic.VarsOf(q.Rels)
	for v := range q.Head.VarSet() {
		s[v] = true
	}
	for _, c := range q.Cmps {
		for _, t := range c.Args {
			if t.IsVar() {
				s[t.Var] = true
			}
		}
	}
	return s
}

// ApplySubst returns the query with the substitution applied throughout.
func (q *Query) ApplySubst(s logic.Subst) *Query {
	out := &Query{Head: s.ApplyAtom(q.Head)}
	out.Rels = s.ApplyAtoms(q.Rels)
	out.Cmps = s.ApplyAtoms(q.Cmps)
	return out
}

// Instantiate binds the i-th head argument to the given constant, returning
// the instantiated query: the paper's "IE-query is an instance of one of the
// view specifications with constant bindings".
func (q *Query) Instantiate(bindings map[string]relation.Value) *Query {
	s := logic.NewSubst()
	for v, val := range bindings {
		s.BindInPlace(v, logic.C(val))
	}
	return q.ApplySubst(s)
}

// String renders the query in clause syntax: "d(X, Y) :- b(X, Z) & b2(Z, Y) & X < 3."
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Head.String())
	b.WriteString(" :- ")
	all := q.Body()
	for i, a := range all {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte('.')
	return b.String()
}

// Canonical returns a renaming-invariant key for the query: variables are
// renumbered in order of first occurrence across head and body. Two queries
// that are identical up to variable renaming share a Canonical key. This is
// the exact-match test used by result caching (and by the BERMUDA-style
// baseline).
func (q *Query) Canonical() string { return string(q.AppendCanonical(nil)) }

// AppendCanonical appends the bytes of Canonical to dst in one pass: the
// variables are numbered in a stack array, and the comparisons are rendered
// in place and sorted there. It allocates only to grow dst, so a caller that
// keeps its buffer pays nothing for a key it only looks up.
func (q *Query) AppendCanonical(dst []byte) []byte {
	var names [16]string
	vars := names[:0]
	// The head predicate is a view identifier chosen by the caller; exact
	// matching must ignore it (d2 and an alpha-variant j are the same query).
	dst, vars = appendCanonAtom(dst, vars, logic.Atom{Pred: "q", Args: q.Head.Args})
	dst = append(dst, ":-"...)
	for _, a := range q.Rels {
		dst, vars = appendCanonAtom(dst, vars, a)
		dst = append(dst, '&')
	}
	// Comparisons participate sorted so syntactic order does not matter.
	var boundBuf [9]int
	bounds := append(boundBuf[:0], len(dst))
	for _, c := range q.Cmps {
		dst, vars = appendCanonAtom(dst, vars, c)
		dst = append(dst, '&')
		bounds = append(bounds, len(dst))
	}
	return sortRenderings(dst, bounds)
}

// appendCanonAtom appends a as Atom.String renders it, with each variable
// renamed V<n> for its position in vars, which it extends with the variables
// met for the first time.
func appendCanonAtom(dst []byte, vars []string, a logic.Atom) ([]byte, []string) {
	if a.IsComparison() {
		dst, vars = appendCanonTerm(dst, vars, a.Args[0])
		dst = append(append(append(dst, ' '), a.Pred...), ' ')
		return appendCanonTerm(dst, vars, a.Args[1])
	}
	dst = append(dst, a.Pred...)
	if len(a.Args) == 0 {
		return dst, vars
	}
	dst = append(dst, '(')
	for i, t := range a.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst, vars = appendCanonTerm(dst, vars, t)
	}
	return append(dst, ')'), vars
}

func appendCanonTerm(dst []byte, vars []string, t logic.Term) ([]byte, []string) {
	if !t.IsVar() {
		return t.AppendString(dst), vars
	}
	n := slices.Index(vars, t.Var)
	if n < 0 {
		n = len(vars)
		vars = append(vars, t.Var)
	}
	return strconv.AppendInt(append(dst, 'V'), int64(n), 10), vars
}

// sortRenderings sorts the renderings buf[bounds[i]:bounds[i+1]] in place,
// ordering each by its bytes less the '&' it ends with: it lays them out in
// order past the end of buf, then moves them back.
func sortRenderings(buf []byte, bounds []int) []byte {
	n := len(bounds) - 1
	if n < 2 {
		return buf
	}
	text := func(i int) []byte { return buf[bounds[i] : bounds[i+1]-1] }
	var ordBuf [8]int
	ord := ordBuf[:0]
	for i := 0; i < n; i++ {
		j := len(ord)
		ord = append(ord, i)
		for ; j > 0 && bytes.Compare(text(ord[j-1]), text(i)) > 0; j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = i
	}
	end := len(buf)
	for _, i := range ord {
		buf = append(buf, buf[bounds[i]:bounds[i+1]]...)
	}
	copy(buf[bounds[0]:], buf[end:])
	return buf[:end]
}

// OutputSchema derives the relational schema of the query result, using the
// catalog to type variables by their positions in base relations. Constants
// in the head type themselves. Head argument names become attribute names
// (constants get synthetic names).
func (q *Query) OutputSchema(catalog SchemaSource) (*relation.Schema, error) {
	kinds := make(map[string]relation.Kind)
	for _, a := range q.Rels {
		sch, err := catalog.RelationSchema(a.Pred, len(a.Args))
		if err != nil {
			return nil, err
		}
		for i, t := range a.Args {
			if t.IsVar() {
				if _, ok := kinds[t.Var]; !ok {
					kinds[t.Var] = sch.Attr(i).Kind
				}
			}
		}
	}
	// NewSchema copies attrs, so they can live on the stack.
	var attrBuf [8]relation.Attr
	attrs := attrBuf[:0]
	used := make(map[string]bool)
	for i, t := range q.Head.Args {
		var name string
		var kind relation.Kind
		if t.IsVar() {
			name = t.Var
			kind = kinds[t.Var]
		} else {
			name = ConstColumnName(i)
			kind = t.Const.Kind()
		}
		for used[name] {
			name += "_"
		}
		used[name] = true
		attrs = append(attrs, relation.Attr{Name: name, Kind: kind})
	}
	return relation.NewSchema(attrs...), nil
}

var constColumnNames = [...]string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}

// ConstColumnName names the output column of a constant at head position i:
// "c<i>". Every builder of a query's output schema names constants by it.
func ConstColumnName(i int) string {
	if i < len(constColumnNames) {
		return constColumnNames[i]
	}
	return "c" + strconv.Itoa(i)
}

// SchemaSource resolves base relation schemas; implemented by the remote
// DBMS catalog and by the CMS's copy of it.
type SchemaSource interface {
	RelationSchema(name string, arity int) (*relation.Schema, error)
}
