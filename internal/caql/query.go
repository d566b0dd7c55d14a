// Package caql implements CAQL, BrAID's Cache Query Language (Section 5 of
// the paper): the language in which the inference engine expresses database
// access to the Cache Management System.
//
// A CAQL query is a well-formed formula in function-free first-order
// predicate calculus. Following Section 5.3.2, the core form handled by the
// subsumption machinery is the PSJ (project-select-join) conjunctive query:
// a head (projection) over a conjunction of relational atoms plus comparison
// atoms. Unions of conjunctive queries and second-order aggregation (the
// AGG/BAGOF/SETOF predicates) are layered on top; the CMS evaluates them even
// though the remote DBMS's DML may not support them.
package caql

import (
	"fmt"
	"sort"
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

// Clone returns a deep copy.
func (q *Query) Clone() *Query {
	out := &Query{Head: cloneAtom(q.Head)}
	out.Rels = cloneAtoms(q.Rels)
	out.Cmps = cloneAtoms(q.Cmps)
	return out
}

func cloneAtom(a logic.Atom) logic.Atom {
	return logic.Atom{Pred: a.Pred, Args: append([]logic.Term(nil), a.Args...)}
}

func cloneAtoms(as []logic.Atom) []logic.Atom {
	out := make([]logic.Atom, len(as))
	for i, a := range as {
		out[i] = cloneAtom(a)
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
func (q *Query) Canonical() string {
	names := make(map[string]string)
	ren := func(t logic.Term) logic.Term {
		if !t.IsVar() {
			return t
		}
		n, ok := names[t.Var]
		if !ok {
			n = fmt.Sprintf("V%d", len(names))
			names[t.Var] = n
		}
		return logic.V(n)
	}
	renAtom := func(a logic.Atom) logic.Atom {
		args := make([]logic.Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = ren(t)
		}
		return logic.Atom{Pred: a.Pred, Args: args}
	}
	var b strings.Builder
	// The head predicate is a view identifier chosen by the caller; exact
	// matching must ignore it (d2 and an alpha-variant j are the same query).
	head := renAtom(q.Head)
	head.Pred = "q"
	b.WriteString(head.String())
	b.WriteString(":-")
	for _, a := range q.Rels {
		b.WriteString(renAtom(a).String())
		b.WriteByte('&')
	}
	// Comparisons participate sorted so syntactic order does not matter.
	cmps := make([]string, 0, len(q.Cmps))
	for _, c := range q.Cmps {
		cmps = append(cmps, renAtom(c).String())
	}
	sort.Strings(cmps)
	for _, c := range cmps {
		b.WriteString(c)
		b.WriteByte('&')
	}
	return b.String()
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
	attrs := make([]relation.Attr, len(q.Head.Args))
	used := make(map[string]bool)
	for i, t := range q.Head.Args {
		var name string
		var kind relation.Kind
		if t.IsVar() {
			name = t.Var
			kind = kinds[t.Var]
		} else {
			name = fmt.Sprintf("c%d", i)
			kind = t.Const.Kind()
		}
		for used[name] {
			name += "_"
		}
		used[name] = true
		attrs[i] = relation.Attr{Name: name, Kind: kind}
	}
	return relation.NewSchema(attrs...), nil
}

// SchemaSource resolves base relation schemas; implemented by the remote
// DBMS catalog and by the CMS's copy of it.
type SchemaSource interface {
	RelationSchema(name string, arity int) (*relation.Schema, error)
}

// Union is a union of conjunctive queries sharing a head shape (the CMS
// evaluates unions locally; the paper's fully-compiled DAPs often involve
// union).
type Union struct {
	Queries []*Query
}

// Validate checks each branch and that arities agree.
func (u *Union) Validate() error {
	if len(u.Queries) == 0 {
		return fmt.Errorf("caql: empty union")
	}
	arity := len(u.Queries[0].Head.Args)
	for _, q := range u.Queries {
		if err := q.Validate(); err != nil {
			return err
		}
		if len(q.Head.Args) != arity {
			return fmt.Errorf("caql: union branches have differing arities")
		}
	}
	return nil
}

// String renders all branches.
func (u *Union) String() string {
	parts := make([]string, len(u.Queries))
	for i, q := range u.Queries {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\n")
}

// AggQuery is a second-order aggregation over a conjunctive query (the AGG
// special predicate of Section 5): group the inner query's result by the
// GroupBy head positions and aggregate the Specs.
type AggQuery struct {
	Inner   *Query
	GroupBy []int
	Specs   []relation.AggSpec
}

// Validate checks the inner query and position bounds.
func (a *AggQuery) Validate() error {
	if err := a.Inner.Validate(); err != nil {
		return err
	}
	arity := len(a.Inner.Head.Args)
	for _, g := range a.GroupBy {
		if g < 0 || g >= arity {
			return fmt.Errorf("caql: AGG group-by position %d out of range", g)
		}
	}
	for _, s := range a.Specs {
		if s.Col >= arity || (s.Col < 0 && s.Op != relation.AggCount) {
			return fmt.Errorf("caql: AGG spec column %d out of range", s.Col)
		}
	}
	return nil
}
