package caql

import (
	"fmt"

	"repro/internal/logic"
)

// Parse parses a single CAQL conjunctive query in clause syntax:
//
//	d2(X, Y) :- b2(X, Z) & b3(Z, c2, Y) & X < 10.
//
// Commas and ampersands are both accepted as conjunction separators, and the
// final period may be left off. The query is validated for safety.
func Parse(src string) (*Query, error) {
	r := logic.NewClauseReader(src)
	q, err := parseQuery(&r)
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("caql: %w", err)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseUnion parses one or more conjunctive queries (a union when several
// share the head predicate), read clause after clause from one text.
func ParseUnion(src string) (*Union, error) {
	u := &Union{}
	for r := logic.NewClauseReader(src); r.More(); {
		q, err := parseQuery(&r)
		if err != nil {
			return nil, fmt.Errorf("caql: %w", err)
		}
		if err := q.Validate(); err != nil {
			return nil, err
		}
		u.Queries = append(u.Queries, q)
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return u, nil
}

// MustParse is Parse that panics on error; for tests and fixed literals.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// parseBlock is a parsed query and the atoms and terms its slices are carved
// from, in one allocation. The arrays fit every query of the caql_cold and
// write_mix benchmarks (at most four body atoms and twelve terms) and no
// more, so the block allocates fewer bytes than a parse into slices of their
// own; a query that overflows an array takes an allocation more for it (one
// up to twice the array's length, as append grows). A block is never reused:
// the query is the caller's to keep.
type parseBlock struct {
	q     Query
	atoms [4]logic.Atom
	terms [12]logic.Term
}

// parseQuery reads r's next clause into a parseBlock. The body keeps its text
// order within Rels and within Cmps.
func parseQuery(r *logic.ClauseReader) (*Query, error) {
	blk := new(parseBlock)
	c, err := r.Next(blk.atoms[:0], blk.terms[:0])
	if err != nil {
		return nil, err
	}
	q := &blk.q
	q.Head = c.Head
	body := c.Body
	// Move the relational atoms to the front, stably: a comparison written
	// before them shifts right past each.
	n := 0
	for i, a := range body {
		if !a.IsComparison() {
			copy(body[n+1:i+1], body[n:i])
			body[n] = a
			n++
		}
	}
	if n > 0 {
		q.Rels = body[:n:n]
	}
	if n < len(body) {
		q.Cmps = body[n:]
	}
	return q, nil
}
