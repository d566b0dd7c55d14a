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
	prog, err := ParseProgram(src)
	if err == nil && len(prog) > 1 {
		err = fmt.Errorf("caql: a query is one clause, not %d", len(prog))
	}
	if err != nil {
		return nil, err
	}
	return &prog[0], nil
}

// ParseProgram parses a text of one or more clauses, in text order, each
// validated for safety. A text of one clause is a query, whose block is the
// program: it parses in one allocation. A text of several is a program
// (RunProgram).
func ParseProgram(src string) ([]Query, error) {
	var prog []Query
	for r := logic.NewClauseReader(src); prog == nil || r.More(); {
		blk, err := parseQuery(&r)
		if err != nil {
			return nil, fmt.Errorf("caql: %w", err)
		}
		if err := blk.q[0].Validate(); err != nil {
			return nil, err
		}
		if prog == nil {
			prog = blk.q[:]
		} else {
			prog = append(prog, blk.q[0])
		}
	}
	return prog, nil
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
// from, in one allocation; q is an array so that a text of one clause is a
// program without another. The arrays fit every query of the caql_cold and
// write_mix benchmarks (at most four body atoms and twelve terms) and no
// more, so the block allocates fewer bytes than a parse into slices of their
// own; a query that overflows an array takes an allocation more for it (one
// up to twice the array's length, as append grows). A block is never reused:
// the query is the caller's to keep.
type parseBlock struct {
	q     [1]Query
	atoms [4]logic.Atom
	terms [12]logic.Term
}

// parseQuery reads r's next clause into a parseBlock. The body keeps its text
// order within Rels and within Cmps.
func parseQuery(r *logic.ClauseReader) (*parseBlock, error) {
	blk := new(parseBlock)
	c, err := r.Next(blk.atoms[:0], blk.terms[:0])
	if err != nil {
		return nil, err
	}
	q := &blk.q[0]
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
	return blk, nil
}
