package logic

import (
	"fmt"
	"strings"
)

// KB is a knowledge base: Horn clause rules indexed by head predicate, plus
// the second-order assertions of Section 4 (mutual exclusion, functional
// dependencies) and declarations of which predicates are base (database)
// relations.
type KB struct {
	rules   map[PredRef][]Clause
	order   []PredRef // rule insertion order, for deterministic iteration
	base    map[PredRef]bool
	mutex   []MutexSOA
	fds     []FDSOA
	clauses int
	gen     uint64
}

// NewKB returns an empty knowledge base.
func NewKB() *KB {
	return &KB{
		rules: make(map[PredRef][]Clause),
		base:  make(map[PredRef]bool),
	}
}

// AddClause adds a rule or fact. It rejects clauses that are not
// range-restricted and clauses whose head is a comparison or a declared base
// relation.
func (kb *KB) AddClause(c Clause) error {
	if c.Head.IsComparison() {
		return fmt.Errorf("logic: clause head %s is a built-in comparison", c.Head)
	}
	ref := c.Head.Ref()
	if kb.base[ref] {
		return fmt.Errorf("logic: clause head %s is a declared base relation", ref)
	}
	if !c.IsRangeRestricted() {
		return fmt.Errorf("logic: clause %s is not range-restricted", c)
	}
	if _, ok := kb.rules[ref]; !ok {
		kb.order = append(kb.order, ref)
	}
	kb.rules[ref] = append(kb.rules[ref], c)
	kb.clauses++
	kb.gen++
	return nil
}

// DeclareBase marks a predicate as a base (database) relation: it is
// evaluated against the DBMS/cache, never expanded through rules.
func (kb *KB) DeclareBase(ref PredRef) error {
	if len(kb.rules[ref]) > 0 {
		return fmt.Errorf("logic: %s already has rules; cannot declare base", ref)
	}
	kb.base[ref] = true
	kb.gen++
	return nil
}

// IsBase reports whether the predicate is a declared base relation. A
// predicate with no rules and no declaration is also treated as base,
// matching the paper's setting where every relation an ask reaches is
// derived by rules, or a database or built-in relation.
func (kb *KB) IsBase(ref PredRef) bool {
	if kb.base[ref] {
		return true
	}
	_, hasRules := kb.rules[ref]
	return !hasRules
}

// Rules returns the clauses whose head predicate matches ref, in program
// order.
func (kb *KB) Rules(ref PredRef) []Clause { return kb.rules[ref] }

// Preds returns all predicates that have rules, in first-definition order.
func (kb *KB) Preds() []PredRef { return append([]PredRef(nil), kb.order...) }

// Generation counts the KB's changes: every successful call of a method
// that adds to it moves it on, so what was derived from the KB at one
// generation still holds while the generation reads the same.
func (kb *KB) Generation() uint64 { return kb.gen }

// NumClauses returns the number of clauses in the KB.
func (kb *KB) NumClauses() int { return kb.clauses }

// AddMutex records a mutual-exclusion SOA: p and q cannot both hold of the
// same arguments. The IE's shaper uses these to cull contradictory clauses.
func (kb *KB) AddMutex(p, q PredRef) {
	kb.mutex = append(kb.mutex, MutexSOA{P: p, Q: q})
	kb.gen++
}

// MutuallyExclusive reports whether p and q are declared mutually exclusive.
func (kb *KB) MutuallyExclusive(p, q PredRef) bool {
	for _, m := range kb.mutex {
		if (m.P == p && m.Q == q) || (m.P == q && m.Q == p) {
			return true
		}
	}
	return false
}

// AddFD records a functional-dependency SOA on a predicate: the attribute
// positions From (0-based) determine the positions To.
func (kb *KB) AddFD(fd FDSOA) {
	kb.fds = append(kb.fds, fd)
	kb.gen++
}

// FDs returns the functional dependencies declared for a predicate.
func (kb *KB) FDs(ref PredRef) []FDSOA {
	var out []FDSOA
	for _, fd := range kb.fds {
		if fd.Pred == ref {
			out = append(out, fd)
		}
	}
	return out
}

// String renders the whole KB in surface syntax.
func (kb *KB) String() string {
	var b strings.Builder
	for _, ref := range kb.order {
		for _, c := range kb.rules[ref] {
			b.WriteString(c.String())
			b.WriteByte('\n')
		}
	}
	for _, m := range kb.mutex {
		fmt.Fprintf(&b, ":- mutex(%s, %s).\n", m.P, m.Q)
	}
	for _, fd := range kb.fds {
		fmt.Fprintf(&b, ":- %s.\n", fd)
	}
	return b.String()
}
