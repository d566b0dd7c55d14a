package caql

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/relation"
)

// RunProgram answers a program: clauses read as Datalog rules under set
// semantics, whose answer is the extension of the last clause's head
// predicate. A clause whose body reads no predicate the program defines is a
// query over base relations: ask answers it, and its answer is facts of its
// head. The other clauses run on Fixpoint over those facts. One of them that
// reads a base relation is an error naming the relation, returned before
// anything is asked, and so is a predicate defined with two arities.
// RunProgram returns the answer and the tuples the rule bodies produced.
// ctx is checked every round; ask runs under a context of its own.
func RunProgram(ctx context.Context, clauses []Query, ask func(*Query) (*relation.Relation, error)) (*relation.Relation, int, error) {
	arity := make(map[string]int, len(clauses))
	for _, q := range clauses {
		if n, ok := arity[q.Name()]; ok && n != len(q.Head.Args) {
			return nil, 0, fmt.Errorf("caql: %s is defined with arities %d and %d", q.Name(), n, len(q.Head.Args))
		}
		arity[q.Name()] = len(q.Head.Args)
	}
	defined := func(a logic.Atom) bool {
		n, ok := arity[a.Pred]
		return ok && n == len(a.Args)
	}
	var rules, queries []*Query
	for i := range clauses {
		q := &clauses[i]
		if !slices.ContainsFunc(q.Rels, defined) {
			queries = append(queries, q)
			continue
		}
		for _, a := range q.Rels {
			if !defined(a) {
				return nil, 0, fmt.Errorf("caql: rule %s reads base relation %s, which only a clause reading no derived predicate may", q, a.Ref())
			}
		}
		rules = append(rules, q)
	}
	facts := make(MapSource, len(queries))
	for _, q := range queries {
		ans, err := ask(q)
		if err != nil {
			return nil, 0, err
		}
		if f := facts[q.Name()]; f != nil {
			ans = relation.FromTuples(f.Name, f.Schema(), append(slices.Clip(f.Tuples()), ans.Tuples()...))
		}
		facts[q.Name()] = ans
	}
	derived, produced, err := Fixpoint(ctx, rules, facts)
	if err != nil {
		return nil, produced, err
	}
	goal := clauses[len(clauses)-1]
	if ans := derived[goal.Head.Ref()]; ans != nil {
		return ans, produced, nil
	}
	return relation.DistinctRel(facts[goal.Name()]), produced, nil
}

// Fixpoint evaluates rules, read as a Datalog program, to its least fixpoint
// under set semantics. A predicate some rule's head names is derived: its
// extension starts as src's extension of it, when src has one. An atom over
// any other predicate reads src. It returns the extension of every derived
// predicate and the number of tuples the rule bodies produced, duplicates
// included. This is the fixed-point operator of the paper's compiled data
// access programs (Section 2), on which RunProgram runs every program the
// CMS is asked.
//
// Evaluation is semi-naive (Bancilhon and Ramakrishnan, SIGMOD 1986). The
// first round runs every rule once. After it, a rule with k atoms over
// derived predicates runs k ways a round: the i-th reads only the previous
// round's new tuples (Δ) at its i-th such atom, the extension before that
// round at the ones before it, and the extension at the start of the round
// at the ones after. A derivation is made once, in the round after its last
// premise appeared. The context is checked before every round, and its error
// returned as it is.
func Fixpoint(ctx context.Context, rules []*Query, src RelationSource) (map[logic.PredRef]*relation.Relation, int, error) {
	fs := fixSource{src: src, exts: make(map[logic.PredRef]*extent)}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, 0, fmt.Errorf("caql: rule %s: %w", r, err)
		}
		ref := r.Head.Ref()
		if fs.exts[ref] != nil {
			continue
		}
		e := &extent{schema: placeholderSchema(ref.Arity), set: relation.NewTupleSet(0)}
		if f, err := src.RelationExtension(ref.Name, ref.Arity); err == nil {
			e.schema = f.Schema()
			for _, tu := range f.Tuples() {
				if e.set.Add(tu) {
					e.tuples = append(e.tuples, tu)
				}
			}
		}
		fs.exts[ref] = e
	}
	// The first round runs the rules as written; the later ones run their Δ
	// variants, built here once by renaming atoms to the views they read.
	first := make([]variant, len(rules))
	var later []variant
	for ri, r := range rules {
		first[ri] = variant{q: r, head: fs.exts[r.Head.Ref()]}
		var at []int
		for i, a := range r.Rels {
			if fs.exts[a.Ref()] != nil {
				at = append(at, i)
			}
		}
		for j, i := range at {
			v := r.Clone()
			for _, k := range at[:j] {
				v.Rels[k].Pred += "\x00" + oldView
			}
			v.Rels[i].Pred += "\x00" + deltaView
			later = append(later, variant{q: v, head: first[ri].head, delta: fs.exts[r.Rels[i].Ref()]})
		}
	}

	produced := 0
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, produced, err
		}
		grew := false
		for _, e := range fs.exts {
			e.old, e.cur = e.cur, len(e.tuples)
			grew = grew || e.cur > e.old
		}
		run := first
		if round > 0 {
			if !grew {
				break
			}
			run = later
		}
		for _, v := range run {
			if v.delta != nil && v.delta.cur == v.delta.old {
				continue
			}
			it, schema, err := EvalLazy(v.q, fs)
			if err != nil {
				return nil, produced, fmt.Errorf("caql: rule %s: %w", v.q, err)
			}
			for tu, ok := it.Next(); ok; tu, ok = it.Next() {
				produced++
				if v.head.set.Add(tu) {
					if len(v.head.tuples) == 0 {
						v.head.schema = schema
					}
					v.head.tuples = append(v.head.tuples, tu)
				}
			}
		}
	}

	derived := make(map[logic.PredRef]*relation.Relation, len(fs.exts))
	for ref, e := range fs.exts {
		derived[ref] = relation.FromTuples(ref.Name, e.schema, e.tuples)
	}
	return derived, produced, nil
}

// A derived predicate's older and Δ views are named by its name, a NUL byte,
// which no parsed name holds, and the view.
const (
	oldView   = "old"
	deltaView = "delta"
)

// extent is a derived predicate's extension as it grows: tuples[:old] was
// derived before the last round, tuples[:cur] before this one.
type extent struct {
	schema   *relation.Schema
	tuples   []relation.Tuple
	set      *relation.TupleSet
	old, cur int
}

// variant is a rule with its atoms renamed to the views they read; delta is
// the extent whose Δ it reads, nil for a rule as written.
type variant struct {
	q           *Query
	head, delta *extent
}

// fixSource answers a derived predicate from its extent, as of the start of
// the round, and every other relation from src.
type fixSource struct {
	src  RelationSource
	exts map[logic.PredRef]*extent
}

// RelationExtension implements RelationSource.
func (s fixSource) RelationExtension(name string, arity int) (*relation.Relation, error) {
	pred, view, _ := strings.Cut(name, "\x00")
	e := s.exts[logic.PredRef{Name: pred, Arity: arity}]
	if e == nil {
		return s.src.RelationExtension(name, arity)
	}
	lo, hi := 0, e.cur
	switch view {
	case oldView:
		hi = e.old
	case deltaView:
		lo = e.old
	}
	return relation.FromTuples(name, e.schema, e.tuples[lo:hi]), nil
}

// placeholderSchema types a derived predicate before its first tuple: a0,
// a1, ... of no kind. src's schema, or else the first rule output that adds
// a tuple, replaces it.
func placeholderSchema(arity int) *relation.Schema {
	attrs := make([]relation.Attr, arity)
	for i := range attrs {
		attrs[i].Name = "a" + strconv.Itoa(i)
	}
	return relation.NewSchema(attrs...)
}
