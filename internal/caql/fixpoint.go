package caql

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/relation"
)

// Fixpoint evaluates rules, read as a Datalog program, to its least fixpoint
// under set semantics. A predicate some rule's head names is derived; an atom
// over any other predicate reads src. It returns the extension of every
// derived predicate and the number of tuples the rule bodies produced,
// duplicates included. This is the fixed-point operator of the paper's
// compiled data access programs (Section 2); the compiled strategy's
// bottom-up evaluation and the CMS's transitive closure both run on it.
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
		if ref := r.Head.Ref(); fs.exts[ref] == nil {
			fs.exts[ref] = &extent{schema: placeholderSchema(ref.Arity), set: relation.NewTupleSet(0)}
		}
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
// a1, ... of no kind. The first rule output that adds a tuple replaces it.
func placeholderSchema(arity int) *relation.Schema {
	attrs := make([]relation.Attr, arity)
	for i := range attrs {
		attrs[i].Name = "a" + strconv.Itoa(i)
	}
	return relation.NewSchema(attrs...)
}
