package caql

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/relation"
)

// TestQueryCloneAllocs: Clone copies any query in three allocations — the
// Query, one block of atoms and one of terms — and the copy is deep: an
// append to each cloned Args leaves its neighbours in the block and the
// original as they were.
func TestQueryCloneAllocs(t *testing.T) {
	for _, src := range []string{
		"q(P, Q) :- shipment(7, P, Q)",
		"q(S, P, Q) :- shipment(S, P, Q) & S >= 3 & S < 14 & Q >= 300",
		"q(P, Q, C, W) :- shipment(7, P, Q) & part(P, C, W) & W >= 50.0",
		"q(A, E) :- r(A, B) & r(B, C) & r(C, D) & r(D, E) & A < E & B <> D",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { q.Clone() }); n != 3 {
			t.Errorf("%s: Clone allocates %.0f times, want 3", src, n)
		}
		orig, c := atomsOf(q), q.Clone()
		cloned := atomsOf(c)
		if len(cloned) != len(orig) {
			t.Fatalf("%s: clone has %d atoms, want %d", src, len(cloned), len(orig))
		}
		before := make([]logic.Atom, len(orig))
		for i, a := range orig {
			before[i] = logic.Atom{Pred: a.Pred, Args: append([]logic.Term(nil), a.Args...)}
		}
		extra := logic.C(relation.Int(-1))
		for i, a := range cloned {
			if !a.Equal(*orig[i]) {
				t.Fatalf("%s: cloned atom %s, want %s", src, a, orig[i])
			}
			a.Args = append(a.Args, extra)
		}
		for i, a := range cloned {
			want := logic.Atom{Pred: before[i].Pred, Args: append(append([]logic.Term(nil), before[i].Args...), extra)}
			if !a.Equal(want) {
				t.Fatalf("%s: after appending to every cloned atom, atom %d reads %s, want %s", src, i, a, want)
			}
			if !orig[i].Equal(before[i]) {
				t.Fatalf("%s: appending to the clone changed the original's atom %d to %s", src, i, orig[i])
			}
		}
	}
}

// atomsOf lists pointers to q's head, relational and comparison atoms.
func atomsOf(q *Query) []*logic.Atom {
	out := []*logic.Atom{&q.Head}
	for i := range q.Rels {
		out = append(out, &q.Rels[i])
	}
	for i := range q.Cmps {
		out = append(out, &q.Cmps[i])
	}
	return out
}
