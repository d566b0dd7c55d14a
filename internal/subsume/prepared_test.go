package subsume

import (
	"testing"

	"repro/internal/caql"
)

// The shapes the benchmark's cache sees (caql_cold, write_mix), E9's, and a
// few the matcher has special cases for. Element/query pairs from this list
// seed the fuzzer and drive the allocation test.
var matchShapes = []string{
	`q(P, Q) :- shipment(7, P, Q)`,
	`q(C, W) :- part(7, C, W)`,
	`q(S, P, Q) :- shipment(S, P, Q) & S >= 5 & S < 9 & Q >= 300`,
	`q(P, Q, C, W) :- shipment(7, P, Q) & part(P, C, W)`,
	`n(P, Q) :- shipment(7, P, Q) & Q >= 250`,
	`n(C, W) :- part(7, C, W) & W >= 50.0`,
	`n(S, P, Q) :- shipment(S, P, Q) & S >= 5 & S < 9 & Q >= 460`,
	`n(P, Q, C, W) :- shipment(7, P, Q) & part(P, C, W) & W >= 50.0`,
	`va(S, N, C) :- supplier(S, N, C) & S >= 100 & S < 600`,
	`e(X, Z) :- b3(X, "c2", Z) & X >= 3`,
	`e(X, Y, Z) :- b3(X, Y, Z) & Z < 44`,
	`e(X, W) :- b2(X, Z) & b3(Z, "c2", W) & X >= 2`,
	`e(Z) :- b3(4, "c2", Z)`,
	`q(X, Z) :- b3(X, "c2", Z) & X >= 3 & X < 20`,
	`all(S, P, Q) :- shipment(S, P, Q)`,
	`d(S, Q) :- shipment(S, S, Q) & S != 3`,
	`k(Q) :- shipment(2, 2.0, Q) & 5 < 3`,
	`v(S, P) :- shipment(S, P, Q) & S < P & "a" <= "b"`,
	`s(S, N) :- supplier(S, N, C) & N >= "n3" & S = 4`,
}

// FuzzMayDeriveSound: MayDerive is what lets the CMS skip an element without
// running the matcher, so it must never refuse a pair the matcher accepts,
// whatever is asked of the piece. Neither side may panic on anything that
// parses.
func FuzzMayDeriveSound(f *testing.F) {
	for _, e := range matchShapes {
		for _, q := range matchShapes {
			f.Add(e, q)
		}
	}
	f.Fuzz(func(t *testing.T, eText, qText string) {
		e, err := caql.Parse(eText)
		if err != nil {
			return
		}
		q, err := caql.Parse(qText)
		if err != nil {
			return
		}
		if len(e.Rels) > 5 || len(q.Rels) > 7 {
			return // the assignment search is factorial in same-relation atoms
		}
		may := MayDerive(Prepare(e), Prepare(q))
		for _, needed := range []map[string]bool{nil, q.Head.VarSet(), q.VarSet()} {
			if cands := Match(e, q, needed); len(cands) > 0 && !may {
				t.Fatalf("MayDerive refuses a pair Match accepts (needed %v)\nE: %s\nQ: %s", needed, e, q)
			}
		}
		if _, ok := DeriveFull(e, q); ok && !may {
			t.Fatalf("MayDerive refuses a pair DeriveFull accepts\nE: %s\nQ: %s", e, q)
		}
	})
}

// Saying no costs nothing: MayDerive never allocates, the prepared matcher
// allocates only for a candidate it returns, and Match on two queries nobody
// prepared allocates only once every element atom has found a partner.
func TestNoAllocatesNothing(t *testing.T) {
	var accepted, refused int
	for _, eText := range matchShapes {
		for _, qText := range matchShapes {
			e, q := caql.MustParse(eText), caql.MustParse(qText)
			pe, pq := Prepare(e), Prepare(q)
			needed := q.Head.VarSet() // what DeriveFull asks for
			if n := testing.AllocsPerRun(5, func() { MayDerive(pe, pq) }); n != 0 {
				t.Errorf("MayDerive allocates %v\nE: %s\nQ: %s", n, e, q)
			}
			if len(pe.Match(pq, needed)) > 0 {
				accepted++
				continue
			}
			refused++
			if n := testing.AllocsPerRun(5, func() { pe.Match(pq, needed); pe.DeriveFull(pq, nil) }); n != 0 {
				t.Errorf("prepared Match/DeriveFull allocate %v to refuse\nE: %s\nQ: %s", n, e, q)
			}
			if !mayDerive(e, q, nil, nil) {
				if n := testing.AllocsPerRun(5, func() { Match(e, q, needed); DeriveFull(e, q) }); n != 0 {
					t.Errorf("Match/DeriveFull allocate %v to refuse a pair with a partnerless atom\nE: %s\nQ: %s", n, e, q)
				}
			}
		}
	}
	if accepted < len(matchShapes) || refused < len(matchShapes) {
		t.Fatalf("shapes exercise too little: %d pairs accepted, %d refused", accepted, refused)
	}
}

// Saying yes costs one allocation each for the shapes the cache sees: Prepare
// holds its integers in the Prepared, and a whole-query derivation carves
// its candidate and slices from one block.
func TestPrepareAndDeriveFullAllocateOnce(t *testing.T) {
	for _, tc := range []struct{ e, q string }{
		{"all(S, P, Q) :- shipment(S, P, Q)", "q(P, Q) :- shipment(7, P, Q)"},
		{`e(X, Y, Z) :- b3(X, Y, Z)`, `q(X, Z) :- b3(X, "a", Z) & X >= 3`},
		{"sib(X, Y) :- parent(P, X) & parent(P, Y) & X != Y", `q(Y) :- parent(P, "p1") & parent(P, Y) & "p1" != Y`},
	} {
		e, q := caql.MustParse(tc.e), caql.MustParse(tc.q)
		pe := Prepare(e)
		if n := testing.AllocsPerRun(20, func() { Prepare(e) }); n != 1 {
			t.Errorf("Prepare(%s) allocates %v, want 1", e, n)
		}
		pq := Prepare(q)
		if _, ok := pe.DeriveFull(pq, nil); !ok {
			t.Fatalf("%s does not derive %s", e, q)
		}
		if n := testing.AllocsPerRun(20, func() { pe.DeriveFull(pq, nil) }); n != 1 {
			t.Errorf("DeriveFull(%s, %s) allocates %v, want 1", e, q, n)
		}
	}
}

// A preparedBlock holds 24 integers: a query that needs 24 is one allocation,
// one that needs 25 takes a second for its integers.
func TestPrepareBlockBoundary(t *testing.T) {
	for _, tc := range []struct {
		q      string
		ints   int
		allocs float64
	}{
		{"q(A, B, C, D, E, F, G, A) :- r(A, B, C, D, E, F, G)", 24, 1},
		{"q(A, B, C, D, E, F, G, A, B) :- r(A, B, C, D, E, F, G)", 25, 2},
	} {
		q := caql.MustParse(tc.q)
		p := Prepare(q)
		if n := len(p.terms) + len(p.off) + len(p.head) + len(p.headCol) + len(p.cmps); n != tc.ints {
			t.Fatalf("Prepare(%s) needs %d integers, want %d", q, n, tc.ints)
		}
		if n := testing.AllocsPerRun(20, func() { Prepare(q) }); n != tc.allocs {
			t.Errorf("Prepare(%s) allocates %v, want %v", q, n, tc.allocs)
		}
	}
}
