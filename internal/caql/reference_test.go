package caql

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/logic"
)

// referenceCanonical is Canonical as it was written before AppendCanonical:
// rename every variable through a map, render the renamed atoms with
// Atom.String, and sort the comparisons' strings. It is kept only as the
// oracle FuzzCanonical holds the one-pass rendering to.
func referenceCanonical(q *Query) string {
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
	head := renAtom(q.Head)
	head.Pred = "q"
	b.WriteString(head.String())
	b.WriteString(":-")
	for _, a := range q.Rels {
		b.WriteString(renAtom(a).String())
		b.WriteByte('&')
	}
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

// FuzzCanonical: for any query that parses, Canonical is byte-equal to the
// reference rendering, AppendCanonical appends exactly those bytes, and the
// key is unchanged by renaming the variables (and the head predicate) or by
// rotating the comparisons.
func FuzzCanonical(f *testing.F) {
	for _, src := range []string{
		`d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y)`,
		"d(X) :- b2(X, Z), Z > 5.",
		`d1(Y) :- b1("c1", Y)`,
		"d(X, Z) :- b2(X, Z) & Z >= 10 & Z < 20 & X != 3",
		"loop(X) :- e(X, X)",
		`d(X, 42) :- b2(X, Z) & Z = 10`,
		"d(X, Y) :- b2(X, Z) & b3(Z, Y, W) & X < 3",
		`d2(X, 100) :- b2(X, Z) & b3(Z, "c2", 100)`,
		`d(Y, X, 5) :- b2(X, Z) & b3(Z, Y, W)`,
		// Comparisons whose renderings are prefixes of one another, constants
		// of every kind, and more variables than the stack array holds.
		`d(X) :- r(X, Y) & Y < 1 & Y < 10 & Y < 1.5 & X != "a b" & X != a_b & X != true & X != null & Y > -2.5e-07`,
		"d(A) :- r(A, B, C, D, E, F, G, H) & s(H, I, J, K, L, M, N, O) & t(O, P, Q, R, S, T, U, V) & V > 1",
	} {
		f.Add(src, uint8(1))
	}
	f.Fuzz(func(t *testing.T, src string, rot uint8) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		want := referenceCanonical(q)
		if got := q.Canonical(); got != want {
			t.Fatalf("Canonical(%s)\n got %q\nwant %q", q, got, want)
		}
		if got := string(q.AppendCanonical([]byte("prefix"))); got != "prefix"+want {
			t.Fatalf("AppendCanonical(%s) onto a prefix gave %q", q, got)
		}

		// Prefixing is injective, and renaming argument by argument (not
		// through a Subst, which would chase X to R_X to R_R_X) is one step.
		alpha := q.Clone()
		alpha.Head.Pred = "other"
		for _, atoms := range [][]logic.Atom{{alpha.Head}, alpha.Rels, alpha.Cmps} {
			for _, a := range atoms {
				for i, t := range a.Args {
					if t.IsVar() {
						a.Args[i] = logic.V("R_" + t.Var)
					}
				}
			}
		}
		if got := alpha.Canonical(); got != want {
			t.Fatalf("renaming changed the key:\n%s: %q\n%s: %q", q, want, alpha, got)
		}

		if n := len(q.Cmps); n > 1 {
			rotated := q.Clone()
			k := int(rot) % n
			rotated.Cmps = append(slices.Clone(q.Cmps[k:]), q.Cmps[:k]...)
			if got := rotated.Canonical(); got != want {
				t.Fatalf("reordering the comparisons changed the key:\n%s: %q\n%s: %q", q, want, rotated, got)
			}
		}
	})
}
