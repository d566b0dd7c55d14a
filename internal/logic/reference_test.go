package logic

import (
	"slices"
	"testing"
)

// The map unifier the SLD search used before Bindings: a substitution keyed
// by variable name that Bind copies on every binding. It is kept only as the
// oracle FuzzUnify holds Bindings to.

// Clone returns a copy of the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Bind returns s extended with v -> t. It does not mutate s.
func (s Subst) Bind(v string, t Term) Subst {
	out := s.Clone()
	out[v] = t
	return out
}

// UnifyTerms extends s so that a and b become equal, returning the extended
// substitution and true, or nil and false if they cannot be unified. s is not
// mutated.
func UnifyTerms(a, b Term, s Subst) (Subst, bool) {
	a, b = s.Walk(a), s.Walk(b)
	switch {
	case a.IsVar() && b.IsVar():
		if a.Var == b.Var {
			return s, true
		}
		return s.Bind(a.Var, b), true
	case a.IsVar():
		return s.Bind(a.Var, b), true
	case b.IsVar():
		return s.Bind(b.Var, a), true
	default:
		if a.Const.Equal(b.Const) {
			return s, true
		}
		return nil, false
	}
}

// Unify unifies two atoms under s. The atoms must have the same predicate and
// arity to unify.
func Unify(a, b Atom, s Subst) (Subst, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil, false
	}
	out := s
	for i := range a.Args {
		var ok bool
		out, ok = UnifyTerms(a.Args[i], b.Args[i], out)
		if !ok {
			return nil, false
		}
	}
	return out, true
}

// fuzzAtom reads an atom of arity 1-4 from data: each argument is one of the
// variables X, Y, Z, W or one of the constants 1, 2, "a". It returns the
// bytes it did not read.
func fuzzAtom(data []byte, pred string) (Atom, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	args := make([]Term, 1+int(next()%4))
	for i := range args {
		switch c := next() % 7; {
		case c < 4:
			args[i] = V(string("XYZW"[c]))
		case c == 4:
			args[i] = CInt(1)
		case c == 5:
			args[i] = CInt(2)
		default:
			args[i] = CStr("a")
		}
	}
	return A(pred, args...), data
}

// sameArity cuts the longer atom's arguments to the shorter one's count, so
// that a pair fails on its arguments rather than on its arity.
func sameArity(a, b *Atom) {
	n := min(len(a.Args), len(b.Args))
	a.Args, b.Args = a.Args[:n], b.Args[:n]
}

// FuzzUnify holds Bindings to the map unifier. Two pairs of atoms are read
// from the input: the first is unified to set up bindings (var-var chains,
// constants), the second is then unified under them. Both run in one frame
// (the atoms share their variables) or in two (the second atom of each pair
// is a different clause application). Success must agree, every variable must
// resolve to the same constant or to the same alias class as under the
// reference, and Undo must restore the exact state before the second pair.
func FuzzUnify(f *testing.F) {
	// A seed is a frame byte (odd: two frames), then four atoms, each an
	// arity byte (n means n+1 arguments) and one byte per argument: 0-3 the
	// variables X, Y, Z, W, 4 and 5 the integers 1 and 2, 6 the string "a".
	for _, seed := range []string{
		"\x00\x01\x00\x01\x01\x01\x00\x00\x00\x00\x04",         // p(X, Y) = p(Y, X), a cycle; then q(X) = q(1)
		"\x00\x00\x00\x00\x01\x01\x00\x01\x01\x04\x05",         // p(X) = p(Y); then q(X, Y) = q(1, 2) fails
		"\x00\x01\x00\x02\x01\x01\x03\x01\x02\x00\x01\x03\x01", // p(X, Z) = p(Y, W); then q(Z, X) = q(W, Y)
		"\x01\x01\x00\x01\x01\x01\x00\x01\x00\x06\x01\x01\x01", // two frames: p(X, Y) = p(Y', X'); then q(X, "a") = q(Y', Y')
		"\x01\x01\x00\x04\x01\x02\x02\x00\x00\x00\x03",         // two frames: p(X, 1) = p(Z', Z'); then q(X) = q(W')
		"\x01\x01\x00\x00\x01\x04\x05\x00\x00\x00\x00",         // two frames: p(X, X) = p(1, 2) fails
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		twoFrames := data[0]%2 == 1
		var pre1, pre2, x, y Atom
		pre1, data = fuzzAtom(data[1:], "p")
		pre2, data = fuzzAtom(data, "p")
		x, data = fuzzAtom(data, "q")
		y, _ = fuzzAtom(data, "q")
		sameArity(&pre1, &pre2)
		sameArity(&x, &y)

		// The two clause applications: the left atoms number their
		// variables in one frame, the right atoms in the same frame or in a
		// second one. The reference tells the second frame's variables apart
		// by a prime.
		var left, right Numbering
		rightNums := &left
		prime := func(a Atom) Atom { return a }
		if twoFrames {
			rightNums = &right
			prime = func(a Atom) Atom {
				out := Atom{Pred: a.Pred, Args: slices.Clone(a.Args)}
				for i, tm := range out.Args {
					if tm.IsVar() {
						out.Args[i] = V(tm.Var + "'")
					}
				}
				return out
			}
		}
		npre1, nx := left.Number(pre1), left.Number(x)
		npre2, ny := rightNums.Number(pre2), rightNums.Number(y)
		var b Bindings
		lbase := b.Push(len(left))
		rbase := lbase
		if twoFrames {
			rbase = b.Push(len(right))
		}

		ref, refOK := Unify(pre1, prime(pre2), NewSubst())
		if got := b.Unify(npre1, lbase, npre2, rbase); got != refOK {
			t.Fatalf("setup %v = %v: Bindings says %v, the reference %v", pre1, pre2, got, refOK)
		}
		if !refOK {
			return
		}
		before := slices.Clone(b.cells)
		m := b.Mark()
		ref, refOK = Unify(x, prime(y), ref)
		if got := b.Unify(nx, lbase, ny, rbase); got != refOK {
			t.Fatalf("%v = %v after %v = %v: Bindings says %v, the reference %v", x, y, pre1, pre2, got, refOK)
		}
		if refOK {
			type variable struct {
				name string
				cell int
			}
			var vars []variable
			for i, v := range left {
				vars = append(vars, variable{v, lbase + i})
			}
			if twoFrames {
				for i, v := range right {
					vars = append(vars, variable{v + "'", rbase + i})
				}
			}
			for _, u := range vars {
				want := ref.Walk(V(u.name))
				root, c, ok := b.Resolve(u.cell)
				if ok != want.IsConst() || ok && !c.Equal(want.Const) {
					t.Fatalf("%s resolves to %v (bound %v), the reference to %v", u.name, c, ok, want)
				}
				for _, w := range vars {
					wroot, _, _ := b.Resolve(w.cell)
					same := want.IsVar() && ref.Walk(V(w.name)).Equal(want)
					if !ok && (root == wroot) != same {
						t.Fatalf("%s and %s: one alias class %v under Bindings, %v under the reference", u.name, w.name, root == wroot, same)
					}
				}
			}
		}
		b.Undo(m)
		if len(b.trail) != m.trail || !slices.EqualFunc(b.cells, before, func(p, q cell) bool {
			return p.link == q.link && p.val.Kind() == q.val.Kind() && p.val.Equal(q.val)
		}) {
			t.Fatalf("Undo left %v and a trail of %d, want %v and %d", b.cells, len(b.trail), before, m.trail)
		}
	})
}
