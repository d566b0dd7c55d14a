package logic

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestTermBasics(t *testing.T) {
	if !V("X").IsVar() || V("X").IsConst() {
		t.Fatal("var classification broken")
	}
	if !CInt(3).IsConst() || CInt(3).IsVar() {
		t.Fatal("const classification broken")
	}
	if !V("X").Equal(V("X")) || V("X").Equal(V("Y")) || V("X").Equal(CStr("x")) {
		t.Fatal("term equality broken")
	}
	if !CInt(3).Equal(C(relation.Float(3))) {
		t.Fatal("numeric const equality should be cross-kind")
	}
}

func TestTermString(t *testing.T) {
	cases := map[string]Term{
		"X":       V("X"),
		"tom":     CStr("tom"),
		`"Tom"`:   CStr("Tom"), // uppercase needs quoting
		`"a b"`:   CStr("a b"),
		"42":      CInt(42),
		`"true"`:  CStr("true"), // reserved word needs quoting
		"-7":      CInt(-7),
		"2.5e-07": C(relation.Float(2.5e-7)),
		"true":    C(relation.Bool(true)),
		"null":    C(relation.Null()),
		`""`:      CStr(""),
	}
	for want, term := range cases {
		if got := term.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", term, got, want)
		}
		if got := string(term.AppendString([]byte("|"))); got != "|"+want {
			t.Errorf("AppendString(%#v) = %q, want %q", term, got, "|"+want)
		}
	}
}

// IsComparison runs per atom in Atom.String, NewQuery and Query.Validate; on a
// relational atom it used to build an "unknown operator" error to say no.
func TestIsComparisonAllocatesNothing(t *testing.T) {
	rel, cmp := A("parent", V("X"), V("Y")), A(relation.OpLt.String(), V("X"), CInt(3))
	if rel.IsComparison() || !cmp.IsComparison() || cmp.CmpOp() != relation.OpLt {
		t.Fatal("IsComparison/CmpOp wrong")
	}
	if n := testing.AllocsPerRun(100, func() { rel.IsComparison(); cmp.IsComparison() }); n != 0 {
		t.Errorf("IsComparison allocates %v objects per run, want 0", n)
	}
}

func TestAtomBasics(t *testing.T) {
	a := A("p", V("X"), CInt(1))
	if a.Arity() != 2 {
		t.Fatal("atom arity broken")
	}
	if a.IsGround() {
		t.Fatal("atom with var is not ground")
	}
	if !A("p", CInt(1)).IsGround() {
		t.Fatal("ground atom misclassified")
	}
	c := A(relation.OpLt.String(), V("X"), CInt(5))
	if !c.IsComparison() || c.CmpOp() != relation.OpLt {
		t.Fatal("comparison atom broken")
	}
	if a.IsComparison() {
		t.Fatal("ordinary atom misclassified as comparison")
	}
	if c.String() != "X < 5" {
		t.Errorf("comparison string = %q", c.String())
	}
	if a.String() != "p(X, 1)" {
		t.Errorf("atom string = %q", a.String())
	}
}

func TestSubstWalkApply(t *testing.T) {
	s := NewSubst()
	s.BindInPlace("X", V("Y"))
	s.BindInPlace("Y", CInt(7))
	if got := s.Walk(V("X")); !got.Equal(CInt(7)) {
		t.Fatalf("walk chain = %v", got)
	}
	a := s.ApplyAtom(A("p", V("X"), V("Z")))
	if !a.Args[0].Equal(CInt(7)) || !a.Args[1].Equal(V("Z")) {
		t.Fatalf("apply = %v", a)
	}
}

func TestUnifyBasics(t *testing.T) {
	s, ok := Unify(A("p", V("X"), CInt(1)), A("p", CStr("a"), V("Y")), NewSubst())
	if !ok {
		t.Fatal("unify failed")
	}
	if !s.Walk(V("X")).Equal(CStr("a")) || !s.Walk(V("Y")).Equal(CInt(1)) {
		t.Fatalf("bindings = %v", s)
	}
	if _, ok := Unify(A("p", CInt(1)), A("p", CInt(2)), NewSubst()); ok {
		t.Fatal("conflicting constants should not unify")
	}
	if _, ok := Unify(A("p", CInt(1)), A("q", CInt(1)), NewSubst()); ok {
		t.Fatal("different predicates should not unify")
	}
	if _, ok := Unify(A("p", CInt(1)), A("p", CInt(1), CInt(2)), NewSubst()); ok {
		t.Fatal("different arities should not unify")
	}
	// Shared variable consistency.
	if _, ok := Unify(A("p", V("X"), V("X")), A("p", CInt(1), CInt(2)), NewSubst()); ok {
		t.Fatal("X cannot be both 1 and 2")
	}
	s, ok = Unify(A("p", V("X"), V("X")), A("p", CInt(1), V("Z")), NewSubst())
	if !ok || !s.Walk(V("Z")).Equal(CInt(1)) {
		t.Fatalf("shared var unify: %v ok=%v", s, ok)
	}
}

func randomAtomL(r *rand.Rand, pred string, arity int) Atom {
	args := make([]Term, arity)
	for i := range args {
		switch r.Intn(3) {
		case 0:
			args[i] = V(string(rune('X' + r.Intn(3))))
		case 1:
			args[i] = CInt(int64(r.Intn(3)))
		default:
			args[i] = CStr(string(rune('a' + r.Intn(3))))
		}
	}
	return A(pred, args...)
}

// Property: unification is symmetric (up to success), and the unifier makes
// the atoms equal.
func TestUnifyProperties(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		a := randomAtomL(r, "p", 3)
		b := randomAtomL(r, "p", 3)
		s1, ok1 := Unify(a, b, NewSubst())
		_, ok2 := Unify(b, a, NewSubst())
		if ok1 != ok2 {
			t.Fatalf("unify asymmetric: %v / %v", a, b)
		}
		if ok1 {
			if !s1.ApplyAtom(a).Equal(s1.ApplyAtom(b)) {
				t.Fatalf("unifier does not equate: %v %v under %v", a, b, s1)
			}
		}
	}
}

// applyMapping rewrites a pattern atom through a raw one-way mapping,
// positionally and without chaining (target variables stay inert).
func applyMapping(a Atom, m map[string]Term) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			if mt, ok := m[t.Var]; ok {
				args[i] = mt
				continue
			}
		}
		args[i] = t
	}
	return Atom{Pred: a.Pred, Args: args}
}

// Property: MatchOneWay succeeds only when pattern generalizes target, and
// applying the raw mapping to the pattern yields the target exactly.
func TestMatchOneWayProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		pat := randomAtomL(r, "p", 3)
		tgt := randomAtomL(r, "p", 3)
		m, ok := MatchOneWay(pat, tgt, nil)
		if ok {
			got := applyMapping(pat, m)
			if !got.Equal(tgt) {
				t.Fatalf("one-way match must map pattern onto target: %v -> %v (got %v)", pat, tgt, got)
			}
		} else if _, uok := Unify(pat, tgt, NewSubst()); uok {
			// If even unification fails there is nothing to check; if
			// unification succeeds but one-way match failed, the pattern must
			// have a constant where the target has a variable, or a repeated
			// pattern variable with conflicting targets.
			hasReason := false
			for j := range pat.Args {
				if pat.Args[j].IsConst() && tgt.Args[j].IsVar() {
					hasReason = true
				}
			}
			if !hasReason {
				// Repeated-variable conflicts also justify failure.
				seen := map[string]Term{}
				for j := range pat.Args {
					if pat.Args[j].IsVar() {
						if prev, dup := seen[pat.Args[j].Var]; dup && !prev.Equal(tgt.Args[j]) {
							hasReason = true
						}
						seen[pat.Args[j].Var] = tgt.Args[j]
					}
				}
			}
			if !hasReason {
				t.Fatalf("one-way match failed without reason: %v vs %v", pat, tgt)
			}
		}
	}
}

func TestMatchOneWayPaperExample(t *testing.T) {
	// Section 5.3.2: Q_c1 = b21(X,2); E1 = b21(X,Y) & ...; E2 = b21(3,Y);
	// E3 = b21(X,2) & ... — E1 and E3's b21 atoms subsume Q_c1, E2's does not.
	q := A("b21", V("X"), CInt(2))
	e1 := A("b21", V("X1"), V("Y1"))
	e2 := A("b21", CInt(3), V("Y2"))
	e3 := A("b21", V("X3"), CInt(2))
	if _, ok := MatchOneWay(e1, q, nil); !ok {
		t.Error("E1 atom should match Q_c1")
	}
	if _, ok := MatchOneWay(e2, q, nil); ok {
		t.Error("E2 atom should not match Q_c1 (constant 3 vs variable X)")
	}
	if _, ok := MatchOneWay(e3, q, nil); !ok {
		t.Error("E3 atom should match Q_c1")
	}
}

// Two applications of one clause are two frames: binding a variable in one
// leaves the other's free, the clause's shared variables stay shared within
// each, and undoing the second leaves the first as it was.
func TestFramesRenameApart(t *testing.T) {
	c, err := parseClause("p(X, Y) :- q(X, Z), r(Z, Y).")
	if err != nil {
		t.Fatal(err)
	}
	var vars Numbering
	head := vars.Number(c.Head)
	q, r := vars.Number(c.Body[0]), vars.Number(c.Body[1])
	if len(vars) != 3 || q.Nums[1] != r.Nums[0] {
		t.Fatalf("numbering %v: q %v, r %v", vars, q.Nums, r.Nums)
	}
	var b Bindings
	var goalVars Numbering
	goal := goalVars.Number(A("p", CInt(1), V("Y")))
	gbase := b.Push(len(goalVars))
	first := b.Push(len(vars))
	if !b.Unify(head, first, goal, gbase) {
		t.Fatal("head does not unify with the goal")
	}
	// Z is shared by q and r within an application, not across them.
	if !b.UnifyConst(first+int(q.Nums[1]), relation.Int(7)) {
		t.Fatal("binding the first Z failed")
	}
	if _, v, _ := b.Resolve(first + int(r.Nums[0])); !v.Equal(relation.Int(7)) {
		t.Fatal("q's Z and r's Z are different cells")
	}
	m := b.Mark()
	var otherVars Numbering
	other := otherVars.Number(A("p", CInt(2), V("W")))
	obase := b.Push(len(otherVars))
	second := b.Push(len(vars))
	if !b.Unify(head, second, other, obase) {
		t.Fatal("second application does not unify")
	}
	if _, v, ok := b.Resolve(first); !ok || !v.Equal(relation.Int(1)) {
		t.Fatalf("first application's X = %v (bound %v), want 1", v, ok)
	}
	if _, v, ok := b.Resolve(second); !ok || !v.Equal(relation.Int(2)) {
		t.Fatalf("second application's X = %v (bound %v), want 2", v, ok)
	}
	if _, _, ok := b.Resolve(second + int(r.Nums[0])); ok {
		t.Fatal("binding the first application's Z bound the second's")
	}
	b.Undo(m)
	if len(b.cells) != obase || len(b.trail) != m.trail {
		t.Fatalf("undo kept %d cells and %d trail entries, want %d and %d", len(b.cells), len(b.trail), obase, m.trail)
	}
	if _, v, ok := b.Resolve(first + int(r.Nums[0])); !ok || !v.Equal(relation.Int(7)) {
		t.Fatal("undo freed a binding made before the mark")
	}
}

func TestClauseRangeRestriction(t *testing.T) {
	ok, err := parseClause("p(X) :- q(X).")
	if err != nil || !ok.IsRangeRestricted() {
		t.Fatal("safe clause misjudged")
	}
	bad := Clause{Head: A("p", V("X"))}
	if bad.IsRangeRestricted() {
		t.Fatal("non-ground fact should not be range-restricted")
	}
	cmp := Clause{Head: A("p", V("X")), Body: []Atom{A("q", V("X")), A(relation.OpLt.String(), V("Y"), CInt(3))}}
	if cmp.IsRangeRestricted() {
		t.Fatal("comparison with free var should not be range-restricted")
	}
}

func TestKBBasics(t *testing.T) {
	kb, err := ParseProgram(`
		% the paper's Example 1
		:- base(b1/2).
		:- base(b2/2).
		:- base(b3/3).
		k1(X, Y) :- b1(c1, Y), k2(X, Y).
		k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).
		k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if kb.NumClauses() != 3 {
		t.Fatalf("clauses = %d", kb.NumClauses())
	}
	k2 := PredRef{"k2", 2}
	if got := len(kb.Rules(k2)); got != 2 {
		t.Fatalf("k2 rules = %d", got)
	}
	if !kb.IsBase(PredRef{"b1", 2}) || kb.IsBase(k2) {
		t.Fatal("base classification broken")
	}
	// Undeclared predicate with no rules is treated as base.
	if !kb.IsBase(PredRef{"unknown", 1}) {
		t.Fatal("ruleless predicate should be base")
	}
}

func TestKBSOAs(t *testing.T) {
	kb, err := ParseProgram(`
		:- base(b/2).
		:- mutex(male/1, female/1).
		:- fd(b/2, [1] -> [2]).
		:- recursive(anc/2).
		p(X) :- b(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, f := PredRef{"male", 1}, PredRef{"female", 1}
	if !kb.MutuallyExclusive(m, f) || !kb.MutuallyExclusive(f, m) {
		t.Fatal("mutex symmetric lookup broken")
	}
	if kb.MutuallyExclusive(m, PredRef{"b", 2}) {
		t.Fatal("unrelated preds not mutex")
	}
	fds := kb.FDs(PredRef{"b", 2})
	if len(fds) != 1 || fds[0].From[0] != 0 || fds[0].To[0] != 1 {
		t.Fatalf("fd = %+v", fds)
	}
	// The recursive-structure assertion is checked and changes nothing.
	without, err := ParseProgram(`
		:- base(b/2).
		:- mutex(male/1, female/1).
		:- fd(b/2, [1] -> [2]).
		p(X) :- b(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if kb.Generation() != without.Generation() || kb.String() != without.String() {
		t.Fatalf("the recursive assertion changed the KB: generation %d, %d\n%s", kb.Generation(), without.Generation(), kb)
	}
}

func TestKBErrors(t *testing.T) {
	if _, err := ParseProgram("p(X)."); err == nil {
		t.Error("non-ground fact should be rejected")
	}
	if _, err := ParseProgram(":- base(p/1). p(a)."); err == nil {
		t.Error("rule for base relation should be rejected")
	}
	if _, err := ParseProgram(":- unknown(p/1)."); err == nil {
		t.Error("unknown directive should error")
	}
	if _, err := ParseProgram(":- recursive(anc)."); err == nil {
		t.Error("recursive assertion without an arity should error")
	}
	if _, err := ParseProgram("p(X :- q(X)."); err == nil {
		t.Error("syntax error should be reported")
	}
	if _, err := ParseProgram(`p(a) :- "unclosed.`); err == nil {
		t.Error("unterminated string should be reported")
	}
}

// A lexing failure the parser reaches is reported on its own line.
// Identifiers are ASCII: the error names the character, or the byte where the
// text is not UTF-8.
func TestProgramLexErrors(t *testing.T) {
	head := "p(X) :- q(X).\nq(1).\n"
	for _, c := range []struct{ src, err string }{
		{head + `q("oops).`, "line 3: unterminated string literal"},
		{head + "q(1e).", `line 3: bad number "1e"`},
		{head + "q(2) $ q(3).", `line 3: unexpected character "$"`},
		{head + "q(café).", `line 3: unexpected character "é"`},
		{head + "q(ñ).", `line 3: unexpected character "ñ"`},
		{head + "q(\xc3\xc3).", `line 3: unexpected character "\xc3"`},
	} {
		if _, err := ParseProgram(c.src); err == nil || err.Error() != c.err {
			t.Errorf("ParseProgram(%q) = %v, want %q", c.src, err, c.err)
		}
	}
}

// parseClause parses src as one whole clause (rule or fact), its period
// included.
func parseClause(src string) (Clause, error) {
	p := newParser(src)
	c, _, _, err := p.clause(nil, nil)
	if err == nil {
		err = p.expect(".")
	}
	if err = p.end(err, "clause"); err != nil {
		return Clause{}, err
	}
	return c, nil
}

func TestParseClauseRoundTrip(t *testing.T) {
	srcs := []string{
		"p(X, Y) :- q(X, Z), r(Z, Y).",
		"likes(tom, wine).",
		`path(X, Y) :- edge(X, Y), X != Y.`,
		"bound(X) :- val(X), X >= 10, X < 20.",
		`name(X, "Mr. X") :- person(X).`,
		"zero.",
	}
	for _, src := range srcs {
		c, err := parseClause(src)
		if err != nil {
			t.Fatalf("parseClause(%q): %v", src, err)
		}
		re, err := parseClause(c.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", c.String(), src, err)
		}
		if re.String() != c.String() {
			t.Errorf("round trip: %q -> %q", c.String(), re.String())
		}
	}
}

func TestParseAtomQueries(t *testing.T) {
	a, err := ParseAtom("k1(X, Y)?")
	if err != nil || a.Pred != "k1" || len(a.Args) != 2 {
		t.Fatalf("ParseAtom: %v %v", a, err)
	}
	if _, err := ParseAtom("k1(X,"); err == nil {
		t.Error("bad atom should error")
	}
	if _, err := ParseAtom("k1(X) extra"); err == nil {
		t.Error("trailing input should error")
	}
}

func TestKBString(t *testing.T) {
	src := `
		:- base(b/2).
		p(X) :- b(X, Y), Y > 3.
		:- mutex(m/1, f/1).
		:- fd(b/2, [1] -> [2]).
	`
	kb, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	out := kb.String()
	// The dump must itself re-parse (modulo base declarations, which String
	// does not emit because base-ness is implied by having no rules).
	if !strings.Contains(out, "p(X) :- b(X, Y), Y > 3.") {
		t.Errorf("missing rule in dump:\n%s", out)
	}
	if !strings.Contains(out, ":- mutex(m/1, f/1).") || !strings.Contains(out, "fd(b/2, [1] -> [2])") {
		t.Errorf("missing SOAs in dump:\n%s", out)
	}
}

func TestSubstEqualAndString(t *testing.T) {
	a := NewSubst()
	a.BindInPlace("X", CInt(1))
	a.BindInPlace("Y", V("Z"))
	b := NewSubst()
	b.BindInPlace("Y", V("Z"))
	b.BindInPlace("X", CInt(1))
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality broken")
	}
	if a.String() != "{X=1, Y=Z}" {
		t.Errorf("subst string = %q", a.String())
	}
	c := a.Clone()
	c.BindInPlace("W", CInt(2))
	if len(a) != 2 {
		t.Fatal("clone aliases original")
	}
}

// TestGenerationCountsChanges: every method that changes a KB moves its
// generation, and a rejected change does not.
func TestGenerationCountsChanges(t *testing.T) {
	kb := NewKB()
	p, b := PredRef{Name: "p", Arity: 1}, PredRef{Name: "b", Arity: 1}
	clause := Clause{Head: A("p", V("X")), Body: []Atom{A("b", V("X"))}}
	for _, step := range []struct {
		name   string
		change func() error
		moves  bool
	}{
		{"DeclareBase", func() error { return kb.DeclareBase(b) }, true},
		{"AddClause", func() error { return kb.AddClause(clause) }, true},
		{"AddClause on a base relation", func() error { return kb.AddClause(Clause{Head: A("b", CInt(1))}) }, false},
		{"DeclareBase on a derived predicate", func() error { return kb.DeclareBase(p) }, false},
		{"AddMutex", func() error { kb.AddMutex(p, b); return nil }, true},
		{"AddFD", func() error { kb.AddFD(FDSOA{Pred: b, From: []int{0}, To: []int{0}}); return nil }, true},
	} {
		gen := kb.Generation()
		err := step.change()
		if moved := kb.Generation() != gen; moved != step.moves || (err == nil) != step.moves {
			t.Errorf("%s: error %v, generation %d -> %d", step.name, err, gen, kb.Generation())
		}
	}
}
