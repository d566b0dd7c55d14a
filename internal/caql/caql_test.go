package caql

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/relation"
)

func fixtureSource() MapSource {
	b1 := relation.New("b1", relation.NewSchema(at("x", relation.KindString), at("y", relation.KindInt)))
	b1.MustAppend(relation.Tuple{relation.Str("c1"), relation.Int(1)})
	b1.MustAppend(relation.Tuple{relation.Str("c1"), relation.Int(2)})
	b1.MustAppend(relation.Tuple{relation.Str("d"), relation.Int(3)})
	b2 := relation.New("b2", relation.NewSchema(at("x", relation.KindInt), at("y", relation.KindInt)))
	b2.MustAppend(relation.Tuple{relation.Int(1), relation.Int(10)})
	b2.MustAppend(relation.Tuple{relation.Int(2), relation.Int(20)})
	b2.MustAppend(relation.Tuple{relation.Int(3), relation.Int(10)})
	b3 := relation.New("b3", relation.NewSchema(at("x", relation.KindInt), at("y", relation.KindString), at("z", relation.KindInt)))
	b3.MustAppend(relation.Tuple{relation.Int(10), relation.Str("c2"), relation.Int(100)})
	b3.MustAppend(relation.Tuple{relation.Int(10), relation.Str("zz"), relation.Int(200)})
	b3.MustAppend(relation.Tuple{relation.Int(20), relation.Str("c2"), relation.Int(300)})
	return MapSource{"b1": b1, "b2": b2, "b3": b3}
}

func TestParseAndString(t *testing.T) {
	q, err := Parse(`d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "d2" || len(q.Rels) != 2 || len(q.Cmps) != 0 {
		t.Fatalf("parse shape wrong: %v", q)
	}
	// Re-parse of String.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
}

func TestParseCommaSeparator(t *testing.T) {
	q, err := Parse("d(X) :- b2(X, Z), Z > 5.")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 1 || len(q.Cmps) != 1 {
		t.Fatalf("comma-separated parse wrong: %v", q)
	}
}

func TestValidateSafety(t *testing.T) {
	if _, err := Parse("d(X, W) :- b2(X, Z)"); err == nil {
		t.Error("unbound head variable should be rejected")
	}
	if _, err := Parse("d(X) :- b2(X, Z) & W < 3"); err == nil {
		t.Error("unbound comparison variable should be rejected")
	}
	if _, err := Parse("d(X) :- X < 3"); err == nil {
		t.Error("no relational atoms should be rejected")
	}
}

func TestEvalSimpleSelect(t *testing.T) {
	src := fixtureSource()
	q := MustParse(`d1(Y) :- b1("c1", Y)`)
	out, err := Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("d1 rows = %d, want 2", out.Len())
	}
}

func TestEvalJoin(t *testing.T) {
	src := fixtureSource()
	// d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y): joins b2.y = b3.x, selects y="c2".
	q := MustParse(`d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y)`)
	out, err := Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	// b2: (1,10),(2,20),(3,10); b3 with c2: (10,100),(20,300)
	// -> X=1 Y=100; X=2 Y=300; X=3 Y=100
	want := map[string]bool{"1|100": true, "2|300": true, "3|100": true}
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3: %v", out.Len(), out)
	}
	for _, tu := range out.Tuples() {
		k := tu[0].String() + "|" + tu[1].String()
		if !want[k] {
			t.Errorf("unexpected row %v", tu)
		}
	}
}

func TestEvalComparisons(t *testing.T) {
	src := fixtureSource()
	q := MustParse("d(X, Z) :- b2(X, Z) & Z >= 10 & Z < 20 & X != 3")
	out, err := Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuple(0)[0].AsInt() != 1 {
		t.Fatalf("comparison eval wrong: %v", out)
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	src := MapSource{"e": relation.FromTuples("e",
		relation.NewSchema(at("a", relation.KindInt), at("b", relation.KindInt)),
		[]relation.Tuple{
			{relation.Int(1), relation.Int(1)},
			{relation.Int(1), relation.Int(2)},
			{relation.Int(3), relation.Int(3)},
		})}
	q := MustParse("loop(X) :- e(X, X)")
	out, err := Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("repeated-var rows = %d, want 2", out.Len())
	}
}

func TestEvalConstHead(t *testing.T) {
	src := fixtureSource()
	q := MustParse(`d(X, 42) :- b2(X, Z) & Z = 10`)
	out, err := Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("rows = %d", out.Len())
	}
	for _, tu := range out.Tuples() {
		if tu[1].AsInt() != 42 {
			t.Fatalf("constant head col wrong: %v", tu)
		}
	}
}

func TestEvalLazyIsLazy(t *testing.T) {
	// A join whose left side streams: consuming one output tuple must not
	// drain the whole probe side.
	n := 0
	gen := relation.IteratorFunc(func() (relation.Tuple, bool) {
		n++
		if n > 1000 {
			return nil, false
		}
		return relation.Tuple{relation.Int(int64(n)), relation.Int(int64(n % 5))}, true
	})
	left := relation.Drain("b2", relation.NewSchema(at("x", relation.KindInt), at("y", relation.KindInt)), gen)
	src := fixtureSource()
	src["big"] = left
	q := MustParse("d(X) :- big(X, Y) & Y = 1")
	it, _, err := EvalLazy(q, src)
	if err != nil {
		t.Fatal(err)
	}
	got := relation.Take(it, 2)
	if len(got) != 2 {
		t.Fatalf("lazy eval got %d", len(got))
	}
}

// TestRunProgramUnion: a program of two clauses over base relations is their
// union, with set semantics: each clause is asked once, and 10 answers both.
func TestRunProgramUnion(t *testing.T) {
	src := fixtureSource()
	prog, err := ParseProgram(`
		d(X) :- b2(X, Z) & Z = 10.
		d(X) :- b2(X, Z) & Z = 20.
	`)
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	out, produced, err := RunProgram(context.Background(), prog, func(q *Query) (*relation.Relation, error) {
		asked++
		return Eval(q, src)
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || asked != 2 || produced != 0 {
		t.Fatalf("union rows = %d from %d asks and %d body tuples, want 3 from 2 and 0", out.Len(), asked, produced)
	}
}

// TestRunProgramRuleReadsBase: a rule, a clause that reads a predicate the
// program defines, may not read a base relation; the error names it, and
// nothing is asked.
func TestRunProgramRuleReadsBase(t *testing.T) {
	prog, err := ParseProgram(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- tc(X, Z) & e(Z, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	_, _, err = RunProgram(context.Background(), prog, func(*Query) (*relation.Relation, error) {
		asked++
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "base relation e/2") || asked != 0 {
		t.Fatalf("got %v after %d asks, want an error naming e/2 before any", err, asked)
	}
}

func TestCanonicalRenamingInvariance(t *testing.T) {
	a := MustParse("d(X, Y) :- b2(X, Z) & b3(Z, Y, W) & X < 3")
	b := MustParse("d(P, Q) :- b2(P, R) & b3(R, Q, S) & P < 3")
	c := MustParse("d(X, Y) :- b2(X, Z) & b3(Z, Y, W) & X < 4")
	if a.Canonical() != b.Canonical() {
		t.Error("alpha-equivalent queries must share canonical key")
	}
	if a.Canonical() == c.Canonical() {
		t.Error("different constants must differ in canonical key")
	}
}

// TestCanonicalKeepsConstantKinds: an integral float and the int it equals
// are constants of two kinds, and the queries that hold them get two keys,
// as the goal shapes that hold them do.
func TestCanonicalKeepsConstantKinds(t *testing.T) {
	f := MustParse("q(P, W) :- part(P, C, W) & W >= 50.0")
	i := MustParse("q(P, W) :- part(P, C, W) & W >= 50")
	if f.Canonical() == i.Canonical() {
		t.Errorf("W >= 50.0 and W >= 50 share the canonical key %s", f.Canonical())
	}
	if got := f.String(); !strings.Contains(got, "W >= 50.0") {
		t.Errorf("%s prints the float 50.0 as an int", got)
	}
}

func TestInstantiateAndHeadBindings(t *testing.T) {
	q := MustParse("d(X, Y) :- b2(X, Z) & b3(Z, Y, W)")
	inst := q.Instantiate(map[string]relation.Value{"Y": relation.Int(7)})
	consts := 0
	for _, tm := range inst.Head.Args {
		if tm.IsConst() {
			consts++
		}
	}
	if consts != 1 || !inst.Head.Args[1].IsConst() || !inst.Head.Args[1].Const.Equal(relation.Int(7)) {
		t.Fatalf("instantiate/head bindings wrong: %v", inst)
	}
	// Body occurrence of Y must be bound too.
	found := false
	for _, a := range inst.Rels {
		for _, tm := range a.Args {
			if tm.IsConst() && tm.Const.Equal(relation.Int(7)) {
				found = true
			}
		}
	}
	if !found {
		t.Error("instantiation did not reach the body")
	}
}

func TestGeneralize(t *testing.T) {
	src := fixtureSource()
	inst := MustParse(`d2(X, 100) :- b2(X, Z) & b3(Z, "c2", 100)`)
	gen := Generalize(inst, []int{1})
	if logicConstCount(gen) >= logicConstCount(inst) {
		t.Fatal("generalize should remove constants")
	}
	// Soundness: selecting the generalized result on the original constant
	// equals the original result.
	orig, err := Eval(inst, src)
	if err != nil {
		t.Fatal(err)
	}
	genOut, err := Eval(gen, src)
	if err != nil {
		t.Fatal(err)
	}
	sel := relation.Drain("sel", genOut.Schema(), relation.Select(genOut.Iter(), []relation.Cond{relation.ColConst(1, relation.OpEq, relation.Int(100))}))
	if !sel.EqualAsSet(orig) {
		t.Fatalf("generalization unsound:\norig %v\nsel %v", orig, sel)
	}
	if genOut.Len() < orig.Len() {
		t.Fatal("generalized result should be at least as large")
	}
}

func logicConstCount(q *Query) int {
	n := 0
	for _, a := range append(append([]logic.Atom{q.Head}, q.Rels...), q.Cmps...) {
		for _, t := range a.Args {
			if t.IsConst() {
				n++
			}
		}
	}
	return n
}

func TestOutputSchema(t *testing.T) {
	src := fixtureSource()
	q := MustParse(`d(Y, X, 5) :- b2(X, Z) & b3(Z, Y, W)`)
	sch, err := q.OutputSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Arity() != 3 {
		t.Fatalf("schema arity = %d", sch.Arity())
	}
	if sch.Attr(0).Kind != relation.KindString || sch.Attr(1).Kind != relation.KindInt || sch.Attr(2).Kind != relation.KindInt {
		t.Fatalf("schema kinds wrong: %v", sch)
	}
	// Eval's derived schema must agree.
	out, err := Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schema().Equal(sch) {
		t.Fatalf("eval schema %v != OutputSchema %v", out.Schema(), sch)
	}
}

func TestUnknownRelationError(t *testing.T) {
	src := fixtureSource()
	q := MustParse("d(X) :- nosuch(X)")
	if _, err := Eval(q, src); err == nil {
		t.Error("unknown relation should error")
	}
	if _, err := Eval(MustParse("d(X) :- b2(X, Y)"), src); err != nil {
		t.Errorf("a known relation should evaluate: %v", err)
	}
}

// Differential property test: EvalLazy (via Eval) against a brute-force
// substitution-based evaluator on random queries and databases.
func TestEvalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		// Random database of two binary relations over a small domain.
		src := MapSource{}
		for _, name := range []string{"r", "s"} {
			rel := relation.New(name, relation.NewSchema(at("a", relation.KindInt), at("b", relation.KindInt)))
			for i := 0; i < rng.Intn(12); i++ {
				rel.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(4))), relation.Int(int64(rng.Intn(4)))})
			}
			src[name] = rel
		}
		// Random conjunctive query with up to 3 atoms over vars {X,Y,Z} and
		// small constants.
		varsPool := []string{"X", "Y", "Z"}
		term := func() logic.Term {
			if rng.Intn(4) == 0 {
				return logic.CInt(int64(rng.Intn(4)))
			}
			return logic.V(varsPool[rng.Intn(len(varsPool))])
		}
		nAtoms := 1 + rng.Intn(3)
		var body []logic.Atom
		for i := 0; i < nAtoms; i++ {
			name := "r"
			if rng.Intn(2) == 0 {
				name = "s"
			}
			body = append(body, logic.A(name, term(), term()))
		}
		// Head: all vars that occur in the body.
		varSet := logic.VarsOf(body)
		var head []logic.Term
		for _, v := range varsPool {
			if varSet[v] {
				head = append(head, logic.V(v))
			}
		}
		if len(head) == 0 {
			continue
		}
		q := NewQuery(logic.A("q", head...), body)
		if err := q.Validate(); err != nil {
			continue
		}

		got, err := Eval(q, src)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(q, src)
		gotSet := relation.DistinctRel(got)
		if !gotSet.EqualAsSet(want) {
			t.Fatalf("trial %d: Eval disagrees with brute force\nquery: %s\ngot: %v\nwant: %v",
				trial, q, gotSet, want)
		}
	}
}

// bruteForce enumerates all substitutions over the active domain and checks
// each against every atom.
func bruteForce(q *Query, src MapSource) *relation.Relation {
	// Active domain.
	domSet := map[string]relation.Value{}
	for _, rel := range src {
		for _, tu := range rel.Tuples() {
			for _, v := range tu {
				domSet[v.Key()] = v
			}
		}
	}
	var dom []relation.Value
	for _, v := range domSet {
		dom = append(dom, v)
	}
	var varNames []string
	for v := range q.VarSet() {
		varNames = append(varNames, v)
	}
	attrs := make([]relation.Attr, len(q.Head.Args))
	for i := range attrs {
		attrs[i] = relation.Attr{Name: string(rune('a' + i)), Kind: relation.KindInt}
	}
	out := relation.New("bf", relation.NewSchema(attrs...))

	assign := make(map[string]relation.Value)
	var try func(i int)
	try = func(i int) {
		if i == len(varNames) {
			s := logic.NewSubst()
			for v, val := range assign {
				s.BindInPlace(v, logic.C(val))
			}
			for _, a := range q.Rels {
				g := s.ApplyAtom(a)
				found := false
				rel := src[g.Pred]
				for _, tu := range rel.Tuples() {
					match := true
					for j, tm := range g.Args {
						if !tm.Const.Equal(tu[j]) {
							match = false
							break
						}
					}
					if match {
						found = true
						break
					}
				}
				if !found {
					return
				}
			}
			for _, c := range q.Cmps {
				g := s.ApplyAtom(c)
				if !g.CmpOp().Eval(g.Args[0].Const, g.Args[1].Const) {
					return
				}
			}
			row := make(relation.Tuple, len(q.Head.Args))
			for j, tm := range q.Head.Args {
				if tm.IsVar() {
					row[j] = assign[tm.Var]
				} else {
					row[j] = tm.Const
				}
			}
			out.MustAppend(row)
			return
		}
		for _, v := range dom {
			assign[varNames[i]] = v
			try(i + 1)
		}
		delete(assign, varNames[i])
	}
	try(0)
	return relation.DistinctRel(out)
}

// ParseProgram reads clause after clause from one parser, so a period ends a
// clause only where the lexer sees punctuation: not in a comment, a quoted
// string or a decimal. Identifiers are ASCII, and a lexing failure the parser
// reaches is reported on its own line.
func TestParseUnionClauses(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      []string // the queries, printed; nil when err is set
		err       string
	}{
		{"period in a comment", "d(X) :- b(X, Y). d(X) :- c(X, Y). % done.",
			[]string{"d(X) :- b(X, Y).", "d(X) :- c(X, Y)."}, ""},
		{"period in a shell comment", "d(X) :- b(X, Y). # b. c.\nd(X) :- c(X, Y)",
			[]string{"d(X) :- b(X, Y).", "d(X) :- c(X, Y)."}, ""},
		{"period in a string", `a(X) :- b(X). a(Y) :- d(Y, "dot . inside").`,
			[]string{"a(X) :- b(X).", `a(Y) :- d(Y, "dot . inside").`}, ""},
		{"decimal points", "a(X) :- b(X, 3.5). a(X) :- b(X, Y) & Y < 2.5",
			[]string{"a(X) :- b(X, 3.5).", "a(X) :- b(X, Y) & Y < 2.5."}, ""},
		{"non-ASCII in a string", `a(X) :- b(X, "café ñ").`, []string{`a(X) :- b(X, "café ñ").`}, ""},
		{"missing period between clauses", "a(X) :- b(X) a(X) :- c(X)", nil, `line 1: expected ".", found "a"`},
		{"non-ASCII identifier", "a(X) :- b(X, café).", nil, `line 1: unexpected character "é"`},
		{"non-ASCII identifier start", "a(X) :- b(X, ñ).", nil, `line 1: unexpected character "ñ"`},
		{"invalid UTF-8", "a(X) :- b(X, \xc3\xc3).", nil, `line 1: unexpected character "\xc3"`},
		{"unterminated string on line 3", "a(X) :- b(X).\na(X) :- c(X).\na(X) :- d(X, \"oops).", nil,
			"line 3: unterminated string literal"},
		{"bad number on line 3", "a(X) :- b(X).\na(X) :- c(X).\na(X) :- d(X, 1e).", nil, `line 3: bad number "1e"`},
		{"stray character on line 3", "a(X) :- b(X).\na(X) :- c(X).\na(X) :- d(X) $ e(X).", nil,
			`line 3: unexpected character "$"`},
	} {
		prog, err := ParseProgram(c.src)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: ParseProgram(%q) = %v, want an error with %q", c.name, c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: ParseProgram(%q): %v", c.name, c.src, err)
			continue
		}
		var got []string
		for _, q := range prog {
			got = append(got, q.String())
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: ParseProgram(%q) = %q, want %q", c.name, c.src, got, c.want)
		}
	}
}

// TestUnionValidate: a program, a union included, that defines one
// predicate with two arities is an error, and so is an empty text.
func TestUnionValidate(t *testing.T) {
	prog, err := ParseProgram("d(X) :- b2(X, Y). d(X, Y) :- b2(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunProgram(context.Background(), prog, nil); err == nil {
		t.Error("a predicate of two arities should error")
	}
	if _, err := ParseProgram(""); err == nil {
		t.Error("an empty program should error")
	}
}

// at builds a keyed Attr literal (keeps go vet composites happy in tests).
func at(name string, kind relation.Kind) relation.Attr {
	return relation.Attr{Name: name, Kind: kind}
}

// Alpha-invariance of Canonical under systematic renaming, property-style.
func TestCanonicalAlphaInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	names := []string{"X", "Y", "Z", "W"}
	fresh := []string{"P1", "P2", "P3", "P4"}
	for trial := 0; trial < 200; trial++ {
		var body []logic.Atom
		for i := 0; i < 1+rng.Intn(3); i++ {
			args := make([]logic.Term, 2)
			for j := range args {
				if rng.Intn(4) == 0 {
					args[j] = logic.CInt(int64(rng.Intn(3)))
				} else {
					args[j] = logic.V(names[rng.Intn(len(names))])
				}
			}
			body = append(body, logic.A("r", args...))
		}
		varSet := logic.VarsOf(body)
		var head []logic.Term
		for _, v := range names {
			if varSet[v] {
				head = append(head, logic.V(v))
			}
		}
		if len(head) == 0 {
			continue
		}
		q := NewQuery(logic.A("q", head...), body)
		// Systematic renaming.
		ren := logic.NewSubst()
		for i, v := range names {
			ren.BindInPlace(v, logic.V(fresh[i]))
		}
		q2 := q.ApplySubst(ren)
		q2.Head.Pred = "zz" // head predicate must not matter either
		if q.Canonical() != q2.Canonical() {
			t.Fatalf("alpha variance: %s vs %s", q, q2)
		}
	}
}

// FuzzParse: any text parses to an error, or to a query whose String() parses
// back to the same String(). Never a panic. The query also equals NewQuery
// over a logic.ClauseReader's clause of the same text, and it owns its block:
// appending to any of its slices changes no other atom, and scribbling over
// it leaves a second parse of the text alone.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y)`,
		"d(X) :- b2(X, Z), Z > 5.",
		"q(S, P, Q) :- shipment(S, P, Q) & S >= 3 & S < 9 & Q >= 300",
		`q(P, Q, C, W) :- shipment(17, P, Q) & part(P, C, W) & W >= 50.0`,
		`d(X, 42) :- b2(X, Z) & Z = 10 & X != "it's \"q\""`,
		"d(X) :- b(X, Y) & Y =< 2.5 & Y > -1e-05 & Y <> 7",
		"d(X, Y) :- b(X, Y) & X = true & Y = null",
		"loop(X) :- e(X, X)",
		"d(X) :- nosuch(X)",
		"d(X, W) :- b2(X, Z)",
		"d(X) :- b(X) & 3 < 4",
		"a:-a(10000000000000000000)", // prints 1e+19, which the lexer once cut at its sign
		// Comparisons first: the partition into Rels and Cmps is stable.
		"d(X) :- X > 1 & X < 9 & b(X, Y) & Y != 2 & c(Y) & Y < X",
		// Overflows the parse block's atoms and terms.
		"o(A, B, C, D) :- r(A, B, C, D) & s(D, C, B, A) & t(A) & A < 1 & B < 2 & C < 3",
		"d(X) :- b(X, Y) % a comment. with periods.\n# and another.",
		`d(X) :- b(X, "café ñ") & X != "\u00e9"`,
		"d(X) :- b(X, café)",
		"d(X, 2.5) :- b(X, Y) & Y >= 1.5e3 & Y < 1E+4",
		"a:-a(Y)&0>-0e0000", // −0.0 once printed as -0 and read back as an int
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		r := logic.NewClauseReader(src) // the final period may be left off
		c, err := r.Next(nil, nil)
		if err != nil || r.More() {
			t.Fatalf("Parse accepts %q, a ClauseReader does not read it as one clause: %v", src, err)
		}
		if want := NewQuery(c.Head, c.Body); !sameQuery(q, want) {
			t.Fatalf("Parse(%q) = %s, NewQuery over a ClauseReader's clause = %s", src, q, want)
		}
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse back: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q printed as %q, which prints back as %q", src, text, got)
		}
		scribble := logic.CStr("scribble")
		for _, a := range queryAtoms(q) {
			_ = append(a.Args, scribble)
			if got := q.String(); got != text {
				t.Fatalf("appending to the arguments of %s turned %q into %q", a, text, got)
			}
		}
		_ = append(q.Rels, logic.A("scribble", scribble))
		_ = append(q.Cmps, logic.A("scribble", scribble))
		if got := q.String(); got != text {
			t.Fatalf("appending to Rels or Cmps turned %q into %q", text, got)
		}
		second, _ := Parse(src)
		for _, a := range queryAtoms(q) {
			a.Pred = "scribble"
			for i := range a.Args {
				a.Args[i] = scribble
			}
		}
		if got := second.String(); got != text {
			t.Fatalf("scribbling over the first parse of %q turned the second into %q", src, got)
		}
	})
}

// queryAtoms points at the head, relational and comparison atoms of q.
func queryAtoms(q *Query) []*logic.Atom {
	out := []*logic.Atom{&q.Head}
	for i := range q.Rels {
		out = append(out, &q.Rels[i])
	}
	for i := range q.Cmps {
		out = append(out, &q.Cmps[i])
	}
	return out
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean number of bytes f
// allocates over runs calls, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func sameQuery(a, b *Query) bool {
	return a.Head.Equal(b.Head) && slices.EqualFunc(a.Rels, b.Rels, logic.Atom.Equal) &&
		slices.EqualFunc(a.Cmps, b.Cmps, logic.Atom.Equal)
}

// TestParseAllocs holds a parse to one allocation, its block, for every query
// form of the caql_cold and write_mix benchmarks, and that block to the
// 640 B size class, so a field added to it cannot move every parse to the
// next class unseen; a query that overflows the block's atoms or terms takes
// one allocation more for each. ParseAtom takes one, the atom's arguments.
func TestParseAllocs(t *testing.T) {
	const blockBytes = 640
	for _, c := range []struct {
		src  string
		want float64
	}{
		// caql_cold: point, range, join, and a repeat narrowed by a comparison.
		{"q0(P, Q) :- shipment(17, P, Q)", 1},
		{"q1(C, W) :- part(17, C, W)", 1},
		{"q4(S, P, Q) :- shipment(S, P, Q) & S >= 10 & S < 15 & Q >= 300", 1},
		{"q6(P, Q, C, W) :- shipment(17, P, Q) & part(P, C, W)", 1},
		{"n8(P, Q) :- shipment(17, P, Q) & Q >= 250", 1},
		{"n8(C, W) :- part(17, C, W) & W >= 50.0", 1},
		{"n8(S, P, Q) :- shipment(S, P, Q) & S >= 10 & S < 15 & Q >= 460", 1},
		{"n8(P, Q, C, W) :- shipment(17, P, Q) & part(P, C, W) & W >= 50.0", 1},
		// write_mix's two views.
		{"va(S, N, C) :- supplier(S, N, C) & S >= 10 & S < 60", 1},
		{"vb(P, C, W) :- part(P, C, W) & P >= 20 & P < 120", 1},
		// Overflows: the terms; the atoms; both.
		{"o(A, B, C, D) :- r(A, B, C, D) & s(D, C, B, A) & A < 1", 2},
		{"o(A) :- r(A) & r(A) & r(A) & r(A) & r(A)", 2},
		{"o(A, B, C, D) :- r(A, B, C, D) & s(D, C, B, A) & A < 1 & B < 2 & C < 3", 3},
	} {
		if got := testing.AllocsPerRun(100, func() { MustParse(c.src) }); got > c.want {
			t.Errorf("Parse(%q): %.0f allocations, want at most %.0f", c.src, got, c.want)
		}
		if got := testing.AllocsPerRun(100, func() { ParseProgram(c.src) }); got > c.want {
			t.Errorf("ParseProgram(%q): %.0f allocations, want at most %.0f", c.src, got, c.want)
		}
		if c.want > 1 {
			continue
		}
		if got := bytesPerRun(100, func() { MustParse(c.src) }); got > blockBytes {
			t.Errorf("Parse(%q): %d B a parse, want at most %d", c.src, got, blockBytes)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := logic.ParseAtom("brother(X, p001)"); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("ParseAtom: %.0f allocations, want at most 1", got)
	}
}
