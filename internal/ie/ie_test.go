package ie

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// mapDS is a minimal bridge.DataSource over in-memory extensions: every
// query is evaluated directly (no caching, no remote). It isolates IE tests
// from the CMS. It records the CAQL queries and texts asked of it, counts the
// sessions ended and the streams closed, and with
// cutAfter > 0 every stream stops after that many tuples with errCut; with
// limit > 0 a query asked after that many fails with errLimit.
type mapDS struct {
	src      caql.MapSource
	queries  []string
	texts    []string
	cutAfter int
	limit    int
	ends     int
	closes   int
}

var (
	errCut   = errors.New("stream cut mid-transfer")
	errLimit = errors.New("query limit reached")
)

// mapIter is a mapDS stream.
type mapIter struct {
	it  relation.Iterator
	ds  *mapDS
	n   int
	err error
}

func (m *mapIter) Next() (relation.Tuple, bool) {
	if m.ds.cutAfter > 0 && m.n == m.ds.cutAfter {
		m.err = errCut
		return nil, false
	}
	m.n++
	return m.it.Next()
}

func (m *mapIter) Err() error { return m.err }

func (m *mapIter) Close() error {
	m.ds.closes++
	return nil
}

func (m *mapDS) BeginSession(adv *advice.Advice) bridge.Session { return &mapSession{ds: m} }

func (m *mapDS) RelationSchema(name string, arity int) (*relation.Schema, error) {
	return m.src.RelationSchema(name, arity)
}

func (m *mapDS) RelationStats(name string) (remotedb.TableStats, error) {
	r, ok := m.src[name]
	if !ok {
		return remotedb.TableStats{}, fmt.Errorf("no relation %s", name)
	}
	st := remotedb.TableStats{Rows: r.Len(), Distinct: make([]int, r.Schema().Arity())}
	for c := 0; c < r.Schema().Arity(); c++ {
		seen := map[string]bool{}
		for _, tu := range r.Tuples() {
			seen[tu[c].Key()] = true
		}
		st.Distinct[c] = len(seen)
	}
	return st, nil
}

func (m *mapDS) Stats() bridge.SourceStats {
	return bridge.SourceStats{Queries: int64(len(m.queries))}
}

type mapSession struct{ ds *mapDS }

func (s *mapSession) Query(q *caql.Query) (*bridge.Stream, error) {
	if s.ds.limit > 0 && len(s.ds.queries) >= s.ds.limit {
		return nil, errLimit
	}
	s.ds.queries = append(s.ds.queries, q.String())
	it, schema, err := caql.EvalLazy(q, s.ds.src)
	if err != nil {
		return nil, err
	}
	return bridge.NewStream(schema, &mapIter{it: it, ds: s.ds}, true), nil
}

func (s *mapSession) QueryCtx(ctx context.Context, q *caql.Query) (*bridge.Stream, error) {
	return s.Query(q)
}

func (s *mapSession) QueryText(src string) (*bridge.Stream, error) {
	return s.QueryTextCtx(context.Background(), src)
}

func (s *mapSession) QueryTextCtx(ctx context.Context, src string) (*bridge.Stream, error) {
	s.ds.texts = append(s.ds.texts, src)
	return queryText(ctx, s, src)
}

// queryText is a test session's door: a text of one clause is a query, and a
// text of several a program, which runs on caql.RunProgram as the CMS's
// session runs it, its queries asked through s.
func queryText(ctx context.Context, s bridge.Session, src string) (*bridge.Stream, error) {
	prog, err := caql.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(prog) == 1 {
		return s.QueryCtx(ctx, &prog[0])
	}
	ans, _, err := caql.RunProgram(ctx, prog, func(q *caql.Query) (*relation.Relation, error) {
		stream, err := s.QueryCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		return stream.DrainErr(q.Name())
	})
	if err != nil {
		return nil, err
	}
	return bridge.NewEagerStream(ans), nil
}

func (s *mapSession) End() { s.ds.ends++ }

// example1KB is the paper's Example 1 (Section 4.2.2).
const example1KB = `
	:- base(b1/2).
	:- base(b2/2).
	:- base(b3/3).
	k1(X, Y) :- b1(c1, Y), k2(X, Y).
	k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).
	k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).
`

func example1Data(rng *rand.Rand, rows int) caql.MapSource {
	strs := []string{"c1", "c2", "c3", "d"}
	b1 := relation.New("b1", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindString},
		relation.Attr{Name: "y", Kind: relation.KindInt}))
	for i := 0; i < rows; i++ {
		b1.MustAppend(relation.Tuple{relation.Str(strs[rng.Intn(len(strs))]), relation.Int(int64(rng.Intn(6)))})
	}
	b2 := relation.New("b2", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindInt},
		relation.Attr{Name: "y", Kind: relation.KindInt}))
	for i := 0; i < rows; i++ {
		b2.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(6))), relation.Int(int64(rng.Intn(6)))})
	}
	b3 := relation.New("b3", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindInt},
		relation.Attr{Name: "y", Kind: relation.KindString},
		relation.Attr{Name: "z", Kind: relation.KindInt}))
	for i := 0; i < rows*2; i++ {
		b3.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(6))), relation.Str(strs[rng.Intn(len(strs))]), relation.Int(int64(rng.Intn(6)))})
	}
	return caql.MapSource{"b1": b1, "b2": b2, "b3": b3}
}

func mustKB(t *testing.T, src string) *logic.KB {
	t.Helper()
	kb, err := logic.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

// TestExample1Advice reproduces the paper's Example 1 advice exactly: three
// view specifications and the path expression
// (d1(Y^), (d2(X^, Y?), d3(X^, Y?))<0,|Y|>)<1,1>.
func TestExample1Advice(t *testing.T) {
	kb := mustKB(t, example1KB)
	ds := &mapDS{src: example1Data(rand.New(rand.NewSource(1)), 10)}
	eng := New(kb, ds, Options{
		Strategy:       StrategyConjunction,
		Advice:         true,
		PathExpression: true,
	})
	adv, err := eng.Advice(logic.A("k1", logic.V("X"), logic.V("Y")))
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Views) != 3 {
		t.Fatalf("views = %d, want 3:\n%s", len(adv.Views), adv)
	}
	d1, d2, d3 := adv.Views[0], adv.Views[1], adv.Views[2]
	if got := d1.String(); got != `d1(Y^) :- b1(c1, Y) [r1].` {
		t.Errorf("d1 = %q", got)
	}
	if got := d2.String(); got != `d2(X^, Y?) :- b2(X, Z) & b3(Z, c2, Y) [r1].` {
		t.Errorf("d2 = %q", got)
	}
	if got := d3.String(); got != `d3(X^, Y?) :- b3(X, c3, Z) & b1(Z, Y) [r2].` {
		t.Errorf("d3 = %q", got)
	}
	if adv.Path == nil {
		t.Fatal("no path expression")
	}
	if got := adv.Path.String(); got != "(d1(Y^), (d2(X^, Y?), d3(X^, Y?))<0,|Y|>)<1,1>" {
		t.Errorf("path = %q", got)
	}
	if len(adv.BaseRels) != 3 {
		t.Errorf("base rels = %v", adv.BaseRels)
	}
}

// TestExample2Advice reproduces the paper's Example 2: guarded alternatives
// become an alternation, mutually exclusive guards give selection term 1.
func TestExample2Advice(t *testing.T) {
	kb := mustKB(t, `
		:- base(b1/2).
		:- base(b2/2).
		:- base(b3/3).
		:- mutex(k3/1, k4/1).
		k1(X, Y) :- b1(c1, Y), k2(X, Y).
		k2(X, Y) :- k3(X), b2(X, Z), b3(Z, c2, Y).
		k2(X, Y) :- k4(X), b3(X, c3, Z), b1(Z, Y).
		k3(1).
		k3(2).
		k4(3).
	`)
	ds := &mapDS{src: example1Data(rand.New(rand.NewSource(2)), 10)}
	eng := New(kb, ds, Options{Strategy: StrategyConjunction, Advice: true, PathExpression: true, Reorder: false})
	adv, err := eng.Advice(logic.A("k1", logic.V("X"), logic.V("Y")))
	if err != nil {
		t.Fatal(err)
	}
	got := adv.Path.String()
	if !strings.Contains(got, "[") || !strings.Contains(got, "]^1") {
		t.Errorf("expected mutually exclusive alternation in path, got %q", got)
	}
	if !strings.Contains(got, "<0,|Y|>") {
		t.Errorf("expected |Y| repetition bound, got %q", got)
	}
}

func answersOf(t *testing.T, eng *Engine, goal string) *relation.Relation {
	t.Helper()
	sol, err := eng.AskText(goal)
	if err != nil {
		t.Fatal(err)
	}
	out := distinctTuples(t, sol)
	if sol.Err() != nil {
		t.Fatalf("ask %s: %v", goal, sol.Err())
	}
	return out
}

// TestStrategiesAgreeExample1 runs all three strategies on Example 1 and
// checks they produce the same solution set as direct bottom-up evaluation.
func TestStrategiesAgreeExample1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kb := mustKB(t, example1KB)
	src := example1Data(rng, 15)
	want := bottomUpAnswers(t, kb, src, "k1(X, Y)?")
	for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction, StrategyCompiled} {
		ds := &mapDS{src: src}
		eng := New(kb, ds, Options{Strategy: strat, Advice: true, PathExpression: true, Reorder: true})
		got := answersOf(t, eng, "k1(X, Y)?")
		if !got.EqualAsSet(want) {
			t.Fatalf("strategy %s disagrees:\ngot %v\nwant %v", strat, got.Sort(), want.Sort())
		}
	}
}

func bottomUpAnswers(t *testing.T, kb *logic.KB, src caql.MapSource, goal string) *relation.Relation {
	t.Helper()
	g, err := logic.ParseAtom(goal)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := fixpoint(kb, src, g.Ref())
	if err != nil {
		t.Fatal(err)
	}
	return answerRel(g, derived[g.Ref()])
}

// Answers filters a derived extension by unification with the (possibly
// partially bound) goal, returning the answer substitutions projected onto
// the goal's variables.
func Answers(goal logic.Atom, ext *relation.Relation) []logic.Subst {
	var out []logic.Subst
	for _, tu := range ext.Tuples() {
		s := logic.NewSubst()
		ok := true
		for i, t := range goal.Args {
			switch {
			case t.IsConst():
				if !t.Const.Equal(tu[i]) {
					ok = false
				}
			default:
				bound := s.Walk(t)
				if bound.IsConst() {
					if !bound.Const.Equal(tu[i]) {
						ok = false
					}
				} else {
					s.BindInPlace(bound.Var, logic.C(tu[i]))
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// answerRel is the distinct answers to g over the derived extension ext, one
// column per variable of g in order of first occurrence.
func answerRel(g logic.Atom, ext *relation.Relation) *relation.Relation {
	var vars []string
	seen := map[string]bool{}
	for _, tm := range g.Args {
		if tm.IsVar() && !seen[tm.Var] {
			seen[tm.Var] = true
			vars = append(vars, tm.Var)
		}
	}
	attrs := make([]relation.Attr, len(vars))
	for i, v := range vars {
		attrs[i] = relation.Attr{Name: v, Kind: relation.KindNull}
	}
	out := relation.New("want", relation.NewSchema(attrs...))
	for _, s := range Answers(g, ext) {
		tu := make(relation.Tuple, len(vars))
		for i, v := range vars {
			tm := s.Walk(logic.V(v))
			if tm.IsConst() {
				tu[i] = tm.Const
			}
		}
		out.MustAppend(tu)
	}
	return relation.DistinctRel(out)
}

// TestRecursionAncestor asks anc in its left-linear, right-linear and
// non-linear forms, free and with its first argument bound, under every
// strategy, over a small tree and over a 200-edge chain: each strategy
// answers what naiveBottomUp derives, each answer once. The three forms
// define one relation, so the reference is derived once a dataset, from the
// left-linear form; FuzzFixpoint's seeds derive the chain's from the
// non-linear form too. The
// interpreted and conjunction strategies table every call; before they did,
// they pruned a call that was a variant of an open ancestor, which lost the
// answers of left-linear and non-linear recursion (1 of the chain's 200 to
// anc(0, Y)). Tabled, the interpreted strategy answers left-linear
// anc(0, Y) on the chain in at most n + 2 CAQL queries: e(0, Y), and
// e(Z, Y) once for each of the table's answers as its follower reads them.
func TestRecursionAncestor(t *testing.T) {
	tree := relation.New("e", relation.NewSchema(
		relation.Attr{Name: "p", Kind: relation.KindString},
		relation.Attr{Name: "c", Kind: relation.KindString}))
	for _, pc := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "e"}, {"e", "f"}} {
		tree.MustAppend(relation.Tuple{relation.Str(pc[0]), relation.Str(pc[1])})
	}
	const n = 200
	chain, _ := fixpointData(nil, 0, n)
	const program = ":- base(e/2).\nanc(X, Y) :- e(X, Y).\n"
	anc := logic.PredRef{Name: "anc", Arity: 2}
	for _, data := range []struct {
		name        string
		src         caql.MapSource
		root        logic.Term
		bound, free int
	}{
		{"tree", caql.MapSource{"e": tree}, logic.CStr("a"), 5, 9},
		{"chain", chain, logic.CInt(0), n, n * (n + 1) / 2},
	} {
		want, err := naiveBottomUp(mustKB(t, program+"anc(X, Y) :- anc(X, Z), e(Z, Y)."), data.src, []logic.PredRef{anc})
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct{ name, rec string }{
			{"left-linear", "anc(X, Y) :- anc(X, Z), e(Z, Y)."},
			{"right-linear", "anc(X, Y) :- e(X, Z), anc(Z, Y)."},
			{"non-linear", "anc(X, Y) :- anc(X, Z), anc(Z, Y)."},
		} {
			kb := mustKB(t, program+form.rec)
			for _, goal := range []struct {
				atom    logic.Atom
				answers int
			}{
				{logic.A("anc", data.root, logic.V("Y")), data.bound},
				{logic.A("anc", logic.V("X"), logic.V("Y")), data.free},
			} {
				wantAnswers := answerRel(goal.atom, want[anc])
				if wantAnswers.Len() != goal.answers {
					t.Fatalf("%s: the reference derives %d answers to %s, want %d", data.name, wantAnswers.Len(), goal.atom, goal.answers)
				}
				for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction, StrategyCompiled} {
					ds := &mapDS{src: data.src}
					sol, err := New(kb, ds, Options{Strategy: strat}).Ask(goal.atom)
					if err != nil {
						t.Fatal(err)
					}
					if got := distinctTuples(t, sol); sol.Err() != nil || !got.EqualAsSet(wantAnswers) {
						t.Errorf("%s %s %s, %s: %d answers (%v), want %d", data.name, form.name, goal.atom, strat, got.Len(), sol.Err(), goal.answers)
					}
					if data.name == "chain" && form.name == "left-linear" && goal.answers == n && strat == StrategyInterpreted && len(ds.queries) > n+2 {
						t.Errorf("chain left-linear %s, %s: %d CAQL queries, want at most %d", goal.atom, strat, len(ds.queries), n+2)
					}
				}
			}
		}
	}
}

// TestRecursionCyclicCompiled: every strategy, the compiled one and the two
// that table every call, answers right-linear reach over a cycle,
// 1 → 2 → 3 → 1, with 3 → 4 off it.
func TestRecursionCyclicCompiled(t *testing.T) {
	kb := mustKB(t, `
		:- base(edge/2).
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
	`)
	edge := relation.New("edge", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindInt}))
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}} {
		edge.MustAppend(relation.Tuple{relation.Int(e[0]), relation.Int(e[1])})
	}
	src := caql.MapSource{"edge": edge}
	for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction, StrategyCompiled} {
		got := answersOf(t, New(kb, &mapDS{src: src}, Options{Strategy: strat}), "reach(1, Y)?")
		// 1 reaches 2, 3, 1 and 4.
		if got.Len() != 4 {
			t.Errorf("strategy %s: reach(1, Y) = %v", strat, got.Sort())
		}
	}
}

// TestRandomProgramsDifferential: random non-recursive programs over random
// data; all strategies must agree with bottom-up evaluation.
func TestRandomProgramsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		kbSrc, goal := randomProgram(rng)
		kb := mustKB(t, kbSrc)
		src := randomData(rng)
		want := bottomUpAnswers(t, kb, src, goal)
		for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction, StrategyCompiled} {
			eng := New(kb, &mapDS{src: src}, Options{Strategy: strat, Reorder: trial%2 == 0, Advice: true, PathExpression: true})
			got := answersOf(t, eng, goal)
			if !got.EqualAsSet(want) {
				t.Fatalf("trial %d strategy %s disagrees on %s\nKB:\n%s\ngot %v\nwant %v",
					trial, strat, goal, kbSrc, got.Sort(), want.Sort())
			}
		}
	}
}

// randomProgram builds a small stratified non-recursive program.
func randomProgram(rng *rand.Rand) (string, string) {
	var b strings.Builder
	b.WriteString(":- base(r/2).\n:- base(s/2).\n")
	// Layer 1: p1, p2 defined over base.
	layer1 := []string{"p1", "p2"}
	for _, p := range layer1 {
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "%s(X, Y) :- r(X, Y).\n", p)
			case 1:
				fmt.Fprintf(&b, "%s(X, Y) :- r(X, Z), s(Z, Y).\n", p)
			default:
				fmt.Fprintf(&b, "%s(X, Y) :- s(X, Y), X != Y.\n", p)
			}
		}
	}
	// Layer 2: q over layer 1 and base.
	switch rng.Intn(3) {
	case 0:
		b.WriteString("q(X, Y) :- p1(X, Z), p2(Z, Y).\n")
	case 1:
		b.WriteString("q(X, Y) :- p1(X, Y), r(Y, W), W >= 0.\n")
	default:
		b.WriteString("q(X, Y) :- r(X, Z), p2(Z, Y).\n")
	}
	goals := []string{"q(X, Y)?", "q(1, Y)?", "q(X, 2)?"}
	return b.String(), goals[rng.Intn(len(goals))]
}

func randomData(rng *rand.Rand) caql.MapSource {
	src := caql.MapSource{}
	for _, name := range []string{"r", "s"} {
		rel := relation.New(name, relation.NewSchema(
			relation.Attr{Name: "a", Kind: relation.KindInt},
			relation.Attr{Name: "b", Kind: relation.KindInt}))
		for i := 0; i < 3+rng.Intn(15); i++ {
			rel.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(5))), relation.Int(int64(rng.Intn(5)))})
		}
		src[name] = rel
	}
	return src
}

// TestSolutionsLaziness: the interpreted strategy produces the first answer
// without exhausting the search, and Close releases it.
func TestSolutionsLaziness(t *testing.T) {
	kb := mustKB(t, example1KB)
	src := example1Data(rand.New(rand.NewSource(5)), 30)
	ds := &mapDS{src: src}
	eng := New(kb, ds, Options{Strategy: StrategyInterpreted})
	sol, err := eng.AskText("k1(X, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sol.Next(); !ok {
		sol.Close()
		t.Skip("no solutions with this data; adjust seed")
	}
	queriesAfterOne := len(ds.queries)
	sol.Close()
	// A full run issues more queries than stopping after one solution.
	ds2 := &mapDS{src: src}
	eng2 := New(kb, ds2, Options{Strategy: StrategyInterpreted})
	sol2, err := eng2.AskText("k1(X, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	all := sol2.All()
	if len(all) == 0 {
		t.Fatal("expected solutions")
	}
	if len(ds2.queries) < queriesAfterOne {
		t.Fatalf("full run issued fewer queries (%d) than single-solution run (%d)?", len(ds2.queries), queriesAfterOne)
	}
}

// TestAnswerSubstitutionIsTheAsks: under each strategy, Next writes every
// answer of an ask into one substitution, the ask's, which holds the answer
// Next returned last, and the answers it has held are the ask's answers,
// each once. The runner drops it when the ask ends. All hands out each
// answer in a substitution of its own.
func TestAnswerSubstitutionIsTheAsks(t *testing.T) {
	const n = 6
	kb := mustKB(t, `
		:- base(e/2).
		path(X, Y) :- e(X, Y).
		path(X, Y) :- e(X, Z), path(Z, Y).
	`)
	chain := make([][2]int64, n)
	for i := range chain {
		chain[i] = [2]int64{int64(i), int64(i + 1)}
	}
	src := caql.MapSource{"e": relationOfPairs("e", chain)}
	var want []string
	for y := 1; y <= n; y++ {
		want = append(want, fmt.Sprintf("{Y=%d}", y))
	}
	for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction, StrategyCompiled} {
		eng := New(kb, &mapDS{src: src}, Options{Strategy: strat})
		sol, err := eng.AskText("path(0, Y)?")
		if err != nil {
			t.Fatal(err)
		}
		r := sol.search
		var first logic.Subst
		var got []string
		for sub, ok := sol.Next(); ok; sub, ok = sol.Next() {
			if first == nil {
				first = sub
			}
			if mapID(sub) != mapID(first) {
				t.Fatalf("%s: answer %d is a map of its own, not the ask's", strat, len(got)+1)
			}
			if r.sub == nil || mapID(sub) != mapID(r.sub) {
				t.Fatalf("%s: answer %d is not the runner's substitution", strat, len(got)+1)
			}
			got = append(got, first.String())
		}
		if err := sol.Err(); err != nil {
			t.Fatal(err)
		}
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("%s: the substitution held %v, want %v", strat, got, want)
		}
		if r.sub != nil || r.rows != nil || r.built {
			t.Errorf("%s: the ended ask's runner keeps its substitution %v and %d rows", strat, r.sub, len(r.rows))
		}

		if sol, err = eng.AskText("path(0, Y)?"); err != nil {
			t.Fatal(err)
		}
		all := sol.All()
		got = got[:0]
		seen := make(map[uintptr]bool)
		for _, sub := range all {
			if seen[mapID(sub)] {
				t.Fatalf("%s: All handed out one map twice", strat)
			}
			seen[mapID(sub)] = true
			got = append(got, sub.String())
		}
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("%s: All answered %v, want %v", strat, got, want)
		}
	}
}

// mapID identifies the map sub is.
func mapID(sub logic.Subst) uintptr { return reflect.ValueOf(sub).Pointer() }

// shapeOnly shapes the one clause kb defines for pred.
func shapeOnly(t *testing.T, kb *logic.KB, sh *Shaper, pred string, arity int) (logic.Clause, bool) {
	t.Helper()
	rules := kb.Rules(logic.PredRef{Name: pred, Arity: arity})
	if len(rules) != 1 {
		t.Fatalf("%s/%d has %d clauses, want 1", pred, arity, len(rules))
	}
	return shapeClause(kb, sh, rules[0])
}

func TestShaperGroundComparisonCulling(t *testing.T) {
	kb := mustKB(t, `
		:- base(b/1).
		p(X) :- b(X), 1 > 2.
		p(X) :- b(X), 2 > 1.
	`)
	var kept []logic.Clause
	for _, c := range kb.Rules(logic.PredRef{Name: "p", Arity: 1}) {
		if shaped, ok := shapeClause(kb, &Shaper{}, c); ok {
			kept = append(kept, shaped)
		}
	}
	if len(kept) != 1 {
		t.Fatalf("contradictory rule should be culled: %d rules", len(kept))
	}
	// The surviving rule's true comparison is dropped.
	if len(kept[0].Body) != 1 {
		t.Fatalf("satisfied ground comparison should be dropped: %v", kept[0].Body)
	}
}

func TestShaperMutexCulling(t *testing.T) {
	kb := mustKB(t, `
		:- base(b/1).
		:- mutex(m/1, f/1).
		m(X) :- b(X).
		f(X) :- b(X).
		weird(X) :- m(X), f(X).
		fine(X) :- m(X).
	`)
	if _, ok := shapeOnly(t, kb, &Shaper{}, "weird", 1); ok {
		t.Fatal("mutex-contradictory rule should be culled")
	}
	if _, ok := shapeOnly(t, kb, &Shaper{}, "fine", 1); !ok {
		t.Fatal("fine rule should survive")
	}
}

func TestShaperReordering(t *testing.T) {
	// With reordering, the bound/selective atom should come first.
	kb := mustKB(t, `
		:- base(big/2).
		:- base(small/2).
		p(X, Y) :- big(X, Z), small(Z, Y).
	`)
	big := relation.New("big", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt}, relation.Attr{Name: "b", Kind: relation.KindInt}))
	for i := 0; i < 1000; i++ {
		big.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 10))})
	}
	small := relation.New("small", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt}, relation.Attr{Name: "b", Kind: relation.KindInt}))
	for i := 0; i < 5; i++ {
		small.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i))})
	}
	ds := &mapDS{src: caql.MapSource{"big": big, "small": small}}
	c, _ := shapeOnly(t, kb, &Shaper{Reorder: true, Stats: ds}, "p", 2)
	if c.Body[0].Pred != "small" {
		t.Fatalf("expected small first after reordering, got %v", c.Body)
	}
}

func TestFunctionalDependencyOrdering(t *testing.T) {
	// An FD-bound atom should be estimated at one row and scheduled early.
	kb := mustKB(t, `
		:- base(keyed/2).
		:- base(other/2).
		:- fd(keyed/2, [1] -> [2]).
		p(Y, W) :- other(5, W), keyed(W, Y).
	`)
	c, _ := shapeOnly(t, kb, &Shaper{Reorder: true}, "p", 2)
	// other(5, W) binds W; keyed(W, Y) then has a bound FD determinant.
	if c.Body[0].Pred != "other" || c.Body[1].Pred != "keyed" {
		t.Fatalf("FD ordering unexpected: %v", c.Body)
	}
}

func TestViewSpecMinimalArgSet(t *testing.T) {
	// Paper example: k9(X,Y) <- k2(X,Z) & b1(Z,W) & b2(W,U) & b3(U,V) & k3(V,Y)
	// view over the b-run is d(Z,V).
	kb := mustKB(t, `
		:- base(b1/2).
		:- base(b2/2).
		:- base(b3/2).
		k2(X, Z) :- b1(X, Z).
		k3(V, Y) :- b1(V, Y).
		k9(X, Y) :- k2(X, Z), b1(Z, W), b2(W, U), b3(U, V), k3(V, Y).
	`)
	ds := &mapDS{src: caql.MapSource{}}
	eng := New(kb, ds, Options{Strategy: StrategyConjunction, Advice: true})
	adv, err := eng.Advice(logic.A("k9", logic.V("X"), logic.V("Y")))
	if err != nil {
		t.Fatal(err)
	}
	// Find the 3-atom view.
	var found *advice.ViewSpec
	for _, v := range adv.Views {
		if len(v.Query.Rels) == 3 {
			found = v
		}
	}
	if found == nil {
		t.Fatalf("no 3-atom view in:\n%s", adv)
	}
	vars := map[string]bool{}
	for _, tm := range found.Query.Head.Args {
		vars[tm.Var] = true
	}
	if len(vars) != 2 || !vars["Z"] || !vars["V"] {
		t.Fatalf("minimal argument set wrong: %v (want Z, V)", sortedVars(vars))
	}
}

// sortedVars orders variable names.
func sortedVars(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func TestInterpretedIssuesPerAtomQueries(t *testing.T) {
	kb := mustKB(t, example1KB)
	src := example1Data(rand.New(rand.NewSource(6)), 10)
	dsI := &mapDS{src: src}
	New(kb, dsI, Options{Strategy: StrategyInterpreted}).mustAsk(t, "k1(X, Y)?")
	dsC := &mapDS{src: src}
	New(kb, dsC, Options{Strategy: StrategyConjunction}).mustAsk(t, "k1(X, Y)?")
	dsF := &mapDS{src: src}
	New(kb, dsF, Options{Strategy: StrategyCompiled}).mustAsk(t, "k1(X, Y)?")
	// Interpreted issues at least as many queries as conjunction-compiled,
	// which issues at least as many as fully compiled.
	if !(len(dsI.queries) >= len(dsC.queries) && len(dsC.queries) >= len(dsF.queries)) {
		t.Fatalf("query counts along I-C range not monotone: interp=%d conj=%d comp=%d",
			len(dsI.queries), len(dsC.queries), len(dsF.queries))
	}
	// Compiled issues exactly one per base relation.
	if len(dsF.queries) != 3 {
		t.Fatalf("compiled queries = %d, want 3", len(dsF.queries))
	}
}

// TestCompiledAskAllocs holds a compiled ask, end to end over the test's map
// source, to its allocations: cousin(p007, Y)? on the 60-person kinship
// workload, with the default options (reordering, advice and a path
// expression), whose program the shape renders, the map source runs and the
// runner hands out as 12 answers written into one substitution, in about
// 2 463. It made 2 485 while each answer was a map of its own, and 2 504
// while its joins built a map of row chains. Before the program was built from the shape,
// the ask also extracted and shaped its AND/OR problem graph, reading the
// statistics anew, and made 3 706.
func TestCompiledAskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 2465
	w := workload.Kinship(1, 60)
	ds := &mapDS{src: w.Source()}
	opts := DefaultOptions()
	opts.Strategy = StrategyCompiled
	eng := New(w.KB, ds, opts)
	goal := mustAtom(t, "cousin(p007, Y)?")
	if got := eng.askAll(t, goal); got != 12 {
		t.Fatalf("cousin(p007, Y) has %d answers, want 12", got)
	}
	allocs := testing.AllocsPerRun(20, func() {
		ds.queries, ds.texts = ds.queries[:0], ds.texts[:0]
		eng.askAll(t, goal)
	})
	t.Logf("a compiled ask makes %v allocations", allocs)
	if allocs > budget {
		t.Errorf("a compiled ask makes %v allocations, budget %d", allocs, budget)
	}
}

// TestCompiledProgramIsTheShapes: the compiled strategy builds its program
// from the goal's shape, so asks that differ only in constants send one
// program less the goal clause, whose constants no fetch selects.
func TestCompiledProgramIsTheShapes(t *testing.T) {
	kb := mustKB(t, ":- base(b/2).\np(X, Y) :- b(X, Y).")
	ds := &mapDS{src: caql.MapSource{"b": relationOfPairs("b", [][2]int64{{1, 2}, {2, 3}, {1, 4}})}}
	eng := New(kb, ds, Options{Strategy: StrategyCompiled})
	if n1, n2 := eng.mustAsk(t, "p(1, Y)?").Len(), eng.mustAsk(t, "p(2, Y)?").Len(); n1 != 2 || n2 != 1 {
		t.Fatalf("p(1, Y) has %d answers and p(2, Y) %d, want 2 and 1", n1, n2)
	}
	if len(ds.texts) != 2 {
		t.Fatalf("%d programs sent, want 2", len(ds.texts))
	}
	p1, p2 := strings.Split(ds.texts[0], "\n"), strings.Split(ds.texts[1], "\n")
	if !slices.Equal(p1[:len(p1)-1], p2[:len(p2)-1]) || p1[len(p1)-1] == p2[len(p2)-1] {
		t.Errorf("programs differ short of their goal clauses:\n%s\n--\n%s", ds.texts[0], ds.texts[1])
	}
}

// TestCompiledFetchSelectsKBConstants: a recursive KB whose every e atom
// holds the constant k fetches only e's k rows under the compiled strategy.
// The shape's views come from clauses shaped bare, so the constant holds at
// every depth of the recursion.
func TestCompiledFetchSelectsKBConstants(t *testing.T) {
	kb := mustKB(t, `
		:- base(e/3).
		reach(X, Y) :- e(X, Y, k).
		reach(X, Y) :- e(X, Z, k), reach(Z, Y).
	`)
	e := relation.New("e", relation.NewSchema(relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindInt}, relation.Attr{Name: "l", Kind: relation.KindString}))
	for _, r := range []struct {
		a, b int64
		l    string
	}{{1, 2, "k"}, {2, 3, "k"}, {3, 4, "j"}, {2, 5, "j"}, {5, 6, "k"}, {3, 7, "k"}} {
		e.MustAppend(relation.Tuple{relation.Int(r.a), relation.Int(r.b), relation.Str(r.l)})
	}
	src := caql.MapSource{"e": e}
	want := answerSet(t, New(kb, &mapDS{src: src}, Options{Strategy: StrategyInterpreted}), "reach(1, Y)?")
	ds := &mapDS{src: src}
	if got := answerSet(t, New(kb, ds, Options{Strategy: StrategyCompiled}), "reach(1, Y)?"); got != want || want != "[(2) (3) (7)]" {
		t.Errorf("compiled answered %s, interpreted %s; want [(2) (3) (7)]", got, want)
	}
	if len(ds.queries) != 1 {
		t.Fatalf("compiled fetches %v, want one fetch of e", ds.queries)
	}
	q, err := caql.Parse(ds.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := caql.Eval(q, src); err != nil || rows.Len() != 4 {
		t.Errorf("fetch %s reads %v rows (%v), want e's 4 k rows", ds.queries[0], rows, err)
	}
}

// TestCompiledFetchesTheAdvisedRelations: the compiled strategy fetches
// exactly the base relations its advice lists, even for a goal whose
// constant no clause can derive, since clauses are shaped bare and the
// goal's constants cull none, and sends no clause the shaper culled, which
// would read c, a relation no view reads.
func TestCompiledFetchesTheAdvisedRelations(t *testing.T) {
	kb := mustKB(t, ":- base(b/1).\n:- base(c/1).\np(X) :- b(X), X > 5.\np(X) :- c(X), 1 > 2.")
	ints := func(name string) *relation.Relation {
		r := relation.New(name, relation.NewSchema(relation.Attr{Name: "v", Kind: relation.KindInt}))
		for i := int64(0); i < 10; i++ {
			r.MustAppend(relation.Tuple{relation.Int(i)})
		}
		return r
	}
	ds := &mapDS{src: caql.MapSource{"b": ints("b"), "c": ints("c")}}
	eng := New(kb, ds, Options{Strategy: StrategyCompiled})
	goal := logic.A("p", logic.CInt(3))
	adv, err := eng.Advice(goal)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.mustAsk(t, "p(3)?").Len(); n != 0 {
		t.Fatalf("p(3) has %d answers, want none", n)
	}
	var fetched []logic.PredRef
	for _, src := range ds.queries {
		q, err := caql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range q.Rels {
			fetched = append(fetched, a.Ref())
		}
	}
	if !slices.Equal(fetched, adv.BaseRels) {
		t.Errorf("compiled fetches %v (%v), advice lists %v", fetched, ds.queries, adv.BaseRels)
	}
}

func (e *Engine) mustAsk(t *testing.T, goal string) *relation.Relation {
	t.Helper()
	sol, err := e.AskText(goal)
	if err != nil {
		t.Fatal(err)
	}
	out := sol.Tuples()
	if sol.Err() != nil {
		t.Fatal(sol.Err())
	}
	return out
}

func TestAskErrors(t *testing.T) {
	kb := mustKB(t, ":- base(b/1).\np(X) :- b(X).")
	ds := &mapDS{src: caql.MapSource{}} // no relations: queries fail
	eng := New(kb, ds, Options{Strategy: StrategyInterpreted})
	sol, err := eng.AskText("p(X)?")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sol.Next(); ok {
		t.Fatal("expected failure, got a solution")
	}
	if sol.Err() == nil {
		t.Fatal("missing relation should surface as Err")
	}
	if _, err := eng.AskText("p(X"); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := eng.Ask(logic.A(relation.OpLt.String(), logic.V("X"), logic.CInt(3))); err == nil {
		t.Fatal("comparison goal should be rejected")
	}
}

// TestSolutionsCloseEarly: Close closes the segment streams the search still
// has open and ends the session exactly once, whenever it is called; an
// answer dropped without Close leaves no goroutine behind.
func TestSolutionsCloseEarly(t *testing.T) {
	kb := mustKB(t, example1KB)
	src := example1Data(rand.New(rand.NewSource(7)), 40)
	ds := &mapDS{src: src}
	eng := New(kb, ds, Options{Strategy: StrategyInterpreted})
	ask := func() *Solutions {
		t.Helper()
		sol, err := eng.AskText("k1(X, Y)?")
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	for i := 0; i < 20; i++ {
		ds.ends, ds.closes = 0, 0
		sol := ask()
		if _, ok := sol.Next(); !ok {
			t.Fatal("expected an answer")
		}
		sol.Close()
		if _, ok := sol.Next(); ok {
			t.Fatal("Next after Close should report exhaustion")
		}
		if ds.ends != 1 || ds.closes == 0 {
			t.Fatalf("Close after an answer: %d sessions ended, %d streams closed; want 1 and some", ds.ends, ds.closes)
		}
	}

	ds.ends = 0
	sol := ask()
	sol.Close() // before the first Next
	sol.Close() // and again
	if _, ok := sol.Next(); ok || ds.ends != 1 {
		t.Fatalf("Close twice before Next: ok=%v, %d sessions ended, want 1", ok, ds.ends)
	}

	failing := &mapDS{src: caql.MapSource{}} // no relations: the first query fails
	sol, err := New(kb, failing, Options{Strategy: StrategyInterpreted}).AskText("k1(X, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sol.Next(); ok || sol.Err() == nil {
		t.Fatalf("expected a failed search, got ok=%v err=%v", ok, sol.Err())
	}
	sol.Close()
	if failing.ends != 1 {
		t.Fatalf("Close after an error: %d sessions ended, want 1", failing.ends)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		ask().Next() // dropped without Close
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("100 dropped asks left %d goroutines behind", after-before)
	}
}

// TestStreamErrorFailsTheSearch: a segment stream that stops on an error
// fails the ask in every strategy; its prefix is not a complete answer.
func TestStreamErrorFailsTheSearch(t *testing.T) {
	kb := mustKB(t, ":- base(p/2).\nq(X, Y) :- p(X, Y).")
	p := make([][2]int64, 10)
	for i := range p {
		p[i] = [2]int64{int64(i), int64(i % 3)}
	}
	for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction, StrategyCompiled} {
		for _, goal := range []string{"q(X, Y)?", "p(X, Y)?"} {
			ds := &mapDS{src: caql.MapSource{"p": relationOfPairs("p", p)}}
			eng := New(kb, ds, Options{Strategy: strat})
			if got := eng.mustAsk(t, goal).Len(); got != len(p) {
				t.Fatalf("%s %s: %d answers from a whole stream, want %d", strat, goal, got, len(p))
			}
			ds.cutAfter, ds.ends = 3, 0
			sol, err := eng.AskText(goal)
			if err != nil {
				t.Fatal(err)
			}
			n := len(sol.All())
			if !errors.Is(sol.Err(), errCut) || ds.ends != 1 {
				t.Errorf("%s %s: %d answers, Err() = %v, %d sessions ended; want errCut and 1", strat, goal, n, sol.Err(), ds.ends)
			}
		}
	}
}

func TestFixpointComparisons(t *testing.T) {
	kb := mustKB(t, `
		:- base(n/1).
		small(X) :- n(X), X < 3.
	`)
	n := relation.New("n", relation.NewSchema(relation.Attr{Name: "v", Kind: relation.KindInt}))
	for i := int64(0); i < 6; i++ {
		n.MustAppend(relation.Tuple{relation.Int(i)})
	}
	derived, err := fixpoint(kb, caql.MapSource{"n": n}, logic.PredRef{Name: "small", Arity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if derived[logic.PredRef{Name: "small", Arity: 1}].Len() != 3 {
		t.Fatalf("small = %v", derived)
	}
}

func TestAnswersUnification(t *testing.T) {
	ext := relation.New("p", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindInt}))
	ext.MustAppend(relation.Tuple{relation.Int(1), relation.Int(1)})
	ext.MustAppend(relation.Tuple{relation.Int(1), relation.Int(2)})
	ext.MustAppend(relation.Tuple{relation.Int(2), relation.Int(2)})
	// p(X, X): only diagonal rows.
	got := Answers(logic.A("p", logic.V("X"), logic.V("X")), ext)
	if len(got) != 2 {
		t.Fatalf("diagonal answers = %d, want 2", len(got))
	}
	// p(1, Y).
	got = Answers(logic.A("p", logic.CInt(1), logic.V("Y")), ext)
	if len(got) != 2 {
		t.Fatalf("bound answers = %d, want 2", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].String() < got[j].String() })
	if got[0].String() != "{Y=1}" {
		t.Fatalf("answer = %v", got[0])
	}
}

// TestAnswersAreASet: an ask yields each answer once under every strategy.
// e holds two rows twice, so a base goal reads a repeat, and the derived
// goals reach an answer through both copies of a row, through two clauses
// or through two rows that differ only in a column they drop; each is asked
// free and bound.
func TestAnswersAreASet(t *testing.T) {
	kb := mustKB(t, `
		:- base(e/2).
		p(X, Y) :- e(X, Y).
		from(X) :- e(X, Y).
		two(X, Y) :- e(X, Y).
		two(X, Y) :- e(X, Z), e(Z, Y).
	`)
	src := caql.MapSource{"e": relationOfPairs("e", [][2]int64{{1, 2}, {1, 2}, {2, 3}, {1, 3}, {3, 3}, {3, 3}})}
	for _, c := range []struct {
		goal string
		want int
	}{
		{"e(X, Y)?", 4},
		{"e(1, Y)?", 2},
		{"e(X, X)?", 1},
		{"p(X, Y)?", 4},
		{"p(1, Y)?", 2},
		{"from(X)?", 3},
		{"from(1)?", 1},
		{"two(X, Y)?", 4},
		{"two(1, Y)?", 2},
	} {
		for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction, StrategyCompiled} {
			t.Run(c.goal+strat.String(), func(t *testing.T) {
				sol, err := New(kb, &mapDS{src: src}, Options{Strategy: strat}).AskText(c.goal)
				if err != nil {
					t.Fatal(err)
				}
				if got := distinctTuples(t, sol); sol.Err() != nil || got.Len() != c.want {
					t.Errorf("%d answers (%v), want %d", got.Len(), sol.Err(), c.want)
				}
			})
		}
	}
}

// TestCompiledConstantsSurviveText: the compiled strategy renders its program
// as text, where an integral float prints with its point (2.0 as 2.0) and
// parses back as a float. Its rules carry such a float in a head, in a body
// atom and in a comparison, and the compiled answers equal the interpreted
// ones value by value, kinds included, over the test's map source and
// through a CMS.
func TestCompiledConstantsSurviveText(t *testing.T) {
	kb := mustKB(t, `
		:- base(m/2).
		w(X, 2.0) :- m(X, 3.0).
		w(X, Y) :- m(X, Y), Y < 2.0.
	`)
	m := relation.New("m", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindString}, relation.Attr{Name: "y", Kind: relation.KindFloat}))
	for i, y := range []float64{3, 1, 2.5, 2, 3} {
		m.MustAppend(relation.Tuple{relation.Str(fmt.Sprint("n", i)), relation.Float(y)})
	}
	w := remotedb.NewEngine()
	w.LoadTable(m)
	sources := map[string]func() bridge.DataSource{
		"map": func() bridge.DataSource { return &mapDS{src: caql.MapSource{"m": m}} },
		"cms": func() bridge.DataSource {
			return cache.New(remotedb.NewInProcClient(w, remotedb.DefaultCosts()), cache.Options{Features: cache.AllFeatures()})
		},
	}
	// covers reports whether every row of a has a row of b equal to it,
	// value by value and kind by kind.
	same := func(x, y relation.Value) bool { return x.Equal(y) && x.Kind() == y.Kind() }
	covers := func(a, b *relation.Relation) bool {
		for _, x := range a.Tuples() {
			if !slices.ContainsFunc(b.Tuples(), func(y relation.Tuple) bool {
				return slices.EqualFunc(x, y, same)
			}) {
				return false
			}
		}
		return true
	}
	for name, ds := range sources {
		want := New(kb, ds(), Options{Strategy: StrategyInterpreted}).mustAsk(t, "w(X, Y)?")
		got := New(kb, ds(), Options{Strategy: StrategyCompiled}).mustAsk(t, "w(X, Y)?")
		if want.Len() != 3 || got.Len() != 3 || !covers(got, want) || !covers(want, got) {
			t.Errorf("%s: compiled answered %v, interpreted %v; want the same 3", name, got.Tuples(), want.Tuples())
		}
	}
}
