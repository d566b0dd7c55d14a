package ie

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
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

// adviceDS is a mapDS that also records the advice each session opens with.
type adviceDS struct {
	*mapDS
	advice []string
}

func (d *adviceDS) BeginSession(adv *advice.Advice) bridge.Session {
	text := "<none>"
	if adv != nil {
		text = adv.String()
	}
	d.advice = append(d.advice, text)
	return d.mapDS.BeginSession(adv)
}

// maxTraceAnswers bounds the answers askTrace takes from one ask, and
// maxTraceQueries the CAQL queries FuzzAskByShape lets one ask issue.
const maxTraceAnswers, maxTraceQueries = 200, 2000

// askTrace asks goal of eng, whose data source is ds, and renders what an
// observer sees: the advice the session opened with, the CAQL queries in the
// order they were asked, the answers in the order they came, and the error.
func askTrace(eng *Engine, ds *adviceDS, goal logic.Atom) string {
	ds.queries, ds.advice = nil, nil
	var b strings.Builder
	sol, err := eng.Ask(goal)
	if err != nil {
		return "ask error: " + err.Error()
	}
	vars := sol.Vars()
	for n := 0; n < maxTraceAnswers; n++ {
		sub, ok := sol.Next()
		if !ok {
			break
		}
		b.WriteString("answer")
		for _, v := range vars {
			fmt.Fprintf(&b, " %s=%s", v, sub.Walk(logic.V(v)))
		}
		b.WriteByte('\n')
	}
	sol.Close()
	fmt.Fprintf(&b, "err %v\n", sol.Err())
	for _, a := range ds.advice {
		b.WriteString("advice\n" + a)
	}
	for _, q := range ds.queries {
		b.WriteString("query " + q + "\n")
	}
	return b.String()
}

// shapeData is the extension of every base relation a program's rules or
// the atoms named name: a few rows over ints, a float equal to one of them,
// and strings.
func shapeData(kb *logic.KB, named []logic.Atom, seed int64) caql.MapSource {
	rng := rand.New(rand.NewSource(seed))
	domain := []relation.Value{
		relation.Int(1), relation.Int(2), relation.Int(50), relation.Float(50),
		relation.Str("p001"), relation.Str("p002"),
	}
	src := caql.MapSource{}
	add := func(a logic.Atom) {
		ref := a.Ref()
		if a.IsComparison() || !kb.IsBase(ref) || src[ref.Name] != nil {
			return
		}
		attrs := make([]relation.Attr, ref.Arity)
		for i := range attrs {
			attrs[i] = relation.Attr{Name: fmt.Sprintf("c%d", i), Kind: relation.KindNull}
		}
		rel := relation.New(ref.Name, relation.NewSchema(attrs...))
		for n := 2 + rng.Intn(6); n > 0; n-- {
			tu := make(relation.Tuple, ref.Arity)
			for i := range tu {
				tu[i] = domain[rng.Intn(len(domain))]
			}
			rel.MustAppend(tu)
		}
		src[ref.Name] = rel
	}
	for _, ref := range kb.Preds() {
		for _, c := range kb.Rules(ref) {
			for _, a := range c.Body {
				add(a)
			}
		}
	}
	for _, a := range named {
		add(a)
	}
	return src
}

// askByShapeSeeds are FuzzAskByShape's committed inputs: a program, then
// its asks one a line ("+" adds a clause to the KB between asks), and the
// data's seed.
var askByShapeSeeds = []struct {
	program, asks string
	seed          int64
}{
	// A repeated variable is a shape of its own.
	{kinshipProgram, "sibling(X, Y)?\nsibling(X, X)?\nsibling(X, Y)?\nsibling(Y, X)?", 1},
	// An int constant and a float one share nothing.
	{":- base(b/2).\np(X, Y) :- b(X, Y).\np(X, Y) :- b(Y, X), X != Y.", "p(50, Y)?\np(50.0, Y)?\np(50, Y)?\np(X, 50.0)?", 2},
	// A base goal compiles per ask, its constants in its view.
	{":- base(b/2).\np(X) :- b(X, 1).", "b(1, Y)?\nb(2, Y)?\nb(X, Y)?\np(X)?\nb(50, X)?", 3},
	// A bound recursive goal, the compiled strategy's fetches included.
	{kinshipProgram, "anc(p001, Y)?\nanc(p002, Y)?\nanc(X, p002)?\nanc(p001, Y)?", 4},
	// A clause added between two asks of one shape.
	{":- base(b/2).\n:- base(c/2).\np(X, Y) :- b(X, Y).", "p(1, Y)?\n+p(X, Y) :- c(X, Z), b(Z, Y).\np(2, Y)?\n+p(X, Y) :- c(Y, X).\np(1, Y)?", 5},
}

// kinshipProgram is the kinship KB, over its base relations only.
const kinshipProgram = `
	:- base(parent/2).
	:- base(male/1).
	:- base(female/1).
	:- mutex(male/1, female/1).
	grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	sibling(X, Y) :- parent(P, X), parent(P, Y), X != Y.
	brother(X, Y) :- sibling(X, Y), male(X).
	uncle(X, Y) :- brother(X, P), parent(P, Y).
	anc(X, Y) :- parent(X, Y).
	anc(X, Y) :- parent(X, Z), anc(Z, Y).
`

// FuzzAskByShape: an engine that has asked other goals of a shape answers
// every ask as a fresh engine does, under each strategy: the same advice,
// the same CAQL queries in the same order, the same answers in the same
// order. Lines of asks starting with "+" add a clause to the KB.
func FuzzAskByShape(f *testing.F) {
	for _, s := range askByShapeSeeds {
		f.Add(s.program, s.asks, s.seed)
	}
	f.Fuzz(func(t *testing.T, program, asks string, seed int64) {
		if len(program) > 1000 || len(asks) > 500 {
			return
		}
		if _, err := logic.ParseProgram(program); err != nil {
			return
		}
		lines := strings.Split(asks, "\n")
		if len(lines) > 8 {
			lines = lines[:8]
		}
		for _, strat := range []Strategy{StrategyInterpreted, StrategyConjunction, StrategyCompiled} {
			kb, _ := logic.ParseProgram(program)
			var named []logic.Atom // the atoms of the asks and the added clauses' bodies
			for _, line := range lines {
				line = strings.TrimSpace(line)
				if c, ok := strings.CutPrefix(line, "+"); ok {
					r := logic.NewClauseReader(c)
					if cl, err := r.Next(nil, nil); err == nil {
						named = append(named, cl.Body...)
					}
				} else if g, err := logic.ParseAtom(line); err == nil {
					named = append(named, g)
				}
			}
			src := shapeData(kb, named, seed)
			opts := Options{Strategy: strat, Reorder: true, Advice: true, PathExpression: true}
			warmDS := &adviceDS{mapDS: &mapDS{src: src, limit: maxTraceQueries}}
			warm := New(kb, warmDS, opts)
			for _, line := range lines {
				line = strings.TrimSpace(line)
				if c, ok := strings.CutPrefix(line, "+"); ok {
					r := logic.NewClauseReader(c)
					if cl, err := r.Next(nil, nil); err == nil {
						kb.AddClause(cl)
					}
					continue
				}
				goal, err := logic.ParseAtom(line)
				if err != nil || goal.IsComparison() {
					continue
				}
				freshDS := &adviceDS{mapDS: &mapDS{src: src, limit: maxTraceQueries}}
				want := askTrace(New(kb, freshDS, opts), freshDS, goal)
				if got := askTrace(warm, warmDS, goal); got != want {
					t.Fatalf("%s, %s: the warm engine's ask differs from a fresh one's\nwarm:\n%s\nfresh:\n%s", strat, goal, got, want)
				}
			}
		}
	})
}

// TestAskSeesKBChange: every KB mutator moves the KB's generation, and an
// ask after a clause, a mutex or a functional dependency is added answers
// as a fresh engine does.
func TestAskSeesKBChange(t *testing.T) {
	kb := mustKB(t, `
		:- base(a/2).
		:- base(b/2).
		:- base(m/1).
		:- base(f/1).
		q(Z) :- a(1, Y), b(Y, Z).
		p(X) :- m(X), f(X).
	`)
	src := caql.MapSource{
		"a": relationOfPairs("a", [][2]int64{{1, 2}, {1, 3}, {2, 3}, {3, 4}, {1, 4}, {2, 2}}),
		"b": relationOfPairs("b", [][2]int64{{2, 5}}),
	}
	for _, name := range []string{"m", "f"} {
		rel := relation.New(name, relation.NewSchema(relation.Attr{Name: "x", Kind: relation.KindInt}))
		rel.MustAppend(relation.Tuple{relation.Int(2)})
		src[name] = rel
	}
	ds := &adviceDS{mapDS: &mapDS{src: src}}
	eng := New(kb, ds, DefaultOptions())
	check := func(step, goal string) string {
		t.Helper()
		g := mustAtom(t, goal)
		fresh := &adviceDS{mapDS: &mapDS{src: src}}
		want := askTrace(New(kb, fresh, DefaultOptions()), fresh, g)
		got := askTrace(eng, ds, g)
		if got != want {
			t.Fatalf("after %s, %s: the warm engine's ask differs from a fresh one's\nwarm:\n%s\nfresh:\n%s", step, goal, got, want)
		}
		return got
	}
	check("nothing", "q(Z)?")
	before := check("nothing", "p(X)?")

	gen := kb.Generation()
	r := logic.NewClauseReader("q(Z) :- b(Z, 5).")
	cl, err := r.Next(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.AddClause(cl); err != nil {
		t.Fatal(err)
	}
	check("AddClause", "q(Z)?")

	kb.AddMutex(logic.PredRef{Name: "m", Arity: 1}, logic.PredRef{Name: "f", Arity: 1})
	if after := check("AddMutex", "p(X)?"); after == before {
		t.Fatalf("the mutex culled nothing:\n%s", after)
	}

	orderBefore := check("AddMutex", "q(Z)?")
	kb.AddFD(logic.FDSOA{Pred: logic.PredRef{Name: "a", Arity: 2}, From: []int{0}, To: []int{1}})
	if after := check("AddFD", "q(Z)?"); after == orderBefore {
		t.Fatalf("the functional dependency reordered nothing:\n%s", after)
	}

	if err := kb.DeclareBase(logic.PredRef{Name: "c", Arity: 1}); err != nil {
		t.Fatal(err)
	}
	if got := kb.Generation(); got != gen+4 {
		t.Fatalf("four changes moved the generation from %d to %d", gen, got)
	}
	check("DeclareBase", "q(Z)?")
}

// TestAskFollowsStats: rows inserted after an ask change the statistics the
// shaper ordered a clause by, and the next ask issues the CAQL queries a
// fresh engine does, in its order.
func TestAskFollowsStats(t *testing.T) {
	kb := mustKB(t, `
		:- base(a/2).
		:- base(b/2).
		q(X, Z) :- a(X, Y), b(Y, Z).
	`)
	var bRows [][2]int64
	for i := int64(0); i < 12; i++ {
		bRows = append(bRows, [2]int64{i % 4, i})
	}
	src := caql.MapSource{
		"a": relationOfPairs("a", [][2]int64{{1, 2}, {2, 3}}),
		"b": relationOfPairs("b", bRows),
	}
	ds := &adviceDS{mapDS: &mapDS{src: src}}
	eng := New(kb, ds, DefaultOptions())
	goal := mustAtom(t, "q(X, Z)?")
	ask := func() (got, want string) {
		fresh := &adviceDS{mapDS: &mapDS{src: src}}
		return askTrace(eng, ds, goal), askTrace(New(kb, fresh, DefaultOptions()), fresh, goal)
	}
	before, want := ask()
	if before != want {
		t.Fatalf("warm:\n%s\nfresh:\n%s", before, want)
	}
	if !strings.Contains(before, "query d1(X, Y) :- a(X, Y)") {
		t.Fatalf("the smaller relation a is not asked first:\n%s", before)
	}
	for i := int64(0); i < 40; i++ {
		src["a"].MustAppend(relation.Tuple{relation.Int(100 + i), relation.Int(i % 3)})
	}
	after, want := ask()
	if after != want {
		t.Fatalf("after the insert, the warm engine's ask differs from a fresh one's\nwarm:\n%s\nfresh:\n%s", after, want)
	}
	if !strings.Contains(after, "query d1(Y, Z) :- b(Y, Z)") {
		t.Fatalf("the insert did not reorder the clause:\n%s", after)
	}
}

// kinshipForms are the ie_ask benchmark's seven question forms.
var kinshipForms = []string{
	"uncle(X, %s)?", "cousin(%s, Y)?", "anc(%s, Y)?", "grandfather(X, %s)?",
	"brother(X, %s)?", "sibling(%s, Y)?", "grandparent(%s, Y)?",
}

// kinshipCMS is a CMS over the kinship workload's tables, held in process.
func kinshipCMS(w *workload.Workload) *cache.CMS {
	return cache.New(remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts()),
		cache.Options{Features: cache.AllFeatures(), Costs: remotedb.DefaultCosts()})
}

// answerSet is sol's answers, sorted.
func answerSet(t *testing.T, eng *Engine, goal string) string {
	sol, err := eng.AskText(goal)
	if err != nil {
		t.Error(err)
		return ""
	}
	rel := sol.Tuples()
	if err := sol.Err(); err != nil {
		t.Error(err)
	}
	return fmt.Sprint(rel.Sort().Tuples())
}

// TestConcurrentAsksShareShapes: eight goroutines ask the seven kinship
// forms of a cold engine at once, so shapes compile while others run, and
// every answer set equals the serial one.
func TestConcurrentAsksShareShapes(t *testing.T) {
	w := workload.Kinship(1, 40)
	var goals []string
	for p := 1; p <= 6; p++ {
		for _, f := range kinshipForms {
			goals = append(goals, fmt.Sprintf(f, fmt.Sprintf("p%03d", p)))
		}
	}
	serial := New(w.KB, kinshipCMS(w), DefaultOptions())
	want := make(map[string]string, len(goals))
	for _, g := range goals {
		want[g] = answerSet(t, serial, g)
	}
	eng := New(w.KB, kinshipCMS(w), DefaultOptions())
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := range goals {
				g := goals[(i+k*5)%len(goals)]
				if got := answerSet(t, eng, g); got != want[g] {
					t.Errorf("goroutine %d, %s: %s, serially %s", k, g, got, want[g])
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestClosedSolutionsSurviveRunnerReuse: a closed or spent Solutions gives
// its runner back to the engine and keeps only its variables and its error.
// Four goroutines ask at once, each closing half its asks after one answer
// and draining the rest, by All or by Next, and then call Next, Err, Close
// and Vars on every Solutions it has finished while the others' asks run on
// the runners those gave back: none of them reaches a runner (the race
// detector would see it), and each says what it said when it was finished.
// The answer an ask gave last, held past its end, is not written again by
// the later asks on its runner: it holds what it held when the ask ended.
func TestClosedSolutionsSurviveRunnerReuse(t *testing.T) {
	w := workload.Kinship(1, 40)
	eng := New(w.KB, kinshipCMS(w), DefaultOptions())
	type held struct{ sub, was logic.Subst }
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var done []*Solutions
			var kept []held
			for i := 0; i < 40; i++ {
				goal := fmt.Sprintf(kinshipForms[(i+k)%len(kinshipForms)], fmt.Sprintf("p%03d", 1+(i+k)%6))
				sol, err := eng.AskText(goal)
				if err != nil {
					t.Error(err)
					return
				}
				var last logic.Subst
				switch i % 4 {
				case 0, 2:
					last, _ = sol.Next()
					sol.Close()
				case 1:
					sol.All()
				case 3:
					for sub, ok := sol.Next(); ok; sub, ok = sol.Next() {
						last = sub
					}
				}
				if last != nil {
					kept = append(kept, held{last, maps.Clone(last)})
				}
				done = append(done, sol)
				for _, d := range done {
					if sub, ok := d.Next(); ok || sub != nil || d.Err() != nil {
						t.Errorf("%s: a finished search answered %v (%v), Err %v", goal, sub, ok, d.Err())
						return
					}
					d.Close()
					if vars := d.Vars(); len(vars) != 1 {
						t.Errorf("%s: a finished search has variables %v", goal, vars)
						return
					}
				}
				for _, h := range kept {
					if !h.sub.Equal(h.was) {
						t.Errorf("%s: an answer held from an ended ask changed from %v to %v", goal, h.was, h.sub)
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
}

// liveHeap is the heap's live bytes after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// askForms asks every kinship form of person p of eng, and drains it.
func askForms(t *testing.T, eng *Engine, p string) {
	for _, f := range kinshipForms {
		eng.mustAsk(t, fmt.Sprintf(f, p))
	}
}

// TestShapeCacheRetained holds what an engine's compile state keeps after
// all seven kinship forms are asked: the compiled clauses, shared, and one
// shape record per form. The ie_ask benchmark keeps two engines, its own
// and its oracle's, and their compile states are a live-heap cost.
func TestShapeCacheRetained(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const budget = 10 << 10
	const benchLiveHeap = 0.491 * (1 << 20) // ie_ask's live heap before shapes were cached
	w := workload.Kinship(1, 60)
	// A first engine warms the runtime and the test's own machinery.
	askForms(t, New(w.KB, &mapDS{src: w.Source()}, DefaultOptions()), "p005")

	ds := &mapDS{src: w.Source()}
	eng := New(w.KB, ds, DefaultOptions())
	before := liveHeap()
	askForms(t, eng, "p005")
	ds.queries = nil
	retained := liveHeap() - before
	runtime.KeepAlive(eng)
	t.Logf("compile state retains %d B; two engines add %.2f %% to ie_ask's live heap", retained, 200*float64(retained)/benchLiveHeap)
	if retained > budget {
		t.Errorf("compile state retains %d B, budget %d B", retained, budget)
	}
}

// TestCachedShapeAllocs holds an ask of a shape the engine has compiled,
// short of its search, to the allocations it makes: binding the goal (its
// variables and the solutions), and opening and ending the CMS session,
// whose share is 3: its handle, its context and its cancel function. The
// runner is one the engine kept, and the advice is rebuilt in its block; the
// session's scratch, where its path tracker is recompiled, is one an ended
// session left. Before the advice and the tracker were rebuilt in kept
// storage, an ask made up to 17 and its session 7; before runners and
// session scratch were kept, 21 and 9.
func TestCachedShapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const askBudget, sessionBudget = 5, 3
	w := workload.Kinship(1, 60)
	cms := kinshipCMS(w)
	eng := New(w.KB, cms, DefaultOptions())
	askForms(t, eng, "p005")
	for _, f := range kinshipForms {
		goal := mustAtom(t, fmt.Sprintf(f, "p007"))
		allocs := testing.AllocsPerRun(50, func() {
			sol, err := eng.Ask(goal)
			if err != nil {
				t.Fatal(err)
			}
			sol.Close()
		})
		sh, err := eng.shape(goal)
		if err != nil {
			t.Fatal(err)
		}
		adv := sh.advice(new(adviceBlock), eng.kb, eng.opts)
		session := testing.AllocsPerRun(50, func() { cms.BeginSession(adv).End() })
		t.Logf("%s: %v allocations to ask and close, %v of them the session", goal, allocs, session)
		if allocs > askBudget {
			t.Errorf("%s: a cached-shape ask makes %v allocations, budget %d", goal, allocs, askBudget)
		}
		if session > sessionBudget {
			t.Errorf("%s: opening and ending a session makes %v allocations, budget %d", goal, session, sessionBudget)
		}
	}
}

// TestWarmAskAllocs holds a warm ask to its allocations, end to end: the
// interpreted strategy over a CMS holding its whole working set, on a chain
// of 50 edges, asks path(0, Y), which has 50 answers, in 102 CAQL queries,
// all of them hits. A hit's derivation, query block, stream and block of
// answer values are the session's, recycled as the search closes each
// segment, and a follower the path expression predicts is probed in the
// session's scratch. The runner, with its stacks and query blocks, is one
// the engine kept from an earlier ask, with its stacks, query blocks and
// advice block, and the session's scratch, with its free streams and their
// value blocks, its tracker and its follower lists, one an ended session
// left, so the 51 segments the right-linear search holds open at its deepest
// cost nothing. Every answer is written into one substitution, the ask's.
// What is left is the goal's variables and the solutions, the session's
// handle, context and cancel function, and that substitution (2): 7 today.
// While each answer was a map of its own (2 each), the ask made 105; before
// the advice, tracker and followers were rebuilt in kept storage, 115; before
// runners and session scratch were kept, 334; and before closed hits gave
// their value blocks back, 688.
func TestWarmAskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, budget = 50, 7
	kb := mustKB(t, `
		:- base(e/2).
		path(X, Y) :- e(X, Y).
		path(X, Y) :- e(X, Z), path(Z, Y).
	`)
	chain := make([][2]int64, n)
	for i := range chain {
		chain[i] = [2]int64{int64(i), int64(i + 1)}
	}
	e := remotedb.NewEngine()
	e.LoadTable(relationOfPairs("e", chain))
	cms := cache.New(remotedb.NewInProcClient(e, remotedb.DefaultCosts()),
		cache.Options{Features: cache.AllFeatures(), Costs: remotedb.DefaultCosts()})
	eng := New(kb, cms, DefaultOptions())
	goal := logic.A("path", logic.CInt(0), logic.V("Y"))
	for i := 0; i < 3; i++ {
		if got := eng.askAll(t, goal); got != n {
			t.Fatalf("path(0, Y) has %d answers, want %d", got, n)
		}
	}
	before := cms.Stats()
	allocs := testing.AllocsPerRun(20, func() { eng.askAll(t, goal) })
	after := cms.Stats()
	queries := (after.Queries - before.Queries) / 21
	if after.RemoteRequests != before.RemoteRequests || after.CacheHits-before.CacheHits != after.Queries-before.Queries {
		t.Fatalf("not a warm ask: %d remote requests, %d hits in %d queries", after.RemoteRequests-before.RemoteRequests,
			after.CacheHits-before.CacheHits, after.Queries-before.Queries)
	}
	t.Logf("a warm ask of %d queries makes %v allocations", queries, allocs)
	if allocs > budget {
		t.Errorf("a warm ask makes %v allocations, budget %d", allocs, budget)
	}
}

// adviceRecorder is a CMS that renders the advice each session opens with
// and keeps each session's handle.
type adviceRecorder struct {
	*cache.CMS
	mu       sync.Mutex
	advice   []string
	sessions []bridge.Session
}

func (d *adviceRecorder) BeginSession(adv *advice.Advice) bridge.Session {
	s := d.CMS.BeginSession(adv)
	d.mu.Lock()
	d.advice = append(d.advice, adv.String())
	d.sessions = append(d.sessions, s)
	d.mu.Unlock()
	return s
}

// last is the advice and the handle of the session begun last.
func (d *adviceRecorder) last() (string, bridge.Session) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.advice[len(d.advice)-1], d.sessions[len(d.sessions)-1]
}

// elementRecords renders every cached element's ID, advice name and
// definition.
func elementRecords(cms *cache.CMS) map[int]string {
	out := make(map[int]string)
	for _, e := range cms.Manager().Elements() {
		out[e.ID] = e.AdviceName + " " + e.Def.String()
	}
	return out
}

// TestAdviceBlockReuse: an ask's advice is rebuilt in its runner's advice
// block, so the CMS must keep nothing that points into it once the session
// ends. A cold ask of shape A fills the cache; then shape B, with fewer
// views, is asked on A's runner. B's session opens with exactly the advice a
// fresh block renders for B, B answers as the reference does, every element
// made under A keeps its advice name and definition, and A's ended session
// holds no advice. Then four goroutines ask all seven kinship forms of one
// engine at once (run under the race detector too): every answer set equals
// the serial one, and every session opens with its form's advice.
func TestAdviceBlockReuse(t *testing.T) {
	w := workload.Kinship(1, 40)
	ref := New(w.KB, &mapDS{src: w.Source()}, DefaultOptions())
	adviceOf := func(goal string) string {
		adv, err := ref.Advice(mustAtom(t, goal))
		if err != nil {
			t.Fatal(err)
		}
		return adv.String()
	}
	const a, b = "cousin(p003, Y)?", "grandparent(p005, Y)?"
	reused := false
	for try := 0; try < 20 && !reused; try++ {
		// A sync.Pool may drop what it is given (under the race detector, a
		// quarter of it), so a new engine tries again until B gets A's runner.
		rec := &adviceRecorder{CMS: kinshipCMS(w)}
		eng := New(w.KB, rec, DefaultOptions())
		solA, err := eng.AskText(a)
		if err != nil {
			t.Fatal(err)
		}
		runnerA := solA.search
		if got := fmt.Sprint(solA.Tuples().Sort().Tuples()); got != answerSet(t, ref, a) {
			t.Fatalf("%s answers %s, the reference %s", a, got, answerSet(t, ref, a))
		}
		advA, sessA := rec.last()
		if advA != adviceOf(a) {
			t.Fatalf("%s opened with\n%s\nwant\n%s", a, advA, adviceOf(a))
		}
		made := elementRecords(rec.CMS)
		if len(made) == 0 {
			t.Fatalf("%s made no cache elements", a)
		}

		solB, err := eng.AskText(b)
		if err != nil {
			t.Fatal(err)
		}
		reused = solB.search == runnerA
		if got := fmt.Sprint(solB.Tuples().Sort().Tuples()); got != answerSet(t, ref, b) {
			t.Fatalf("%s answers %s, the reference %s", b, got, answerSet(t, ref, b))
		}
		if advB, _ := rec.last(); advB != adviceOf(b) {
			t.Fatalf("%s, on A's runner %v, opened with\n%s\nwant\n%s", b, reused, advB, adviceOf(b))
		}
		now := elementRecords(rec.CMS)
		for id, was := range made {
			if is, ok := now[id]; ok && is != was {
				t.Fatalf("element %d was %q under %s and is %q after %s", id, was, a, is, b)
			}
		}
		if adv := reflect.ValueOf(sessA).Elem().FieldByName("adv"); !adv.IsNil() {
			t.Fatalf("%s's ended session still holds its advice", a)
		}
	}
	if !reused {
		t.Fatal("no ask reused the runner of the one before in 20 tries")
	}

	var goals []string
	for p := 1; p <= 4; p++ {
		for _, f := range kinshipForms {
			goals = append(goals, fmt.Sprintf(f, fmt.Sprintf("p%03d", p)))
		}
	}
	want := make(map[string]string, len(goals))
	forms := make(map[string]bool)
	for _, g := range goals {
		want[g] = answerSet(t, ref, g)
		forms[adviceOf(g)] = true
	}
	rec := &adviceRecorder{CMS: kinshipCMS(w)}
	eng := New(w.KB, rec, DefaultOptions())
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := range goals {
				g := goals[(i+k*9)%len(goals)]
				if got := answerSet(t, eng, g); got != want[g] {
					t.Errorf("goroutine %d, %s: %s, serially %s", k, g, got, want[g])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, adv := range rec.advice {
		if !forms[adv] {
			t.Fatalf("a session opened with advice no kinship form has:\n%s", adv)
		}
	}
}
