package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// E1ICRange tests the paper's central Section 2 claim: "it is simply not the
// case that more fully compiled systems are always preferable. The optimum
// point on the I-C range will differ ... Sometimes results are more useful
// if provided incrementally. Not all solutions to a problem may be needed."
//
// The kinship workload runs under each strategy twice — consuming all
// solutions, each answer once, and consuming only the first solution of each
// query — over a *loose-coupling* data layer, isolating the strategy
// dimension. (E2 then evaluates the bridge itself on a fixed strategy.) An
// additional pair of rows shows the interpreted strategy behind the full
// BrAID CMS: the bridge recovers most of the compiled extreme's transfer
// efficiency while keeping single-solution laziness.
func E1ICRange() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "inference strategy along the I-C range vs demand",
		Claim:  "more compiled is not always better; the optimum depends on how many solutions are demanded (Section 2)",
		Header: []string{"strategy", "data-layer", "demand", "answers", "remote", "tuples", "simResp(ms)"},
	}
	type cfg struct {
		strat ie.Strategy
		braid bool
	}
	cfgs := []cfg{
		{ie.StrategyInterpreted, false},
		{ie.StrategyConjunction, false},
		{ie.StrategyCompiled, false},
		{ie.StrategyInterpreted, true},
	}
	for _, c := range cfgs {
		for _, all := range []bool{true, false} {
			st, answers := RunE1(c.strat, c.braid, all)
			demand := "all"
			if !all {
				demand = "first"
			}
			layer := "loose"
			if c.braid {
				layer = "braid"
			}
			t.AddRow(c.strat.String(), layer, demand, fi(int64(answers)), fi(st.RemoteRequests), fi(st.RemoteTuples), ff(st.ResponseSimMS))
		}
	}
	// The per-problem crossover (Section 2: the optimum differs "even from
	// problem to problem"): for a selective recursive query demanding one
	// solution, the interpreted strategy ships a fraction of the compiled
	// strategy's tuples.
	ancOnly := []logic.Atom{logic.A("anc", logic.CStr("p000"), logic.V("Y"))}
	for _, strat := range []ie.Strategy{ie.StrategyInterpreted, ie.StrategyCompiled} {
		st, answers := RunE1Queries(strat, false, false, ancOnly)
		t.AddRow(strat.String(), "loose", "anc/first", fi(int64(answers)), fi(st.RemoteRequests), fi(st.RemoteTuples), ff(st.ResponseSimMS))
	}
	// Recursion in each of its forms: every strategy answers what the
	// fixpoint derives, the SLD strategies by tabling every call.
	for _, form := range e1ChainForms {
		for _, args := range []string{"0,Y", "X,Y"} {
			for _, strat := range []ie.Strategy{ie.StrategyInterpreted, ie.StrategyConjunction, ie.StrategyCompiled} {
				st, answers := RunE1Chain(strat, form.rec, "anc("+args+")")
				t.AddRow(strat.String(), "loose", form.name+"("+args+")", fi(int64(answers)), fi(st.RemoteRequests), fi(st.RemoteTuples), ff(st.ResponseSimMS))
			}
		}
	}
	t.Notes = append(t.Notes,
		"loose layer: compiled wins all-solutions, interpreted wins selective first-solution transfer; the BrAID layer closes most of the gap for the interpreted strategy",
		fmt.Sprintf("ancL, ancR, ancN: all distinct answers of left-linear, right-linear and non-linear anc on a %d-edge chain", e1ChainEdges))
	return t
}

// e1ChainEdges is the length of the chain E1's recursion rows ask anc over.
const e1ChainEdges = 50

// e1ChainForms are anc's recursive clause in its left-linear, right-linear
// and non-linear forms, with the names E1's rows give them.
var e1ChainForms = []struct{ name, rec string }{
	{"ancL", "anc(X, Y) :- anc(X, Z), e(Z, Y)."},
	{"ancR", "anc(X, Y) :- e(X, Z), anc(Z, Y)."},
	{"ancN", "anc(X, Y) :- anc(X, Z), anc(Z, Y)."},
}

// RunE1Chain asks goal of anc, defined by e(X, Y) and the recursive clause
// rec, over a chain 0 → 1 → … → e1ChainEdges under loose coupling, and
// counts its answers.
func RunE1Chain(strat ie.Strategy, rec, goal string) (stats statsView, answers int) {
	e := relation.New("e", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindInt}))
	for i := int64(0); i < e1ChainEdges; i++ {
		e.MustAppend(relation.Tuple{relation.Int(i), relation.Int(i + 1)})
	}
	kb, err := logic.ParseProgram(":- base(e/2).\nanc(X, Y) :- e(X, Y).\n" + rec)
	if err != nil {
		panic(err)
	}
	q, err := logic.ParseAtom(goal)
	if err != nil {
		panic(err)
	}
	return runE1(&workload.Workload{Name: "chain", KB: kb, Tables: []*relation.Relation{e}, Queries: []logic.Atom{q}}, strat, false, true)
}

// RunE1 runs the kinship session for one strategy/layer/demand cell.
func RunE1(strat ie.Strategy, braidLayer, allSolutions bool) (stats statsView, answers int) {
	return RunE1Queries(strat, braidLayer, allSolutions, nil)
}

// RunE1Queries is RunE1 restricted to the given queries (nil = the whole
// workload mix).
func RunE1Queries(strat ie.Strategy, braidLayer, allSolutions bool, only []logic.Atom) (stats statsView, answers int) {
	w := workload.Kinship(11, 120)
	if only != nil {
		w.Queries = only
	}
	return runE1(w, strat, braidLayer, allSolutions)
}

// runE1 asks w's queries under one strategy and layer, consuming every
// answer of each or only its first, and counts the answers: an ask yields
// each answer once.
func runE1(w *workload.Workload, strat ie.Strategy, braidLayer, allSolutions bool) (stats statsView, answers int) {
	client := remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts())
	cfg := core.Config{
		Comparator: core.ComparatorLoose,
		IE:         ie.Options{Strategy: strat, Reorder: true, Advice: true, PathExpression: true},
	}
	if braidLayer {
		cfg.Comparator = core.ComparatorBrAID
		cfg.CMS = cache.Options{Features: cache.AllFeatures(), Costs: remotedb.DefaultCosts()}
	}
	sys, err := core.NewSystem(w.KB, client, cfg)
	if err != nil {
		panic(err)
	}
	for _, q := range w.Queries {
		sol, err := sys.Ask(q)
		if err != nil {
			panic(fmt.Sprintf("E1 %s: %v", q, err))
		}
		if allSolutions {
			for _, ok := sol.Next(); ok; _, ok = sol.Next() {
				answers++
			}
		} else {
			if _, ok := sol.Next(); ok {
				answers++
			}
			sol.Close()
		}
		if sol.Err() != nil {
			panic(sol.Err())
		}
	}
	st := sys.Stats()
	return statsView{
		RemoteRequests: st.RemoteRequests,
		RemoteTuples:   st.RemoteTuples,
		ResponseSimMS:  st.ResponseSimMS,
	}, answers
}

// statsView keeps experiment code independent of the full stats struct.
type statsView struct {
	RemoteRequests int64
	RemoteTuples   int64
	ResponseSimMS  float64
}
