package core

import (
	"context"
	"testing"

	"repro/internal/caql"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// The broad consistency sweep: every workload × strategy × comparator
// answers each query with the answers caql.Fixpoint derives over every
// clause of the KB, each once. This is the whole-system differential test.
func TestWorkloadsStrategiesComparatorsAgree(t *testing.T) {
	workloads := []*workload.Workload{
		workload.Kinship(101, 35),
		workload.Suppliers(102, 12),
		workload.Chain(103, 60, 12),
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			// Reference answers per query.
			var rules []*caql.Query
			for _, ref := range w.KB.Preds() {
				for _, c := range w.KB.Rules(ref) {
					rules = append(rules, caql.NewQuery(c.Head, c.Body))
				}
			}
			derived, _, err := caql.Fixpoint(context.Background(), rules, w.Source())
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			want := make(map[string]map[string]bool)
			for _, q := range w.Queries {
				set := make(map[string]bool)
				for _, tu := range derived[q.Ref()].Tuples() {
					ground := logic.Atom{Pred: q.Pred, Args: make([]logic.Term, len(tu))}
					for i, v := range tu {
						ground.Args[i] = logic.C(v)
					}
					if m, ok := logic.MatchOneWay(q, ground, nil); ok {
						set[logic.Subst(m).String()] = true
					}
				}
				want[q.String()] = set
			}
			for _, strat := range []ie.Strategy{ie.StrategyInterpreted, ie.StrategyConjunction, ie.StrategyCompiled} {
				for _, comp := range []Comparator{ComparatorBrAID, ComparatorLoose, ComparatorExact, ComparatorSingleRel} {
					cfg := DefaultConfig()
					cfg.IE.Strategy = strat
					cfg.Comparator = comp
					client := remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts())
					sys, err := NewSystem(w.KB, client, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range w.Queries {
						sol, err := sys.Ask(q)
						if err != nil {
							t.Fatalf("%s/%s: %s: %v", strat, comp, q, err)
						}
						got := make(map[string]bool)
						for {
							sub, ok := sol.Next()
							if !ok {
								break
							}
							if got[sub.String()] {
								t.Fatalf("%s/%s: %s: answer %s came twice", strat, comp, q, sub)
							}
							got[sub.String()] = true
						}
						if sol.Err() != nil {
							t.Fatalf("%s/%s: %s: %v", strat, comp, q, sol.Err())
						}
						if !sameSet(got, want[q.String()]) {
							t.Fatalf("%s/%s: %s: got %d answers, want %d",
								strat, comp, q, len(got), len(want[q.String()]))
						}
					}
				}
			}
		})
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Sessions over TCP behave identically to in-process for a whole workload.
func TestWorkloadOverTCP(t *testing.T) {
	w := workload.Chain(104, 50, 10)
	srv := remotedb.NewServer(w.Engine())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 1, Costs: remotedb.DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sys, err := NewSystem(w.KB, client, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		sol, err := sys.Ask(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sol.All()
		if sol.Err() != nil {
			t.Fatalf("%s: %v", q, sol.Err())
		}
	}
	if sys.Stats().RemoteRequests == 0 {
		t.Fatal("expected TCP requests")
	}
}
