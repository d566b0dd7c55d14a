package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/ie"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

func testSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	w := workload.Kinship(3, 40)
	client := remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts())
	sys, err := NewSystem(w.KB, client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDefaultConfigSystem(t *testing.T) {
	sys := testSystem(t, DefaultConfig())
	sol, err := sys.AskText("grandparent(X, Z)?")
	if err != nil {
		t.Fatal(err)
	}
	n := len(sol.All())
	if sol.Err() != nil {
		t.Fatal(sol.Err())
	}
	if n == 0 {
		t.Fatal("expected grandparent answers")
	}
	if sys.CMS() == nil {
		t.Fatal("BrAID comparator should expose the CMS")
	}
	if sys.Stats().Queries == 0 {
		t.Fatal("stats should count queries")
	}
}

func TestComparatorsProduceSameAnswers(t *testing.T) {
	var counts []int
	for _, comp := range []Comparator{ComparatorBrAID, ComparatorLoose, ComparatorExact, ComparatorSingleRel} {
		cfg := DefaultConfig()
		cfg.Comparator = comp
		sys := testSystem(t, cfg)
		sol, err := sys.AskText("uncle(X, Y)?")
		if err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		seen := map[string]bool{}
		for {
			sub, ok := sol.Next()
			if !ok {
				break
			}
			seen[sub.String()] = true
		}
		if sol.Err() != nil {
			t.Fatalf("%s: %v", comp, sol.Err())
		}
		counts = append(counts, len(seen))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("comparators disagree: %v", counts)
		}
	}
}

func TestComparatorCMSExposure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Comparator = ComparatorLoose
	sys := testSystem(t, cfg)
	if sys.CMS() == nil {
		t.Fatal("loose comparator is a featureless CMS; it should still be exposed")
	}
	cfg.Comparator = ComparatorSingleRel
	sys = testSystem(t, cfg)
	if sys.CMS() == nil {
		t.Fatal("singlerel wraps a CMS; it should be exposed")
	}
}

func TestUnknownComparator(t *testing.T) {
	w := workload.Kinship(3, 10)
	client := remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts())
	if _, err := NewSystem(w.KB, client, Config{Comparator: "psychic"}); err == nil {
		t.Fatal("unknown comparator should error")
	}
}

func TestStrategyOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IE.Strategy = ie.StrategyCompiled
	cfg.CMS = cache.Options{Features: cache.AllFeatures(), Costs: remotedb.DefaultCosts()}
	sys := testSystem(t, cfg)
	sol, err := sys.AskText(`anc("p000", Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	sol.All()
	if sol.Err() != nil {
		t.Fatal(sol.Err())
	}
}

// TestFirstAnswerRequestsAreDeterministic: the IE searches only while a
// Next call waits, so asking, taking one answer and closing issues the same
// CAQL queries every time, whatever the scheduler does after the close.
func TestFirstAnswerRequestsAreDeterministic(t *testing.T) {
	w := workload.Kinship(11, 60)
	for _, strat := range []ie.Strategy{ie.StrategyInterpreted, ie.StrategyConjunction} {
		var first int64
		for run := 0; run < 20; run++ {
			cfg := DefaultConfig()
			cfg.Comparator = ComparatorLoose
			cfg.IE.Strategy = strat
			sys, err := NewSystem(w.KB, remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range w.Queries {
				sol, err := sys.Ask(q)
				if err != nil {
					t.Fatal(err)
				}
				sol.Next()
				sol.Close()
				if sol.Err() != nil {
					t.Fatalf("%s: %v", q, sol.Err())
				}
			}
			got := sys.Stats().RemoteRequests
			if run == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s run %d: %d remote requests, run 0 issued %d", strat, run, got, first)
			}
		}
	}
}
