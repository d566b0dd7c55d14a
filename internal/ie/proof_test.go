package ie

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/workload"
)

// relationOfPairs builds a small binary integer relation.
func relationOfPairs(name string, pairs [][2]int64) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindInt}))
	for _, p := range pairs {
		r.MustAppend(relation.Tuple{relation.Int(p[0]), relation.Int(p[1])})
	}
	return r
}

func TestExplainedSolutions(t *testing.T) {
	kb := mustKB(t, example1KB)
	src := example1Data(rand.New(rand.NewSource(9)), 15)
	eng := New(kb, &mapDS{src: src}, Options{Strategy: StrategyConjunction, Explain: true})
	sol, err := eng.AskText("k1(X, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	sub, proof, ok := sol.NextProof()
	if !ok {
		t.Skip("no solutions with this seed")
	}
	if sub == nil || proof == nil {
		t.Fatal("expected both solution and proof")
	}
	rendered := proof.String()
	// The root cites the goal; rule steps cite rule identifiers; query steps
	// carry witnessing tuples.
	if !strings.Contains(rendered, "k1(X, Y)") {
		t.Errorf("proof missing goal:\n%s", rendered)
	}
	if !strings.Contains(rendered, "by rule r") {
		t.Errorf("proof missing rule identifiers:\n%s", rendered)
	}
	if !strings.Contains(rendered, "<-") {
		t.Errorf("proof missing query witnesses:\n%s", rendered)
	}
	// The k1 rule applies k2, so the proof must have a nested rule step.
	if !strings.Contains(rendered, "of k2/2") {
		t.Errorf("proof missing nested k2 rule step:\n%s", rendered)
	}
}

func TestExplainOffHasNilProofs(t *testing.T) {
	kb := mustKB(t, example1KB)
	src := example1Data(rand.New(rand.NewSource(9)), 15)
	eng := New(kb, &mapDS{src: src}, Options{Strategy: StrategyInterpreted})
	sol, err := eng.AskText("k1(X, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	if _, proof, ok := sol.NextProof(); ok && proof != nil {
		t.Fatal("proofs must be nil when Explain is off")
	}
}

func TestExplainCompiledSummary(t *testing.T) {
	kb := mustKB(t, example1KB)
	src := example1Data(rand.New(rand.NewSource(9)), 15)
	eng := New(kb, &mapDS{src: src}, Options{Strategy: StrategyCompiled, Explain: true})
	sol, err := eng.AskText("k1(X, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	if _, proof, ok := sol.NextProof(); ok {
		if proof == nil || !strings.Contains(proof.String(), "bottom-up") {
			t.Fatalf("compiled proof should be a bottom-up summary, got %v", proof)
		}
	}
}

// Proofs must not leak steps across backtracking branches: each solution's
// proof cites exactly the witnesses of its own derivation.
func TestProofPerSolutionIsolation(t *testing.T) {
	kb := mustKB(t, `
		:- base(p/2).
		q(X, Y) :- p(X, Z), p(Z, Y).
	`)
	p := relationOfPairs("p", [][2]int64{{1, 2}, {2, 3}, {1, 4}, {4, 5}})
	eng := New(kb, &mapDS{src: caql.MapSource{"p": p}},
		Options{Strategy: StrategyInterpreted, Explain: true})
	sol, err := eng.AskText("q(1, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Close()
	seen := 0
	for {
		sub, proof, ok := sol.NextProof()
		if !ok {
			break
		}
		seen++
		y := sub.Walk(logic.V("Y"))
		rendered := proof.String()
		// The derivation via Z=2 must not appear in the Y=5 proof and vice
		// versa: count query steps (exactly 2 per solution).
		if got := strings.Count(rendered, "<-"); got != 2 {
			t.Fatalf("solution Y=%s has %d query witnesses, want 2:\n%s", y, got, rendered)
		}
		switch y.String() {
		case "3":
			if !strings.Contains(rendered, "(2, 3)") || strings.Contains(rendered, "(4, 5)") {
				t.Fatalf("Y=3 proof has wrong witnesses:\n%s", rendered)
			}
		case "5":
			if !strings.Contains(rendered, "(4, 5)") || strings.Contains(rendered, "(2, 3)") {
				t.Fatalf("Y=5 proof has wrong witnesses:\n%s", rendered)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("solutions = %d, want 2", seen)
	}
}

// TestProofTuplesSurviveClose: a proof's query step cites the tuple that
// witnessed it, and the IE closes the segment's stream when its choice pops,
// after which the CMS hands a materialized hit's block of values to a later
// hit. Over a warm CMS, so that every query is a hit and the non-identity
// ones are materialized, the proofs of Explain asks are rendered and their
// query tuples copied; further asks then run on the same engine, and every
// proof's query tuples and rendering must be unchanged.
func TestProofTuplesSurviveClose(t *testing.T) {
	w := workload.Kinship(1, 60)
	cms := kinshipCMS(w)
	opts := DefaultOptions()
	opts.Explain = true
	eng := New(w.KB, cms, opts)
	askForms(t, eng, "p005")
	askForms(t, eng, "p006")

	type step struct{ tuple, copy relation.Tuple }
	var steps []step
	var proofs []*Proof
	var texts []string
	var walk func(p *Proof)
	walk = func(p *Proof) {
		if p.Kind == "query" {
			steps = append(steps, step{p.Tuple, slices.Clone(p.Tuple)})
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	before := cms.Stats()
	for _, f := range kinshipForms {
		sol, err := eng.AskText(fmt.Sprintf(f, "p005"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p, ok := sol.NextProof(); ok; _, p, ok = sol.NextProof() {
			proofs, texts = append(proofs, p), append(texts, p.String())
			walk(p)
		}
		if err := sol.Err(); err != nil {
			t.Fatal(err)
		}
	}
	after := cms.Stats()
	if len(steps) == 0 || after.RemoteRequests != before.RemoteRequests || after.CacheHits == before.CacheHits {
		t.Fatalf("%d query steps; want some, all of them hits: %d remote requests, %d hits",
			len(steps), after.RemoteRequests-before.RemoteRequests, after.CacheHits-before.CacheHits)
	}

	for p := 6; p <= 9; p++ {
		askForms(t, eng, fmt.Sprintf("p%03d", p))
	}
	for i, s := range steps {
		if !s.tuple.Equal(s.copy) {
			t.Fatalf("query step %d: tuple is %v, was %v", i, s.tuple, s.copy)
		}
	}
	for i, p := range proofs {
		if got := p.String(); got != texts[i] {
			t.Fatalf("proof %d now renders\n%s\nwas\n%s", i, got, texts[i])
		}
	}
	t.Logf("%d proofs, %d query steps", len(proofs), len(steps))
}
