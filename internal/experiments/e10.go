package experiments

import (
	"fmt"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// E10FeatureAblation is the reproduction's Figure 2 analogue: the paper maps
// each CMS technique to the aspects of the impedance mismatch it alleviates;
// this experiment measures each technique's contribution by disabling one at
// a time on a fixed advice-driven session (the Example 1 shape with repeated
// consumer-bound instances — the workload every technique touches).
func E10FeatureAblation() *Table {
	t := &Table{
		ID:     "E10",
		Title:  "feature ablation: full BrAID minus one technique at a time",
		Claim:  "each technique of Figure 2 contributes to alleviating a distinct aspect of the impedance mismatch",
		Header: []string{"configuration", "remote", "tuples", "hits", "simResp(ms)"},
	}
	type cfg struct {
		name string
		mut  func(*cache.Features)
	}
	cfgs := []cfg{
		{"full braid", func(f *cache.Features) {}},
		{"- subsumption", func(f *cache.Features) { f.Subsumption = false }},
		{"- exact-match", func(f *cache.Features) { f.ExactMatch = false }},
		{"- result-caching", func(f *cache.Features) { f.ResultCaching = false }},
		{"- generalization", func(f *cache.Features) { f.Generalization = false }},
		{"- prefetch", func(f *cache.Features) { f.Prefetch = false }},
		{"- indexing", func(f *cache.Features) { f.Indexing = false }},
		{"- parallel", func(f *cache.Features) { f.Parallel = false }},
		{"all off (loose)", func(f *cache.Features) { *f = cache.Features{} }},
	}
	for _, c := range cfgs {
		f := cache.AllFeatures()
		c.mut(&f)
		st := RunE10(f)
		t.AddRow(c.name, fi(st.RemoteRequests), fi(st.RemoteTuples),
			fi(st.CacheHits+st.PartialHits), ff(st.ResponseSimMS))
	}
	t.Notes = append(t.Notes,
		"the session mixes repeats, instances, decomposable joins and follower chains so every technique participates",
		"request counts are not monotone: without prefetch the generalized element covers the followers (fewer, wider fetches); without result caching, generalization refetches its wide result every time — the techniques interact")
	return t
}

// e10Sequence is the ablation session's query list: d1 once, then (d2, d3)
// instance pairs (prefetch + generalization territory), an exact repeat, and
// decomposable joins (subsumption + parallel territory).
func e10Sequence() []*caql.Query {
	qs := []*caql.Query{caql.MustParse(`d1(Y) :- b1("c1", Y)`)}
	d2t := caql.MustParse(`d2(X, Y) :- b2(X, Z) & b3(Z, "c2", Y)`)
	d3t := caql.MustParse(`d3(X, Y) :- b3(X, "c3", Z) & b1(Z, Y)`)
	for c := 0; c < 6; c++ {
		bind := map[string]relation.Value{"Y": relation.Int(int64(c))}
		qs = append(qs, d2t.Instantiate(bind), d3t.Instantiate(bind))
	}
	qs = append(qs,
		caql.MustParse(`d1(Y) :- b1("c1", Y)`), // exact repeat
		caql.MustParse(`j1(X, W) :- b2(X, Z) & b3(Z, "c2", W) & W != 1`),
		caql.MustParse(`j2(X, W) :- b2(X, Z) & b3(Z, "c2", W) & W != 2`))
	return qs
}

// RunE10 runs the ablation session under the given feature set.
func RunE10(f cache.Features) bridge.SourceStats {
	w := workload.Chain(53, 700, 24)
	costs := remotedb.DefaultCosts()
	cms := cache.New(remotedb.NewInProcClient(w.Engine(), costs),
		cache.Options{Features: f, Costs: costs, ThinkTimeMS: 100, PredictHorizon: 16})
	adv := advice.MustParse(e4Advice)
	s := cms.BeginSession(adv).(*cache.Session)
	defer s.End()

	for _, q := range e10Sequence() {
		stream, err := s.Query(q)
		if err != nil {
			panic(fmt.Sprintf("E10: %s: %v", q, err))
		}
		stream.Drain("out")
	}

	return cms.Stats()
}
