package experiments

import (
	"fmt"

	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// e2QueryMix builds a CAQL session with heavy *overlap* but few exact
// repeats: a general scan, then instances, ranges and sub-ranges of it. Only
// subsumption-based reuse can serve the non-identical queries locally.
func e2QueryMix() []*caql.Query {
	mk := func(src string) *caql.Query { return caql.MustParse(src) }
	return []*caql.Query{
		mk(`q0(X, Y, Z) :- b3(X, "c2", Z) & b2(Z, Y)`),                // general join view
		mk(`q1(X, Z) :- b3(X, "c2", Z)`),                              // projection of a cached subexpression
		mk(`q2(X, Z) :- b3(X, "c2", Z) & X < 10`),                     // range restriction
		mk(`q3(X, Z) :- b3(X, "c2", Z) & X < 5`),                      // tighter range
		mk(`q4(Z) :- b3(3, "c2", Z)`),                                 // instance
		mk(`q5(Z) :- b3(7, "c2", Z)`),                                 // another instance
		mk(`q1b(P, R) :- b3(P, "c2", R)`),                             // alpha-variant (exact hit)
		mk(`q6(X, Y) :- b3(X, "c2", Z) & b2(Z, Y) & X >= 2 & X <= 6`), // join + range
		mk(`q7(Y) :- b3(4, "c2", Z) & b2(Z, Y)`),                      // bound join instance
		mk(`q8(X, Z) :- b3(X, "c2", Z) & Z != 0`),                     // inequality restriction
	}
}

// E2CachingStrategies compares reuse regimes on the overlap mix: no caching,
// exact-match result caching ([IOAN88]/[SELL87]), single-relation caching
// ([CERI86]), and BrAID's subsumption.
func E2CachingStrategies() *Table {
	t := &Table{
		ID:     "E2",
		Title:  "caching strategy vs reuse on overlapping query mix",
		Claim:  "subsumption over cached views reuses more data than exact-match or single-relation caching (Sections 2, 5.3.2)",
		Header: []string{"strategy", "queries", "remote", "tuples", "full-hits", "partial", "hit-rate", "simResp(ms)"},
	}
	for _, comp := range []core.Comparator{core.ComparatorLoose, core.ComparatorExact, core.ComparatorSingleRel, core.ComparatorBrAID} {
		st := RunE2(comp)
		hitRate := float64(st.CacheHits+st.PartialHits) / float64(st.Queries)
		t.AddRow(string(comp), fi(st.Queries), fi(st.RemoteRequests), fi(st.RemoteTuples),
			fi(st.CacheHits), fi(st.PartialHits), fp(hitRate), ff(st.ResponseSimMS))
	}
	t.Notes = append(t.Notes,
		"singlerel ships whole relations up front (few requests, many tuples); braid reuses overlapping views with bounded transfer")
	return t
}

// RunE2 runs the overlap query mix under one caching comparator.
func RunE2(comp core.Comparator) bridge.SourceStats {
	w := workload.Chain(13, 400, 30)
	client := remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts())
	ds, err := dataSourceFor(comp, client)
	if err != nil {
		panic(err)
	}
	session := ds.BeginSession(nil)
	defer session.End()
	for _, q := range e2QueryMix() {
		stream, err := session.Query(q)
		if err != nil {
			panic(fmt.Sprintf("E2 %s: %s: %v", comp, q, err))
		}
		stream.Drain("out")
	}
	return ds.Stats()
}

// dataSourceFor builds the comparator's data source over a client (shared by
// several experiments).
func dataSourceFor(comp core.Comparator, client remotedb.Client) (bridge.DataSource, error) {
	cfg := core.DefaultConfig()
	cfg.Comparator = comp
	sys, err := core.NewSystem(emptyKB(), client, cfg)
	if err != nil {
		return nil, err
	}
	return sys.DS, nil
}

func emptyKB() *logic.KB { return logic.NewKB() }
