package experiments

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/remotedb"
	"repro/internal/subsume"
	"repro/internal/workload"
)

// E9SubsumptionOverhead addresses Section 5.3.3's concern that the richer
// optimization "naturally involves some significant overhead": it measures
// what the CMS's step 2 does for one query against a growing cache (probe the
// signature index for the elements that may derive the query, run the
// matcher on the survivors) against the simulated cost of the remote round
// trip the pass avoids.
func E9SubsumptionOverhead() *Table {
	t := &Table{
		ID:        "E9",
		Title:     "subsumption-check cost vs cache population",
		Claim:     "the subsumption pass is cheap relative to the remote access it avoids (Section 5.3.3)",
		Header:    []string{"elements", "survivors", "match calls", "time/query", "vs 50ms round trip"},
		WallClock: []bool{3: true, 4: true},
	}
	for _, n := range []int{10, 100, 1000} {
		res := RunE9(n)
		t.AddRow(fi(int64(res.resident)), fi(int64(res.survivors)), fi(int64(res.matchCalls)), res.perQuery.String(),
			fmt.Sprintf("%.4fx", res.perQuery.Seconds()*1000/50))
	}
	t.Notes = append(t.Notes,
		"survivors are the elements the index hands the matcher; the rest are refused by hash or by an allocation-free check",
		"time/query is wall clock on this host; the counts repeat")
	return t
}

type e9Result struct {
	resident   int // elements in the cache
	survivors  int // returned by the probe, per query
	matchCalls int // matcher runs, per query
	perQuery   time.Duration
}

// E9Elements builds n distinct cache-element definitions over the chain
// schema: a quarter each of range selections under a shared constant, range
// selections with no constant, two-relation joins, and point selections.
func E9Elements(n int) []*caql.Query {
	out := make([]*caql.Query, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, caql.MustParse(fmt.Sprintf(`e%d(X, Z) :- b3(X, "c2", Z) & X >= %d`, i, i)))
		case 1:
			out = append(out, caql.MustParse(fmt.Sprintf(`e%d(X, Y, Z) :- b3(X, Y, Z) & Z < %d`, i, 40+i)))
		case 2:
			out = append(out, caql.MustParse(fmt.Sprintf(`e%d(X, W) :- b2(X, Z) & b3(Z, "c2", W) & X >= %d`, i, i)))
		default:
			out = append(out, caql.MustParse(fmt.Sprintf(`e%d(Z) :- b3(%d, "c2", Z)`, i, i)))
		}
	}
	return out
}

// E9Query is the probe query used against the element population. Of
// E9Elements only e0 (X >= 0) derives it.
func E9Query() *caql.Query {
	return caql.MustParse(`q(X, Z) :- b3(X, "c2", Z) & X >= 3 & X < 20`)
}

// RunE9 loads a CMS's cache with n element definitions — each fetched from
// an in-process engine and cached as itself, reuse switched off — and then
// times the subsumption pass for the probe query as the planner runs it: one
// index probe, one matcher call per survivor.
func RunE9(n int) e9Result {
	w := workload.Chain(29, 200, 16)
	costs := remotedb.DefaultCosts()
	cms := cache.New(remotedb.NewInProcClient(w.Engine(), costs),
		cache.Options{Features: cache.Features{ResultCaching: true}, Costs: costs})
	s := cms.BeginSession(nil)
	for _, e := range E9Elements(n) {
		stream, err := s.Query(e)
		if err != nil {
			panic(fmt.Sprintf("E9: %v", err))
		}
		stream.Drain("e")
	}
	s.End()

	mgr, q := cms.Manager(), E9Query()
	res := e9Result{resident: mgr.Len()}
	pass := func() {
		res.survivors, res.matchCalls = 0, 0
		for _, e := range mgr.CandidatesFor(q) {
			res.survivors++
			res.matchCalls++
			subsume.DeriveFull(e.Def, q)
		}
	}
	pass() // warm-up
	const iters = 50
	start := time.Now()
	for i := 0; i < iters; i++ {
		pass()
	}
	res.perQuery = time.Since(start) / iters
	return res
}
