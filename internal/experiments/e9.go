package experiments

import (
	"fmt"
	"time"

	"repro/internal/caql"
	"repro/internal/subsume"
)

// E9SubsumptionOverhead addresses Section 5.3.3's concern that the richer
// optimization "naturally involves some significant overhead": it measures
// the wall-clock cost of a subsumption pass over a growing cache (find the
// relevant elements for a query, derive from the best) against the simulated
// cost of the remote round trip the pass avoids.
func E9SubsumptionOverhead() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "subsumption-check cost vs cache population",
		Claim:  "the subsumption pass is cheap relative to the remote access it avoids (Section 5.3.3)",
		Header: []string{"elements", "checks/query", "time/query", "vs 50ms round trip"},
	}
	for _, n := range []int{10, 100, 1000} {
		res := RunE9(n)
		t.AddRow(fi(int64(n)), fi(int64(n)), res.perQuery.String(),
			fmt.Sprintf("%.4fx", res.perQuery.Seconds()*1000/50))
	}
	t.Notes = append(t.Notes, "checks are pure CPU; even a 1000-element cache costs a small fraction of one round trip")
	return t
}

type e9Result struct {
	perQuery time.Duration
}

// E9Elements builds n synthetic cache-element definitions over the chain
// schema (exported for the benchmark harness).
func E9Elements(n int) []*caql.Query {
	out := make([]*caql.Query, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, caql.MustParse(fmt.Sprintf(`e%d(X, Z) :- b3(X, "c2", Z) & X >= %d`, i, i%7)))
		case 1:
			out = append(out, caql.MustParse(fmt.Sprintf(`e%d(X, Y, Z) :- b3(X, Y, Z) & Z < %d`, i, 40+i%9)))
		case 2:
			out = append(out, caql.MustParse(fmt.Sprintf(`e%d(X, W) :- b2(X, Z) & b3(Z, "c2", W)`, i)))
		default:
			out = append(out, caql.MustParse(fmt.Sprintf(`e%d(Z) :- b3(%d, "c2", Z)`, i, i%11)))
		}
	}
	return out
}

// E9Query is the probe query used against the element population.
func E9Query() *caql.Query {
	return caql.MustParse(`q(X, Z) :- b3(X, "c2", Z) & X >= 3 & X < 20`)
}

// RunE9 times a full subsumption pass over n cache-element definitions.
func RunE9(n int) e9Result {
	elements := E9Elements(n)
	q := E9Query()
	// Warm-up pass, then timed passes.
	pass := func() {
		for _, e := range elements {
			subsume.DeriveFull(e, q)
		}
	}
	pass()
	const iters = 50
	start := time.Now()
	for i := 0; i < iters; i++ {
		pass()
	}
	return e9Result{perQuery: time.Since(start) / iters}
}
