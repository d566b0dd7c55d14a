package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/remotedb"
	"repro/internal/workload"
)

// kinshipForms are the question forms of the benchmark's ie_ask workload, in
// its order.
var kinshipForms = []string{"uncle(X, %s)?", "cousin(%s, Y)?", "anc(%s, Y)?", "grandfather(X, %s)?",
	"brother(X, %s)?", "sibling(%s, Y)?", "grandparent(%s, Y)?"}

// kinshipQuestions is every form asked of every one of people persons, in an
// order drawn from seed, starting with brother(X, p001)?, the ask that makes
// the CMS fetch parent and male whole, as every pass of ie_ask starts.
func kinshipQuestions(people int, seed int64) []string {
	order := rand.New(rand.NewSource(seed)).Perm(people * len(kinshipForms))
	first := 1*len(kinshipForms) + 4 // brother(X, p001)?
	for i, j := range order {
		if j == first {
			order[0], order[i] = order[i], order[0]
		}
	}
	out := make([]string, len(order))
	for i, j := range order {
		out[i] = fmt.Sprintf(kinshipForms[j%len(kinshipForms)], fmt.Sprintf("p%03d", j/len(kinshipForms)))
	}
	return out
}

// BenchmarkKinshipAsks asks ie_ask's 840 questions, over the same forest
// (workload.Kinship(1, 120)), on a warm system over the in-process client:
// the IE and the CMS's hit path, without the wire. An iteration is one pass
// of the 840 asks, every answer drawn; it reports the time, allocations,
// bytes and CAQL queries per ask.
func BenchmarkKinshipAsks(b *testing.B) {
	w := workload.Kinship(1, 120)
	sys, err := NewSystem(w.KB, remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts()), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	questions := kinshipQuestions(120, 1)
	pass := func() {
		for _, q := range questions {
			sol, err := sys.AskText(q)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, ok := sol.Next(); !ok {
					break
				}
			}
			if err := sol.Err(); err != nil {
				b.Fatalf("%s: %v", q, err)
			}
		}
	}
	pass() // warm: parent and male resident, every index built
	queries := sys.Stats().Queries
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	asks := float64(b.N * len(questions))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/asks, "ns/ask")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/asks, "allocs/ask")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/asks, "B/ask")
	b.ReportMetric(float64(sys.Stats().Queries-queries)/asks, "queries/ask")
}
