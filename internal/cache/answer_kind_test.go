package cache

import (
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/remotedb"
)

// answerCounts are the counters an answer's kind moves.
type answerCounts struct {
	hits, exact, prefetch, degraded, generalized, partial, lazy int64
}

func readAnswerCounts(c *CMS) answerCounts {
	st := c.Stats()
	return answerCounts{st.CacheHits, st.ExactHits, st.PrefetchHits, st.DegradedHits, st.Generalizations, st.PartialHits, st.LazyAnswers}
}

// TestAnswerKindCounters asks one query of each kind the planner decides
// (remote, exact, subsumed, generalized, covered, partial), some of them
// degraded, prefetched or lazy, and checks the exact change the query makes
// to every answer-kind counter. A query that fails counts nothing.
func TestAnswerKindCounters(t *testing.T) {
	const (
		all2 = `a(X, Y) :- b2(X, Y)`
		all3 = `c(X, Y, Z) :- b3(X, Y, Z)`
		join = `j(X, W) :- b2(X, Z) & b3(Z, "a", W)`
		d1   = `d1(Y) :- b1("a", Y)`
	)
	for _, tc := range []struct {
		name    string
		advice  string
		noCache bool     // Features.ResultCaching off
		warm    []string // asked first, in order
		down    bool     // then the remote goes down and the breaker opens
		query   string
		fails   bool
		want    answerCounts
	}{
		{name: "remote eager", query: all2},
		{name: "remote lazy", noCache: true, query: all2, want: answerCounts{lazy: 1}},
		{name: "exact", warm: []string{all2}, query: all2, want: answerCounts{hits: 1, exact: 1}},
		{name: "subsumed", warm: []string{all3}, query: `i(X, Z) :- b3(X, "a", Z)`, want: answerCounts{hits: 1}},
		{
			// d2(X, 3) prefetches its follower d3(X, 3), which derives the
			// query without being its exact match.
			name: "prefetched subsumed", advice: example1Advice,
			warm:  []string{d1, `d2(X, 3) :- b2(X, Z) & b3(Z, "a", 3)`},
			query: `p(X) :- b3(X, "b", Z) & b1(Z, 3)`,
			want:  answerCounts{hits: 1, prefetch: 1},
		},
		{
			name: "generalized", advice: example1Advice, warm: []string{d1},
			query: `d2(X, 3) :- b2(X, Z) & b3(Z, "a", 3)`,
			want:  answerCounts{generalized: 1},
		},
		{name: "covered", warm: []string{all2, all3}, query: join, want: answerCounts{hits: 1}},
		{name: "partial", warm: []string{all2}, query: join, want: answerCounts{partial: 1}},
		{name: "exact while degraded", warm: []string{all2}, down: true, query: all2, want: answerCounts{hits: 1, exact: 1, degraded: 1}},
		{name: "partial whose residual fails while degraded", warm: []string{all2}, down: true, query: join, fails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine, _ := fixtureEngine(t, 9, 30)
			costs := remotedb.DefaultCosts()
			fc := remotedb.NewFaultClient(remotedb.NewInProcClient(engine, costs), remotedb.FaultConfig{Seed: 1})
			rc := remotedb.NewResilientClient(fc, remotedb.Resilience{
				MaxRetries:      -1,
				BreakerFailures: 1,
				BreakerCooldown: time.Minute,
				Sleep:           func(time.Duration) {},
			})
			f := AllFeatures()
			f.ResultCaching = !tc.noCache
			cms := New(rc, Options{Features: f, Costs: costs, ThinkTimeMS: 1000})
			var adv *advice.Advice
			if tc.advice != "" {
				adv = advice.MustParse(tc.advice)
			}
			s := cms.BeginSession(adv).(*Session)
			defer s.End()
			for _, q := range tc.warm {
				drainQ(t, s, q)
			}
			if tc.down {
				fc.SetDown(true)
				if _, err := s.QueryText(`down(X) :- b1(X, 99)`); err == nil || cms.rdi.Available() {
					t.Fatalf("the remote is down but the CMS is not degraded (err %v)", err)
				}
			}

			before := readAnswerCounts(cms)
			stream, err := s.QueryText(tc.query)
			if tc.fails != (err != nil) {
				t.Fatalf("query error %v, want failure %v", err, tc.fails)
			}
			if err == nil {
				if _, err := stream.DrainErr("out"); err != nil {
					t.Fatal(err)
				}
			}
			after := readAnswerCounts(cms)
			got := answerCounts{
				after.hits - before.hits, after.exact - before.exact, after.prefetch - before.prefetch,
				after.degraded - before.degraded, after.generalized - before.generalized,
				after.partial - before.partial, after.lazy - before.lazy,
			}
			if got != tc.want {
				t.Fatalf("counters moved by %+v, want %+v", got, tc.want)
			}
		})
	}
}
