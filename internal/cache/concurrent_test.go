package cache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/advice"
	"repro/internal/caql"
)

// concurrentWorkload is the per-session query mix for the stress tests: exact
// repeats (result-cache hits), narrowing instances (subsumption), multi-atom
// queries sharing subexpressions (decomposition), and enough distinct results
// to force evictions under a tight budget. Queries are parameterized by the
// session index so sessions overlap on some views and diverge on others.
func concurrentWorkload(i int) []string {
	k := i % 4
	return []string{
		`w(X, Y) :- b2(X, Y)`,
		fmt.Sprintf(`w%d(X) :- b2(X, %d)`, k, k),
		`w(X, Y) :- b2(X, Y)`, // exact repeat: hit
		fmt.Sprintf(`n%d(X) :- b2(X, %d) & b2(X, X)`, k, k),
		fmt.Sprintf(`j%d(X, Z) :- b2(X, %d) & b3(X, "a", Z)`, k, k),
		fmt.Sprintf(`s%d(Y) :- b1("%c", Y)`, k, 'a'+byte(k)),
		fmt.Sprintf(`w%d(X) :- b2(X, %d)`, k, k), // repeat: hit or re-derive
		fmt.Sprintf(`big%d(X, Y, Z) :- b3(X, "%c", Y) & b2(Y, Z)`, i, 'a'+byte(i%4)),
	}
}

// TestConcurrentMixedWorkload runs 8 goroutine sessions of mixed workload (exact
// hits, subsumption, decomposition, and — with a tight budget — evictions)
// against one shared CMS and checks every answer against serial caql.Eval.
// Run under -race this is the concurrency soundness gate for the sharded
// manager, the atomic stats, and the async prefetch pipeline.
func TestConcurrentMixedWorkload(t *testing.T) {
	for _, budget := range []int64{0, 2048} {
		name := "unbounded"
		if budget > 0 {
			name = "tightBudget"
		}
		t.Run(name, func(t *testing.T) {
			e, src := fixtureEngine(t, 42, 40)
			cms := newCMS(t, e, Options{
				Features:    AllFeatures(),
				CacheBytes:  budget,
				ThinkTimeMS: 100,
			})

			const sessions = 8
			var wg sync.WaitGroup
			errs := make(chan error, sessions*16)
			for i := 0; i < sessions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					adv := advice.MustParse(example1Advice)
					s := cms.BeginSession(adv).(*Session)
					defer s.End()
					for round := 0; round < 3; round++ {
						for _, qs := range concurrentWorkload(i) {
							q, err := caql.Parse(qs)
							if err != nil {
								errs <- err
								return
							}
							stream, err := s.Query(q)
							if err != nil {
								errs <- fmt.Errorf("session %d %q: %w", i, qs, err)
								return
							}
							got := stream.Drain("out")
							want, err := caql.Eval(q, src)
							if err != nil {
								errs <- err
								return
							}
							if !got.EqualAsSet(want) {
								errs <- fmt.Errorf("session %d %q: got %d tuples, want %d",
									i, qs, got.Len(), want.Len())
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			st := cms.Stats()
			if st.CacheHits == 0 {
				t.Error("concurrent workload should produce cache hits")
			}
			if budget > 0 && st.Evictions == 0 {
				t.Error("tight budget should force evictions")
			}
			if budget > 0 && cms.Manager().SizeBytes() > budget {
				t.Errorf("cache over budget after run: %d > %d", cms.Manager().SizeBytes(), budget)
			}
			// Counter sanity: every query is accounted exactly once.
			if want := int64(sessions * 3 * len(concurrentWorkload(0))); st.Queries != want {
				t.Errorf("Queries = %d, want %d", st.Queries, want)
			}
		})
	}
}

// TestConcurrentHitRateParity: K concurrent sessions replaying the same
// workload against a shared cache must collectively hit at least as often as
// one serial session does on its own cache — sharing can only help (the
// prefetch visibility gate must not hide published elements).
func TestConcurrentHitRateParity(t *testing.T) {
	runOnce := func(sessions int) (hits, queries int64) {
		e, _ := fixtureEngine(t, 7, 40)
		cms := newCMS(t, e, Options{Features: AllFeatures(), ThinkTimeMS: 100})
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := cms.BeginSession(advice.MustParse(example1Advice)).(*Session)
				defer s.End()
				for round := 0; round < 2; round++ {
					for _, qs := range concurrentWorkload(0) {
						stream, err := s.QueryText(qs)
						if err != nil {
							t.Error(err)
							return
						}
						stream.Drain("out")
					}
				}
			}()
		}
		wg.Wait()
		st := cms.Stats()
		return st.CacheHits + st.PartialHits, st.Queries
	}

	serialHits, serialQ := runOnce(1)
	concHits, concQ := runOnce(4)
	serialRate := float64(serialHits) / float64(serialQ)
	concRate := float64(concHits) / float64(concQ)
	// Cold-cache races allow ~one duplicate miss per session per view, so
	// parity is asserted up to a one-query-per-round tolerance.
	tol := 1.0 / float64(len(concurrentWorkload(0)))
	if concRate < serialRate-tol {
		t.Errorf("shared-cache hit rate %.3f below serial %.3f (tolerance %.3f)", concRate, serialRate, tol)
	}
}

// TestConcurrentEvictionUnderInsert hammers insert+evict from many sessions
// with a budget half of what they insert, so that inserts keep sweeping,
// checking the manager's bookkeeping stays consistent (no negative sizes,
// len matches elements) — the lock-ordering stress for evictMu + shard locks.
func TestConcurrentEvictionUnderInsert(t *testing.T) {
	e, _ := fixtureEngine(t, 9, 30)
	fill := func(cms *CMS) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := cms.BeginSession(nil).(*Session)
				defer s.End()
				for j := 0; j < 10; j++ {
					qs := fmt.Sprintf(`v%d_%d(X, Y) :- b3(X, "%c", Y)`, i, j, 'a'+byte((i+j)%4))
					stream, err := s.QueryText(qs)
					if err != nil {
						t.Error(err)
						return
					}
					stream.Drain("out")
				}
			}(i)
		}
		wg.Wait()
	}
	budget := halfOfFill(t, e, fill)
	cms := newCMS(t, e, Options{Features: AllFeatures(), CacheBytes: budget})
	fill(cms)
	m := cms.Manager()
	if got := m.SizeBytes(); got > budget {
		t.Errorf("cache over its %d-byte budget: %d", budget, got)
	}
	if len(m.Elements()) != m.Len() {
		t.Errorf("element snapshot (%d) disagrees with Len (%d)", len(m.Elements()), m.Len())
	}
	if m.Evictions() == 0 {
		t.Errorf("expected evictions under a %d-byte budget", budget)
	}
}
