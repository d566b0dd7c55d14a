package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// E12 measures the CMS as a concurrent multi-session server: K sessions
// replay the E10 ablation workload against ONE shared CMS, and we report
// aggregate wall-clock throughput (QPS), per-query latency percentiles, and
// the cache hit rate relative to a serial session. The paper positions the
// CMS between many IE clients and one remote DBMS; with a sharded cache
// manager, atomic stats, and a pooled prefetch pipeline, sessions should
// scale with cores rather than serialize on a global cache lock, and the
// shared cache should keep (or improve) the serial hit rate.

// E12Result is one concurrency level's measurement.
type E12Result struct {
	Sessions int
	Elapsed  time.Duration
	QPS      float64
	P50      time.Duration
	P99      time.Duration
	Stats    bridge.SourceStats
}

// RunE12 replays the E10 workload from k concurrent sessions over one shared
// CMS and aggregates wall-clock metrics. Sessions share the advice, so their
// predictors compose in the replacement registry and their prefetches land in
// one cache.
func RunE12(k int) E12Result {
	w := workload.Chain(53, 700, 24)
	costs := remotedb.DefaultCosts()
	cms := cache.New(remotedb.NewInProcClient(w.Engine(), costs),
		cache.Options{Features: cache.AllFeatures(), Costs: costs,
			ThinkTimeMS: 100, PredictHorizon: 16})

	lats := make([][]time.Duration, k)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := cms.BeginSession(advice.MustParse(e4Advice)).(*cache.Session)
			defer s.End()
			for _, q := range e10Sequence() {
				t0 := time.Now()
				stream, err := s.Query(q)
				if err != nil {
					panic(fmt.Sprintf("E12: %s: %v", q, err))
				}
				stream.Drain("out")
				lats[i] = append(lats[i], time.Since(t0))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	st := cms.Stats()
	return E12Result{
		Sessions: k,
		Elapsed:  elapsed,
		QPS:      float64(st.Queries) / elapsed.Seconds(),
		P50:      pct(0.50),
		P99:      pct(0.99),
		Stats:    st,
	}
}

// E12ConcurrentScaling is the multi-session scaling table: K ∈ {1,2,4,8,16}
// sessions over one shared CMS. Hit rate at K>1 should be no worse than the
// serial session's (sharing a cache only helps); QPS should grow with K up
// to the core count.
func E12ConcurrentScaling() *Table {
	t := &Table{
		ID:     "E12",
		Title:  "concurrent multi-session scaling on one shared CMS",
		Claim:  "the sharded CMS serves concurrent sessions without serializing on the cache: aggregate QPS scales with sessions while the shared cache preserves the serial hit rate",
		Header: []string{"sessions", "QPS", "p50(us)", "p99(us)", "hit rate", "prefetches", "drops"},
	}
	var serialRate float64
	for _, k := range []int{1, 2, 4, 8, 16} {
		r := RunE12(k)
		rate := float64(r.Stats.CacheHits+r.Stats.PartialHits) / float64(r.Stats.Queries)
		if k == 1 {
			serialRate = rate
		}
		t.AddRow(fi(int64(k)), ff(r.QPS),
			fi(r.P50.Microseconds()), fi(r.P99.Microseconds()),
			fp(rate), fi(r.Stats.Prefetches), fi(r.Stats.PrefetchDrops))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d (wall-clock scaling is bounded by available cores; on a single core the table shows lock-contention overhead only)", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("serial hit rate %.1f%% is the parity floor for every K", serialRate*100),
		"latencies are real wall-clock per-query times (not the simulated cost model); sim-clock stats remain per-session deterministic")
	return t
}
