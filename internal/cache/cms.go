package cache

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/subsume"
)

// Features toggles the CMS's optimization techniques. Every feature has a
// sound fallback, so any subset is valid — the experiment suite ablates them
// individually (Figure 2 of the paper maps techniques to the aspects of the
// impedance mismatch they alleviate).
type Features struct {
	// Subsumption enables reuse of cached views via subsumption and query
	// decomposition (Section 5.3.2). Without it only exact result matches
	// are reused.
	Subsumption bool
	// ExactMatch enables exact-match result-cache lookups.
	ExactMatch bool
	// ResultCaching stores query results as cache elements at all.
	ResultCaching bool
	// Generalization widens consumer-bound queries before remote execution
	// (Section 5.3.1 step 1).
	Generalization bool
	// Prefetch issues predicted queries ahead of demand using the path
	// expression (Section 4.2.2 / 5.3.1).
	Prefetch bool
	// Lazy answers cache-only queries with generators (Section 5.1).
	Lazy bool
	// Indexing builds attribute indexes on consumer-annotated columns
	// (Section 4.2.1).
	Indexing bool
	// Parallel overlaps cache-local and remote subquery execution
	// (Section 5, feature (e)).
	Parallel bool
	// AdviceReplacement protects predicted-soon elements from LRU eviction.
	AdviceReplacement bool
}

// AllFeatures enables everything (the full BrAID configuration).
func AllFeatures() Features {
	return Features{
		Subsumption:       true,
		ExactMatch:        true,
		ResultCaching:     true,
		Generalization:    true,
		Prefetch:          true,
		Lazy:              true,
		Indexing:          true,
		Parallel:          true,
		AdviceReplacement: true,
	}
}

// Options configures a CMS instance.
type Options struct {
	Features Features
	// CacheBytes bounds the cache footprint (<= 0: unbounded).
	CacheBytes int64
	// Costs is the virtual cost model shared with the remote client.
	Costs remotedb.Costs
	// ThinkTimeMS is the simulated IE think time between consecutive queries
	// of a session; prefetches overlap with it.
	ThinkTimeMS float64
	// PredictHorizon is how many queries ahead advice-based predictions
	// look (replacement protection, reuse prediction). Default 8.
	PredictHorizon int
	// QueryTimeout is the default per-query deadline applied when the caller's
	// context carries none (0: no default deadline). A query that exceeds it
	// fails with bridge.ErrDeadlineExceeded.
	QueryTimeout time.Duration
	// MaxInflight bounds concurrently executing queries across all sessions
	// (admission control). Excess queries wait in a bounded queue; when that
	// is also full they are shed with bridge.ErrOverloaded (0: unbounded).
	MaxInflight int
	// MaxQueue bounds the admission wait queue (<= 0: 2x MaxInflight).
	// Ignored unless MaxInflight > 0.
	MaxQueue int
	// Tracer, when non-nil, records spans for each query's lifecycle stages
	// (parse, cache probe, subsumption, generalization, decomposition, remote
	// fetch). Trace IDs propagate to the remote engine over the v2 wire, so a
	// remote-miss query yields one trace spanning both tiers.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the CMS and remote-client counters as
	// read-through metrics (braid_cms_* / braid_pool_* namespaces) plus an
	// owned end-to-end query latency histogram.
	Metrics *obs.Registry
}

// CMS is the Cache Management System. It implements bridge.DataSource and is
// safe for concurrent use by many sessions: the cache manager is sharded, the
// stats are atomic counters, and prefetches run on a bounded worker pool.
type CMS struct {
	opts Options
	rdi  *RDI
	mgr  *Manager
	pf   *prefetchPool
	adm  *admission // nil when admission control is disabled

	// tracer and queryLat are nil when observability is not configured; every
	// use is nil-safe, so the hot path pays nothing.
	tracer   *obs.Tracer
	queryLat *obs.Histogram

	nextSID atomic.Int64
	stats   bridge.StatsCounters

	// idle holds the scratch ended sessions left for later ones.
	idle sync.Pool
}

var _ bridge.DataSource = (*CMS)(nil)

// New builds a CMS over a remote client.
func New(client remotedb.Client, opts Options) *CMS {
	if opts.PredictHorizon <= 0 {
		opts.PredictHorizon = 8
	}
	c := &CMS{
		opts:   opts,
		rdi:    NewRDI(client),
		mgr:    NewManager(opts.CacheBytes),
		pf:     newPrefetchPool(),
		adm:    newAdmission(opts.MaxInflight, opts.MaxQueue),
		tracer: opts.Tracer,
	}
	c.rdi.tracer = opts.Tracer
	if opts.Metrics != nil {
		c.registerMetrics(opts.Metrics)
	}
	return c
}

// registerMetrics exposes the CMS's scattered atomic counters through one
// registry. Everything is read-through — the counters stay authoritative and
// are sampled at scrape time, so registration adds no hot-path accounting.
func (c *CMS) registerMetrics(reg *obs.Registry) {
	st := &c.stats
	reg.CounterFunc("braid_cms_queries_total", "CAQL queries dispatched.", st.Queries.Load)
	reg.CounterFunc("braid_cms_cache_hits_total", "Queries answered entirely from the cache.", st.CacheHits.Load)
	reg.CounterFunc("braid_cms_exact_hits_total", "Full hits that were exact result-cache matches.", st.ExactHits.Load)
	reg.CounterFunc("braid_cms_partial_hits_total", "Queries partially answered from the cache.", st.PartialHits.Load)
	reg.CounterFunc("braid_cms_prefetches_total", "Prefetch requests issued.", st.Prefetches.Load)
	reg.CounterFunc("braid_cms_prefetch_hits_total", "Queries answered by previously prefetched data.", st.PrefetchHits.Load)
	reg.CounterFunc("braid_cms_prefetch_drops_total", "Prefetch requests dropped at a saturated worker pool.", st.PrefetchDrops.Load)
	reg.CounterFunc("braid_cms_generalizations_total", "Queries widened before remote execution.", st.Generalizations.Load)
	reg.CounterFunc("braid_cms_lazy_answers_total", "Queries answered with a generator (lazy).", st.LazyAnswers.Load)
	reg.CounterFunc("braid_cms_index_builds_total", "Attribute indexes built on cached extensions.", st.IndexBuilds.Load)
	reg.CounterFunc("braid_cms_degraded_hits_total", "Cache hits served while the remote was unavailable.", st.DegradedHits.Load)
	reg.CounterFunc("braid_cms_epoch_invalidations_total", "Cached views invalidated after a request observed a newer version of a table they read.", st.EpochInvalidations.Load)
	reg.GaugeFunc("braid_cms_observed_epoch", "Highest backend clock observed on any request.", func() float64 { return float64(c.rdi.ObservedEpoch()) })
	reg.CounterFunc("braid_cms_admitted_total", "Queries past the admission controller.", st.Admitted.Load)
	reg.CounterFunc("braid_cms_queued_total", "Admitted queries that waited in the bounded queue.", st.Queued.Load)
	reg.CounterFunc("braid_cms_shed_total", "Queries rejected with ErrOverloaded.", st.Shed.Load)
	reg.CounterFunc("braid_cms_canceled_total", "Queries aborted by caller cancellation.", st.Canceled.Load)
	reg.CounterFunc("braid_cms_deadline_exceeded_total", "Queries aborted by a deadline.", st.DeadlineExceeded.Load)
	reg.CounterFunc("braid_cms_completed_total", "Queries that returned a stream.", st.Completed.Load)
	reg.CounterFunc("braid_cms_failed_total", "Queries that failed for any other reason.", st.Failed.Load)
	reg.CounterFunc("braid_cms_panics_recovered_total", "Panics isolated to one query or prefetch.", st.PanicsRecovered.Load)
	reg.CounterFunc("braid_cms_evictions_total", "Cache elements evicted.", c.mgr.Evictions)
	reg.GaugeFunc("braid_cms_cache_hit_rate", "Fraction of dispatched queries answered fully from the cache.", func() float64 {
		q := st.Queries.Load()
		if q == 0 {
			return 0
		}
		return float64(st.CacheHits.Load()) / float64(q)
	})
	reg.CounterFunc("braid_pool_requests_total", "Requests issued to the remote DBMS.", func() int64 { return c.rdi.Stats().Requests })
	reg.CounterFunc("braid_pool_catalog_requests_total", "Catalog requests (schema, stats, tables) issued to the remote DBMS.", func() int64 { return c.rdi.Stats().CatalogRequests })
	reg.CounterFunc("braid_pool_tuples_total", "Tuples shipped from the remote DBMS.", func() int64 { return c.rdi.Stats().TuplesReturned })
	reg.CounterFunc("braid_pool_frames_sent_total", "Wire v2 frames written to the remote DBMS.", func() int64 { return c.rdi.Stats().FramesSent })
	reg.CounterFunc("braid_pool_frames_recv_total", "Wire v2 frames received from the remote DBMS.", func() int64 { return c.rdi.Stats().FramesRecv })
	reg.CounterFunc("braid_pool_streams_total", "Streamed exec results opened.", func() int64 { return c.rdi.Stats().Streams })
	reg.CounterFunc("braid_pool_streams_canceled_total", "Remote streams torn down mid-flight.", func() int64 { return c.rdi.Stats().StreamsCanceled })
	c.queryLat = reg.Histogram("braid_cms_query_us", "End-to-end CAQL query latency, microseconds.")
}

// Manager exposes the cache manager (cache model introspection, tests).
func (c *CMS) Manager() *Manager { return c.mgr }

// RDI exposes the remote interface (stats, tests).
func (c *CMS) RDI() *RDI { return c.rdi }

// RelationSchema implements bridge.DataSource / caql.SchemaSource.
func (c *CMS) RelationSchema(name string, arity int) (*relation.Schema, error) {
	return c.rdi.RelationSchema(name, arity)
}

// Stats implements bridge.DataSource, folding in the remote client's
// transfer counters.
func (c *CMS) Stats() bridge.SourceStats {
	st := c.stats.Snapshot()
	remote := c.rdi.Stats()
	st.RemoteRequests = remote.Requests
	st.RemoteTuples = remote.TuplesReturned
	st.RemoteSimMS = remote.SimMS
	st.FramesSent = remote.FramesSent
	st.FramesRecv = remote.FramesRecv
	st.RemoteStreams = remote.Streams
	st.StreamsCanceled = remote.StreamsCanceled
	if remote.Streams > 0 {
		st.FirstTupleMS = float64(remote.FirstTupleNS) / float64(remote.Streams) / 1e6
	}
	st.Evictions = c.mgr.Evictions()
	if rs, ok := c.rdi.Resilience(); ok {
		st.Retries = rs.Retries
		st.RemoteFailures = rs.Failures
		st.BreakerOpens = rs.BreakerOpens
		st.StreamResumes = rs.StreamResumes
	}
	return st
}

// Degraded reports whether the CMS is in cache-only degraded mode (the
// remote DBMS is unavailable). Cached and subsumable queries keep working;
// queries that need the remote fail fast with remotedb.ErrRemoteUnavailable.
func (c *CMS) Degraded() bool { return !c.rdi.Available() }

// BeginSession implements bridge.DataSource. A session accepts optional
// advice and then a sequence of CAQL queries (Section 3). Each session gets a
// unique ID; advice-driven replacement predictors are registered per session
// so concurrent sessions' advice compose (the eviction victim is the element
// no session predicts a near reuse for).
//
// A session runs on the scratch of one that has ended, when the CMS kept one
// (see scratch), and hands out again the streams that session's consumer
// closed before End. It starts with a new ID, context and clock, compiles
// its tracker and memoises its followers into the scratch's storage, and
// keeps nothing of the ended session but the capacity of its buffers. The
// session reads adv until End and keeps no pointer into it after.
func (c *CMS) BeginSession(adv *advice.Advice) bridge.Session {
	sc, _ := c.idle.Get().(*scratch)
	if sc == nil {
		sc = c.newScratch()
	}
	s := &Session{cms: c, id: c.nextSID.Add(1), adv: adv, scratch: sc}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.streams, sc.freeStreams = sc.freeStreams, bridge.StreamPool{}
	if adv != nil && adv.Path != nil {
		sc.trk.Reset(adv.Path)
		sc.tracker = &sc.trk
	}
	if c.opts.Features.AdviceReplacement && sc.tracker != nil {
		c.mgr.RegisterPredictor(s.id, sc.predict)
	}
	return s
}

// Session is a CMS session. A session models a single IE's query sequence, so
// its own methods are not safe for concurrent use — but any number of
// sessions may run against one CMS concurrently; open one session per client.
//
// A Session is the handle of one session and holds what is that session's
// alone: its ID, context, clock and stream pool. What it reuses it borrows
// from the CMS (scratch) and gives back at End. A stream the session handed
// out keeps pointing at the handle, never at the scratch, so a stream closed
// or read after End goes back to, or charges, the ended session, never the
// session that borrows the scratch next.
type Session struct {
	cms *CMS
	id  int64
	adv *advice.Advice

	// ctx is the session's lifetime context: End cancels it, which aborts the
	// session's in-flight prefetches and poisons its outstanding lazy streams.
	ctx    context.Context
	cancel context.CancelFunc
	// callerCtx is the context of the query currently being planned; lazy
	// streams capture it at creation (session methods are serial, so the
	// scratch field is safe — see the concurrency note above).
	callerCtx context.Context

	simNow  float64
	queries int64
	ended   bool

	// streams recycles the session's eager hit streams, and their blocks of
	// answer values, as the IE closes them. The free ones come from the
	// scratch at BeginSession and go back to it at End.
	streams bridge.StreamPool

	// scratch is nil once the session has ended.
	*scratch
}

// scratch is what a session reuses from query to query, and what the CMS
// keeps of an ended session for the next one: its buffers, its free streams,
// and its memos, emptied. The CMS keeps it in a sync.Pool, not a free list,
// so that what it keeps is the collector's to drop: kept scratch costs no
// live heap once two collections pass it by.
type scratch struct {
	// tracker follows the session's path expression: it is trk, recompiled
	// for the session, or nil when the session has none. predict is the
	// replacement predictor that reads it, made once per scratch.
	tracker *advice.Tracker
	trk     advice.Tracker
	predict func(e *Element) (int, bool)

	// genSeen counts occurrences of each query's fully-generalized canonical
	// form; repeated instances trigger generalization even without a path
	// expression (frequency-based fallback).
	genSeen map[string]int
	// Scratch the planning steps reuse from query to query: canon holds the
	// canonical form being looked up, prep the query's prepared form, deriv
	// the derivation step 2 found, cands the probe's survivors, and rows the
	// index lookup's rows. No answer points into any of them: a lazy answer
	// copies its derivation. prep's Query is the last one prepared, until the
	// next query replaces it; nothing reads it between queries, so the
	// session makes no use of a query the caller has got back.
	canon []byte
	prep  subsume.PreparedBlock
	deriv subsume.DerivationBlock
	cands []*Element
	rows  []relation.Tuple
	// freeStreams is the stream pool of the session that ended last.
	freeStreams bridge.StreamPool
	// follower is the block prefetch instantiates each follower into.
	follower followerBlock
	// followers memoises advice.SequenceFollowers per view name: the path
	// expression is fixed for the session, and only view names are asked.
	// Its lists are carved from followerNames.
	followers     map[string][]string
	followerNames []string

	// Async prefetch bookkeeping (prefetch.go): pfWG tracks in-flight
	// prefetch jobs, pmu guards the dedup set and the private (not yet
	// published) prefetched elements.
	pfWG     sync.WaitGroup
	pmu      sync.Mutex
	inflight map[string]bool
	private  []*Element
}

// newScratch makes a session's scratch, with the predictor that reads
// whichever tracker the session using the scratch has.
func (c *CMS) newScratch() *scratch {
	sc := &scratch{genSeen: make(map[string]int)}
	sc.predict = func(e *Element) (int, bool) {
		if e.AdviceName == "" {
			return 0, false
		}
		return sc.tracker.Distance(c.opts.PredictHorizon, e.AdviceName)
	}
	return sc
}

// SimNow returns the session's virtual clock (milliseconds).
func (s *Session) SimNow() float64 { return s.simNow }

// End implements bridge.Session. It cancels the session context first — so
// in-flight prefetch workers abort their remote calls instead of being waited
// out — then waits for those workers, publishes the private elements that did
// materialize (a departing session has no clock left to wait on), withdraws
// its replacement predictor, drops its advice, and gives its scratch back to
// the CMS for the next session. The free streams go with it: a stream closed
// before End is reused by a later session, one closed after End is not.
func (s *Session) End() {
	if s.ended {
		return
	}
	s.ended = true
	s.cancel()
	s.waitPrefetches()
	s.pmu.Lock()
	for _, e := range s.private {
		e.publish()
	}
	s.pmu.Unlock()
	s.cms.mgr.UnregisterPredictor(s.id)

	sc := s.scratch
	s.scratch, s.adv = nil, nil
	sc.freeStreams, s.streams = s.streams, bridge.StreamPool{}
	if sc.tracker != nil {
		sc.trk.Reset(nil) // drops the view names it held
		sc.tracker = nil
	}
	clear(sc.genSeen)
	clear(sc.followers)
	clear(sc.followerNames)
	sc.followerNames = sc.followerNames[:0]
	clear(sc.inflight)
	clear(sc.private)
	sc.private = sc.private[:0]
	s.cms.idle.Put(sc)
}

// QueryText parses and answers a CAQL query.
func (s *Session) QueryText(src string) (*bridge.Stream, error) {
	return s.QueryTextCtx(context.Background(), src)
}

// QueryTextCtx parses and answers a CAQL query under a context.
func (s *Session) QueryTextCtx(ctx context.Context, src string) (*bridge.Stream, error) {
	_, psp := s.cms.tracer.Start(ctx, "cms.parse")
	q, err := caql.Parse(src)
	psp.End()
	if err != nil {
		return nil, err
	}
	return s.QueryCtx(ctx, q)
}

// advance moves the session clock by d simulated milliseconds and accounts
// it as response time.
func (s *Session) advance(d float64) {
	s.simNow += d
	s.cms.stats.AddResponseSimMS(d)
}

// advanceLocal additionally accounts CMS-local processing time.
func (s *Session) advanceLocal(d float64) {
	s.advance(d)
	s.cms.stats.AddLocalSimMS(d)
}

// RelationStats implements bridge.DataSource from the RDI's copy of the
// remote catalog's statistics.
func (c *CMS) RelationStats(name string) (remotedb.TableStats, error) {
	return c.rdi.TableStats(name)
}
