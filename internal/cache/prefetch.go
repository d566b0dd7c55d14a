package cache

import (
	"sync"

	"repro/internal/advice"
	"repro/internal/caql"
)

// The asynchronous prefetch pipeline. The planner's prefetch decisions
// (Section 5.3.1: items in the same sequence grouping as an observed query
// are "likely to be evaluated when the first item is evaluated") are enqueued
// onto a bounded worker pool instead of being fetched on the query path, so
// predicted fetches overlap the IE's think time in wall-clock terms, not just
// on the simulated clock. The pool is bounded twice: a fixed worker count and
// a fixed queue; when the queue is full the prefetch is dropped (best-effort
// by definition) and counted in PrefetchDrops.
//
// Determinism contract: a session waits for its own in-flight prefetches at
// the top of its next query (think time is when the fetches were "running"),
// so per-session stats and sim-clock accounting match the serial execution.

// prefetchJob is one predicted fetch: the query, which the job owns and the
// element it makes keeps, the view spec it instantiates, and the issuing
// session's clock at issue time.
type prefetchJob struct {
	s        *Session
	q        *caql.Query
	vs       *advice.ViewSpec
	issueSim float64
	canon    string
}

// prefetchWorkers bounds the worker pool every session of a CMS shares; its
// queue holds four jobs per worker.
const prefetchWorkers = 4

// prefetchPool is a bounded, dynamically-sized worker pool. Workers are
// spawned on demand up to prefetchWorkers and exit when the queue drains, so
// an idle CMS holds no goroutines.
type prefetchPool struct {
	jobs chan prefetchJob

	mu     sync.Mutex
	active int
}

func newPrefetchPool() *prefetchPool {
	return &prefetchPool{jobs: make(chan prefetchJob, 4*prefetchWorkers)}
}

// submit enqueues a job, spawning a worker if below the cap. It reports false
// (job dropped) when the queue is saturated.
func (p *prefetchPool) submit(j prefetchJob) bool {
	select {
	case p.jobs <- j:
	default:
		return false
	}
	p.mu.Lock()
	if p.active < prefetchWorkers {
		p.active++
		go p.worker()
	}
	p.mu.Unlock()
	return true
}

func (p *prefetchPool) worker() {
	for {
		select {
		case j := <-p.jobs:
			j.run()
		default:
			// Re-check under the lock so a job enqueued between the failed
			// receive and the exit decision is not stranded without a worker.
			p.mu.Lock()
			select {
			case j := <-p.jobs:
				p.mu.Unlock()
				j.run()
			default:
				p.active--
				p.mu.Unlock()
				return
			}
		}
	}
}

// run executes the predicted fetch and, on success, installs the result as a
// session-private cache element. The element becomes visible to other
// sessions only once the issuing session's clock passes readyAtSim
// (materialization gating; see Element.ownerSID).
func (j prefetchJob) run() {
	s := j.s
	c := s.cms
	defer s.pfWG.Done()
	defer func() {
		s.pmu.Lock()
		delete(s.inflight, j.canon)
		s.pmu.Unlock()
	}()
	// Panic isolation: a panicking prefetch (a speculative fetch by
	// definition) must not take down its worker, let alone the process. The
	// recover is registered after the bookkeeping defers so those still run.
	defer func() {
		if r := recover(); r != nil {
			c.stats.PanicsRecovered.Add(1)
		}
	}()
	if s.ctx.Err() != nil {
		return // session ended while the job sat in the queue
	}
	ext, sim, stamp, err := c.rdi.FetchCtx(s.ctx, j.q)
	if err != nil {
		return // prefetching is best-effort; failed fetches are not counted
	}
	c.stats.Prefetches.Add(1)
	e := newExtensionElement(c.mgr.NewElementID(), j.q, j.canon, ext)
	if j.vs != nil {
		e.AdviceName = j.vs.Name()
	}
	e.prefetched = true
	e.builtEpoch = stamp
	// The fetch proceeds during IE think time: the element becomes ready sim
	// ms after the issue point without charging response time.
	e.readyAtSim = j.issueSim + sim
	e.ownerSID.Store(s.id)
	if c.opts.Features.ResultCaching {
		c.mgr.Insert(e)
	}
	s.pmu.Lock()
	s.private = append(s.private, e)
	s.pmu.Unlock()
}

// enqueuePrefetch registers a predicted fetch (canon is pq.AppendCanonical's)
// with the pool, deduplicating against this session's in-flight prefetches.
// pq may be the caller's scratch: the job keeps a clone. Saturation drops are
// counted.
func (s *Session) enqueuePrefetch(pq *caql.Query, canon []byte, vs *advice.ViewSpec) {
	c := s.cms
	s.pmu.Lock()
	if s.inflight[string(canon)] {
		s.pmu.Unlock()
		return
	}
	if s.inflight == nil {
		s.inflight = make(map[string]bool)
	}
	key := string(canon)
	s.inflight[key] = true
	s.pmu.Unlock()

	s.pfWG.Add(1)
	job := prefetchJob{s: s, q: pq.Clone(), vs: vs, issueSim: s.simNow, canon: key}
	if !c.pf.submit(job) {
		s.pmu.Lock()
		delete(s.inflight, key)
		s.pmu.Unlock()
		s.pfWG.Done()
		c.stats.PrefetchDrops.Add(1)
	}
}

// waitPrefetches blocks until every prefetch this session has issued is
// complete (inserted or abandoned). Called at the top of each query — the
// fetches ran "during" the think time that just elapsed — and at session end.
func (s *Session) waitPrefetches() { s.pfWG.Wait() }

// publishReady publishes the session's private prefetched elements whose
// in-flight period has passed on the session clock, making them visible to
// every other session.
func (s *Session) publishReady() {
	s.pmu.Lock()
	kept := s.private[:0]
	for _, e := range s.private {
		if e.readyAtSim <= s.simNow {
			s.cms.mgr.publish(e)
		} else {
			kept = append(kept, e)
		}
	}
	s.private = kept
	s.pmu.Unlock()
}

// readyRemainder returns how much longer (in sim ms) the session must wait
// before the element's data is present. Only the owning session can observe a
// positive remainder: for every other session the element is either invisible
// (still private) or published, i.e. fully materialized.
func (s *Session) readyRemainder(e *Element) float64 {
	if e.ownerSID.Load() == s.id && e.readyAtSim > s.simNow {
		return e.readyAtSim - s.simNow
	}
	return 0
}
