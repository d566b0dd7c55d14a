package cache

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/subsume"
)

// This file is the Query Planner/Optimizer (Figure 5) and the Execution
// Monitor. Planning follows the paper's three steps (Section 5.3):
//
//  1. determine the query to be evaluated (possibly a generalization of the
//     IE-query, prefetching extra data for predicted future instances);
//  2. determine the relevant cache elements via subsumption;
//  3. generate a plan: a partially ordered set of subqueries split between
//     the Cache Manager and the remote DBMS, executed in parallel when
//     possible.

// Query implements bridge.Session.
func (s *Session) Query(q *caql.Query) (*bridge.Stream, error) {
	return s.QueryCtx(context.Background(), q)
}

// QueryCtx implements bridge.Session. It is the single dispatch point for a
// query: admission control, the default per-query deadline, panic isolation,
// and outcome classification all live here, so the conservation invariant
// (Queries = Completed + Canceled + DeadlineExceeded + Shed + Failed) holds
// by construction — every counted query flows through exactly one
// ClassifyOutcome call.
func (s *Session) QueryCtx(ctx context.Context, q *caql.Query) (stream *bridge.Stream, err error) {
	if verr := q.Validate(); verr != nil {
		return nil, verr // malformed, never dispatched: not a counted query
	}
	c := s.cms
	c.stats.Queries.Add(1)
	// Root span of the query's trace: every stage span below (parse happens in
	// QueryTextCtx, before dispatch) and the engine's remote spans hang off it.
	ctx, sp := c.tracer.Start(ctx, "cms.query")
	sp.Set("query", q.Name())
	var lat0 time.Time
	if c.queryLat != nil {
		lat0 = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			// Panic isolation: a panic while planning or executing one query
			// fails that query on that session; the CMS and every other
			// session keep running.
			c.stats.PanicsRecovered.Add(1)
			stream = nil
			err = fmt.Errorf("cache: query %s panicked: %v", q.Name(), r)
		}
		err = liftCtxErr(err)
		c.stats.ClassifyOutcome(err)
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
		if !lat0.IsZero() {
			c.queryLat.Observe(time.Since(lat0).Microseconds())
		}
	}()
	if err = bridge.CtxError(ctx); err != nil {
		return nil, err
	}
	if serr := s.ctx.Err(); serr != nil {
		return nil, fmt.Errorf("%w: session ended: %w", bridge.ErrCanceled, serr)
	}
	if c.adm != nil {
		var release func()
		if release, err = c.adm.acquire(ctx, &c.stats); err != nil {
			return nil, err
		}
		defer release()
	} else {
		c.stats.Admitted.Add(1)
	}
	// Default deadline: applied only when the caller brought none. The
	// derived context dies when this call returns, so it governs eager work
	// only; lazy streams watch the caller's context (see streamCheck).
	qctx := ctx
	if c.opts.QueryTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			qctx, cancel = context.WithTimeout(ctx, c.opts.QueryTimeout)
			defer cancel()
		}
	}
	s.callerCtx = ctx
	return s.dispatch(qctx, q)
}

// liftCtxErr maps raw context errors surfacing from deep layers (socket
// reads, retry loops) into the bridge's typed vocabulary, so callers match
// one error family no matter where the cancellation bit.
func liftCtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, bridge.ErrCanceled), errors.Is(err, bridge.ErrDeadlineExceeded):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", bridge.ErrDeadlineExceeded, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", bridge.ErrCanceled, err)
	default:
		return err
	}
}

// streamCheck is the cancellation checkpoint lazy streams poll between tuple
// batches. It watches the caller's context and the session's lifetime
// context — deliberately NOT the derived per-query deadline context, which is
// canceled when QueryCtx returns while a lazy stream is consumed after.
func (s *Session) streamCheck() func() error {
	caller, sctx := s.callerCtx, s.ctx
	return func() error {
		if err := bridge.CtxError(caller); err != nil {
			return err
		}
		if err := sctx.Err(); err != nil {
			return fmt.Errorf("%w: session ended: %w", bridge.ErrCanceled, err)
		}
		return nil
	}
}

// dispatch is the admitted query path: think-time accounting, prefetch
// bookkeeping, and the three planning steps.
func (s *Session) dispatch(ctx context.Context, q *caql.Query) (*bridge.Stream, error) {
	c := s.cms
	if s.queries > 0 {
		// IE think time between queries: the session clock advances but it
		// is not response time; prefetches issued earlier overlap with it.
		s.simNow += c.opts.ThinkTimeMS
	}
	s.queries++
	// Prefetches issued after the previous query ran during the think time
	// that just elapsed; wait them in, then publish the ones whose simulated
	// in-flight period has passed so other sessions can see them too.
	s.waitPrefetches()
	s.publishReady()

	name := q.Name()
	var vs *advice.ViewSpec
	if s.adv != nil {
		vs = s.adv.ViewByName(name)
	}
	if s.tracker != nil {
		s.tracker.Observe(name)
	}

	// The query's prepared form and canonical form are computed here, once,
	// for every lookup and insert the planning steps make, into the
	// session's scratch. A string of the canonical form is made only where
	// one is kept.
	s.canon = q.AppendCanonical(s.canon[:0])
	stream, err := s.answer(ctx, subsume.PrepareInto(&s.prep, q), s.canon, vs)
	if err != nil {
		return nil, err
	}
	if c.opts.Features.Prefetch && s.adv != nil && s.adv.Path != nil && c.rdi.Available() {
		// Prefetching is suppressed while degraded: speculative remote work
		// would only burn the breaker's half-open probes.
		_, psp := c.tracer.Start(ctx, "cms.prefetch_enqueue")
		s.prefetchFollowers(q, vs)
		psp.End()
	}
	return stream, nil
}

// answer plans the query, given prepared and in canonical form, executes the
// plan, and counts the answer once it is made.
func (s *Session) answer(ctx context.Context, pq *subsume.Prepared, canon []byte, vs *advice.ViewSpec) (*bridge.Stream, error) {
	v, err := s.plan(ctx, pq, canon, vs)
	if err != nil {
		return nil, err
	}
	obs.SpanFromContext(ctx).Set("answer", kindNames[v.kind])
	var stream *bridge.Stream
	switch v.kind {
	case exact, subsumed, generalized:
		stream, err = s.serveFromElement(v.e, v.d, pq.Query, vs)
	case covered, partial:
		stream, err = s.answerDecomposition(ctx, pq.Query, canon, vs, v.dec)
	default:
		stream, err = s.answerRemote(ctx, pq.Query, canon, vs)
	}
	if err == nil {
		s.cms.count(&v)
	}
	return stream, err
}

// answerKind is what planning decided a query's answer is made of.
type answerKind uint8

const (
	remote      answerKind = iota // the whole query, fetched
	exact                         // the element whose canonical form is the query's
	subsumed                      // the smallest element that derives the query
	generalized                   // a widened query, fetched now, that derives it
	covered                       // cached pieces joined, nothing fetched
	partial                       // cached pieces joined with a fetched residual
)

var kindNames = [...]string{"remote", "exact", "subsumed", "generalized", "covered", "partial"}

// verdict is planning's one decision for a query and what execution needs to
// make its answer. It is passed by value: a pointer to it that escapes costs
// every hit an allocation (TestHitPathAllocs).
type verdict struct {
	kind     answerKind
	degraded bool                // the remote was unavailable when the pass began
	e        *Element            // exact, subsumed, generalized: the element
	d        *subsume.Derivation // and the derivation that answers from it
	dec      decomposition       // covered, partial
}

// decomposition is step 3's plan: local pieces, the residual's atoms and
// variables, and the comparisons shipped with it or left for the join.
type decomposition struct {
	picks             []pick
	residualIdx       []int
	residualVars      map[string]bool
	shipped, leftover []logic.Atom
}

type pick struct {
	e    *Element
	cand *subsume.Candidate
}

// count moves the answer-kind counters for an answer v has been executed
// into. Nothing else moves them.
func (c *CMS) count(v *verdict) {
	st := &c.stats
	switch v.kind {
	case exact, subsumed, covered:
		st.CacheHits.Add(1)
		if v.kind == exact {
			st.ExactHits.Add(1)
		}
		if v.e != nil && v.e.prefetched {
			st.PrefetchHits.Add(1)
		}
		if v.degraded {
			st.DegradedHits.Add(1)
		}
	case generalized:
		st.Generalizations.Add(1)
	case partial:
		st.PartialHits.Add(1)
	}
}

// plan decides what the query's answer is made of: step 2's exact match or
// full derivation, step 1's generalization (fetched here, as only the fetch
// decides that kind), then step 3's decomposition over a greedy cover.
func (s *Session) plan(ctx context.Context, pq *subsume.Prepared, canon []byte, vs *advice.ViewSpec) (verdict, error) {
	if err := bridge.CtxError(ctx); err != nil {
		return verdict{}, err
	}
	c, q := s.cms, pq.Query
	f := c.opts.Features
	// Degraded mode (remote unavailable): cache-derived answers still work
	// and are counted as DegradedHits; eager remote work (generalization) is
	// skipped; the mandatory remote paths fail fast in the client.
	degraded := !c.rdi.Available()

	v, survivors, err := s.fromCache(ctx, c.tracer, pq, canon, s.staleChecker(degraded))
	v.degraded = degraded
	if err != nil || v.kind != remote {
		return v, err
	}

	// Step 1: consider generalizing the query before remote execution, when
	// either the path expression predicts further instances of this view or
	// the session has already seen a sibling instance (frequency fallback
	// for sessions without usable advice).
	if f.Generalization && !degraded && (s.predictsReuse(q.Name()) || s.repeatedInstance(q)) {
		if gq := s.generalizationOf(q, vs); gq != nil {
			gctx, gsp := c.tracer.Start(ctx, "cms.generalize")
			ext, sim, stamp, err := c.rdi.FetchCtx(gctx, gq)
			gsp.End()
			if err == nil {
				s.advance(sim)
				e := s.cacheResult(gq, gq.Canonical(), ext, vs, stamp)
				if d, ok := e.sig.DeriveFull(pq, &s.deriv); ok {
					v.kind, v.e, v.d = generalized, e, d
					return v, nil
				}
			} else if cerr := bridge.CtxError(ctx); cerr != nil {
				// The caller is gone: abort instead of falling through to
				// another doomed remote attempt.
				return v, cerr
			}
			// On any other failure fall through to the normal paths.
		}
	}

	// Step 2c/3: decomposition over what the cache covers.
	if f.Subsumption {
		if v.dec, err = s.cover(ctx, pq, survivors); err == nil && len(v.dec.picks) > 0 {
			v.kind = partial
			if len(v.dec.residualIdx) == 0 {
				v.kind = covered
			}
		}
	}
	return v, err
}

// fromCache is step 2, which planning and prefetch both ask: does one
// element answer pq, by exact match (2a) or as the smallest survivor of the
// probe that derives it (2b; the lower ID on a tie)? Stale elements are
// invalidated on the way. The derivation is built in the session's block,
// where the next query's step 2 overwrites it, so 2b derives a survivor only
// when it is smaller than the best so far. The survivors are returned for the
// decomposition; prefetch passes a nil tracer.
func (s *Session) fromCache(ctx context.Context, tr *obs.Tracer, pq *subsume.Prepared, canon []byte, st staleCheck) (v verdict, survivors []*Element, err error) {
	c := s.cms
	f := c.opts.Features
	// Step 2a: exact-match result cache ([IOAN88]-style reuse, subsumed by
	// full subsumption but cheaper: a single map lookup).
	if f.ExactMatch && f.ResultCaching {
		_, probe := tr.Start(ctx, "cms.cache_probe")
		if e := c.mgr.ExactMatchFor(canon, s.id); e != nil && !st.stale(e) {
			if d, ok := e.sig.DeriveFull(pq, &s.deriv); ok {
				probe.Set("hit", "exact")
				probe.End()
				return verdict{kind: exact, e: e, d: d}, nil, nil
			}
		}
		probe.Set("hit", "miss")
		probe.End()
	}
	// Step 2b: full derivation from a single cache element via subsumption.
	if f.Subsumption {
		_, sub := tr.Start(ctx, "cms.subsume")
		defer sub.End()
		survivors = s.probe(pq, st)
		for _, e := range survivors {
			// Matching is the one CPU loop on the planning path: checkpoint
			// it so a canceled query stops burning cycles.
			if err := bridge.CtxError(ctx); err != nil {
				return verdict{}, nil, err
			}
			if v.e != nil && e.SizeBytes() >= v.e.SizeBytes() {
				continue
			}
			if d, ok := e.sig.DeriveFull(pq, &s.deriv); ok {
				v = verdict{kind: subsumed, e: e, d: d}
			}
		}
		sub.Set("hit", strconv.FormatBool(v.e != nil))
	}
	return v, survivors, nil
}

// answerRemote sends the whole query to the remote DBMS. When the result
// will not be cached (a cached result must be materialized anyway), the
// answer is handed to the IE as a lazy remote stream: the first tuple is
// available after one wire frame instead of after the whole transfer, and an
// abandoned consumer cancels the remote producer mid-flight. The stream is
// established under the session's *caller* context — not the per-query
// deadline context, which dies when QueryCtx returns while the stream is
// still being consumed (same rule as streamCheck). The fixed round-trip cost
// is charged at establishment and each tuple as the consumer pulls it; a
// stream that runs to its end is charged the rest of the request's cost, so
// a drained lazy answer costs what the same answer fetched eagerly does, and
// one closed early only what it read.
func (s *Session) answerRemote(ctx context.Context, q *caql.Query, canon []byte, vs *advice.ViewSpec) (*bridge.Stream, error) {
	c := s.cms
	if c.opts.Features.Lazy && !s.shouldCache(vs) {
		fs, err := c.rdi.FetchStreamCtx(s.callerCtx, q)
		if err != nil {
			return nil, err
		}
		it := &remoteStreamIter{guard: relation.NewGuardIterator(fs, relation.DefaultGuardEvery, s.streamCheck()), fs: fs, s: s}
		it.charge(c.opts.Costs.PerRequest)
		c.stats.LazyAnswers.Add(1)
		return bridge.NewStream(fs.Schema(), it, true), nil
	}
	ext, sim, stamp, err := c.rdi.FetchCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	s.advance(sim)
	if s.shouldCache(vs) {
		s.cacheResult(q, string(canon), ext, vs, stamp)
	}
	return bridge.NewEagerStream(ext), nil
}

// remoteStreamIter splices cooperative cancellation (the guard, polling the
// caller/session contexts) with the remote stream's own termination status:
// whichever side stops the stream, the consumer sees a typed error from
// bridge.Stream.Err, and a guard trip tears down the remote producer so the
// server stops shipping frames nobody reads. It also keeps the session clock:
// a tuple is charged as it is pulled, the rest of the request at a clean end.
type remoteStreamIter struct {
	guard   *relation.GuardIterator
	fs      *FetchStream
	s       *Session
	charged float64 // simulated ms advanced for this stream so far
	ended   bool
}

func (r *remoteStreamIter) charge(d float64) {
	r.charged += d
	r.s.advance(d)
}

// Next implements relation.Iterator.
func (r *remoteStreamIter) Next() (relation.Tuple, bool) {
	t, ok := r.guard.Next()
	if ok {
		r.charge(r.s.cms.opts.Costs.PerTuple)
	} else if !r.ended {
		r.ended = true
		if r.guard.Err() != nil {
			r.fs.Close()
		} else if rest := r.fs.SimMS() - r.charged; rest > 0 && r.fs.Err() == nil {
			r.charge(rest)
		}
	}
	return t, ok
}

// Close abandons the stream: the remote producer is canceled with a cancel
// frame, and the unread rest of the request is never charged.
func (r *remoteStreamIter) Close() error {
	r.ended = true
	return r.fs.Close()
}

// Err implements the bridge's error convention, preferring the guard's typed
// verdict and lifting transport-level context errors into the bridge family.
func (r *remoteStreamIter) Err() error {
	if err := r.guard.Err(); err != nil {
		return err
	}
	return liftCtxErr(r.fs.Err())
}

// serveFromElement answers q from a cached element through a derivation,
// choosing lazy (generator) or eager representation per advice (Section
// 5.3.3's guideline: strict producers evaluate lazily; consumer-annotated
// queries evaluate eagerly with indexes).
func (s *Session) serveFromElement(e *Element, d *subsume.Derivation, q *caql.Query, vs *advice.ViewSpec) (*bridge.Stream, error) {
	c := s.cms
	c.mgr.Touch(e)
	if rem := s.readyRemainder(e); rem > 0 {
		// Own prefetched data still in flight: wait out the remainder. (Other
		// sessions never see an in-flight element; visibility is gated on
		// the owner's clock passing readyAtSim.)
		s.advance(rem)
	}
	schema := e.servedSchema(q, d)

	lazy := c.opts.Features.Lazy && vs != nil && vs.StrictProducer()
	if lazy {
		per := c.opts.Costs.PerLocalOp
		src := chargeIter(e.Iter(), func(n int) { s.advanceLocal(per * float64(n)) })
		c.stats.LazyAnswers.Add(1)
		// Cooperative cancellation: the generator polls the caller/session
		// contexts every DefaultGuardEvery tuples. A tripped guard ends the
		// stream AND records a typed error on it — consumers that check
		// Stream.Err (or use DrainErr) can never mistake cancellation for a
		// complete, merely short, result.
		it := relation.NewGuardIterator(d.ApplyLazy(src), relation.DefaultGuardEvery, s.streamCheck())
		return bridge.NewStream(schema, it, true), nil
	}

	rows, skip, ops := s.derivedRows(e, d)
	if d.Identity() {
		// An identity selects nothing, so rows are the extension itself, not
		// index rows in session scratch, and no one writes to them.
		s.advanceLocal(c.opts.Costs.PerLocalOp * float64(ops+len(rows)))
		return s.streams.Rows(schema, rows), nil
	}
	vals, n := d.Materialize(s.streams.Values(), rows, skip)
	s.advanceLocal(c.opts.Costs.PerLocalOp * float64(ops+n))
	return s.streams.Block(schema, vals, len(d.OutCols), n), nil
}

// derivedRows picks the rows a derivation reads: the rows an attribute index
// returns for one of its equality selections when the index exists (or is
// worth building), in the session's scratch, with the position of that
// selection in the derivation's conditions, which the rows already satisfy;
// otherwise the whole extension and -1. It also returns the estimated number
// of local tuple operations.
func (s *Session) derivedRows(e *Element, d *subsume.Derivation) (rows []relation.Tuple, skip, ops int) {
	c := s.cms
	if c.opts.Features.Indexing && !d.Empty {
		for i, cond := range d.Candidate.Conds {
			if cond.Right >= 0 || cond.Op != relation.OpEq {
				continue
			}
			ix, built := e.indexBuilt(cond.Left, s.shouldIndex(e, cond.Left))
			if built {
				c.stats.IndexBuilds.Add(1)
			}
			if ix != nil {
				s.rows = ix.AppendLookup(s.rows[:0], []relation.Value{cond.Const})
				return s.rows, i, len(s.rows)
			}
			e.noteSelection(cond.Left)
		}
	}
	ext := e.Extension()
	return ext.Tuples(), -1, ext.Len()
}

// shouldIndex decides whether to build an index on the element column:
// consumer-annotated columns are prime candidates (Section 4.2.1); other
// columns earn an index after repeated equality selections. The IndexBuilds
// stat is counted where the build actually happens (indexBuilt), so two
// sessions racing to index the same column count one build.
func (s *Session) shouldIndex(e *Element, col int) bool {
	if e.hasIndex(col) {
		return true
	}
	if e.AdviceName != "" && s.adv != nil {
		if vs := s.adv.ViewByName(e.AdviceName); vs != nil {
			for _, cc := range vs.ConsumerCols() {
				if cc == col {
					return true
				}
			}
		}
	}
	return e.selCount(col) >= 2
}

// generalizationOf widens the IE-query at its consumer-bound constant
// positions (all constant head positions when no view spec applies),
// returning nil when nothing would change.
func (s *Session) generalizationOf(q *caql.Query, vs *advice.ViewSpec) *caql.Query {
	var positions []int
	if vs != nil {
		for _, i := range vs.ConsumerCols() {
			if i < len(q.Head.Args) && q.Head.Args[i].IsConst() {
				positions = append(positions, i)
			}
		}
	} else {
		for i, t := range q.Head.Args {
			if t.IsConst() {
				positions = append(positions, i)
			}
		}
	}
	if len(positions) == 0 {
		return nil
	}
	// Every listed position holds a constant, so the result differs from q.
	return caql.Generalize(q, positions)
}

// repeatedInstance records the query's fully-generalized canonical form and
// reports whether a sibling instance was seen before in this session — the
// signal that paying for the general fetch will amortize.
func (s *Session) repeatedInstance(q *caql.Query) bool {
	var positions []int
	for i, t := range q.Head.Args {
		if t.IsConst() {
			positions = append(positions, i)
		}
	}
	if len(positions) == 0 {
		return false
	}
	key := caql.Generalize(q, positions).Canonical()
	s.genSeen[key]++
	return s.genSeen[key] >= 2
}

// predictsReuse reports whether the path expression predicts another query
// against the same view within the horizon.
func (s *Session) predictsReuse(name string) bool {
	if s.tracker == nil {
		return false
	}
	_, ok := s.tracker.Distance(s.cms.opts.PredictHorizon, name)
	return ok
}

// staleCheck is the staleness predicate for one planning pass. A view is
// stale once some request has observed a version above its stamp
// (Element.builtEpoch) for a relation its definition names: the server has
// provably moved past the data for that relation. Writes to other tables
// leave it alone, and while the observed epoch is still at or below the stamp
// no version can be above it, so the common case reads one number. A stale
// view is invalidated (removed + counted) and the caller falls through to a
// refetch instead of serving it. While degraded, cached answers are served
// regardless — stale data beats no data, and the breaker already accounts
// those answers as DegradedHits.
type staleCheck struct {
	c *CMS
	// remoteEpoch is the epoch observed when the pass began; 0 while
	// degraded, which no view is stale against.
	remoteEpoch uint64
}

// staleChecker begins a planning pass's staleness check.
func (s *Session) staleChecker(degraded bool) staleCheck {
	st := staleCheck{c: s.cms}
	if !degraded {
		st.remoteEpoch = s.cms.rdi.ObservedEpoch()
	}
	return st
}

// stale reports whether e is stale, invalidating it if so.
func (st staleCheck) stale(e *Element) bool {
	if st.remoteEpoch <= e.builtEpoch || !st.c.rdi.movedSince(e.Def, e.builtEpoch) {
		return false
	}
	st.c.mgr.Remove(e)
	st.c.stats.EpochInvalidations.Add(1)
	return true
}

// shouldCache decides result caching: strict-producer views with no
// predicted reuse are not cached (Section 4.2.1: the CMS "may also choose
// not to cache the relation if there are no other predicted requests").
func (s *Session) shouldCache(vs *advice.ViewSpec) bool {
	if !s.cms.opts.Features.ResultCaching {
		return false
	}
	if vs != nil && vs.StrictProducer() && s.tracker != nil && !s.predictsReuse(vs.Name()) {
		return false
	}
	return true
}

// cacheResult stores (budget permitting) and returns an element holding a
// demand-fetched query result; canon is def.Canonical() and stamp the epoch
// observed before the fetch behind ext was issued (Element.builtEpoch).
// (Prefetched elements are built by the worker pool in prefetch.go, which
// also sets their visibility gate.)
func (s *Session) cacheResult(def *caql.Query, canon string, ext *relation.Relation, vs *advice.ViewSpec, stamp uint64) *Element {
	c := s.cms
	e := newExtensionElement(c.mgr.NewElementID(), def.Clone(), canon, ext)
	if vs != nil {
		e.AdviceName = vs.Name()
	}
	e.readyAtSim = s.simNow
	e.builtEpoch = stamp
	if c.opts.Features.ResultCaching {
		c.mgr.Insert(e)
	}
	return e
}

// cover plans step 3 for a query the cache may answer in part: greedy
// disjoint candidate covers, tried over the probe's survivors in ID order,
// become local pieces, and the atoms left over the residual. It picks
// nothing when no survivor covers anything.
func (s *Session) cover(ctx context.Context, pq *subsume.Prepared, survivors []*Element) (dec decomposition, err error) {
	q := pq.Query
	needed := neededVars(q)
	covered := make([]bool, len(q.Rels))
	cmpCovered := make([]bool, len(q.Cmps))
	for _, e := range survivors {
		if err := bridge.CtxError(ctx); err != nil {
			return dec, err
		}
		for _, cand := range e.sig.Match(pq, needed) {
			if overlapsCover(cand.Cover, covered) {
				continue
			}
			dec.picks = append(dec.picks, pick{e, cand})
			for _, i := range cand.Cover {
				covered[i] = true
			}
			for _, i := range cand.CoveredCmps {
				cmpCovered[i] = true
			}
			break
		}
	}
	if len(dec.picks) == 0 {
		return dec, nil
	}

	dec.residualVars = make(map[string]bool)
	for i, cov := range covered {
		if !cov {
			dec.residualIdx = append(dec.residualIdx, i)
			for _, t := range q.Rels[i].Args {
				if t.IsVar() {
					dec.residualVars[t.Var] = true
				}
			}
		}
	}

	// Classify comparisons: shipped with the residual when fully inside it,
	// leftover when they span parts or were not covered.
	for ci, cmp := range q.Cmps {
		if cmpCovered[ci] {
			continue
		}
		inResidual := len(dec.residualIdx) > 0
		for _, t := range cmp.Args {
			if t.IsVar() && !dec.residualVars[t.Var] {
				inResidual = false
			}
		}
		if inResidual {
			dec.shipped = append(dec.shipped, cmp)
		} else {
			dec.leftover = append(dec.leftover, cmp)
		}
	}
	return dec, nil
}

// answerDecomposition executes a decomposition: the local pieces are
// materialized and the residual, if any, is shipped to the remote DBMS as
// one conjunctive subquery, then the final join runs locally.
func (s *Session) answerDecomposition(ctx context.Context, q *caql.Query, canon []byte, vs *advice.ViewSpec, dec decomposition) (*bridge.Stream, error) {
	c := s.cms
	ctx, sp := c.tracer.Start(ctx, "cms.decompose")
	defer sp.End()

	// Assemble the plan: local piece materialization and the remote residual
	// fetch, run in parallel when enabled (Section 5: "parallel execution of
	// subqueries on both the CMS and the remote DBMS").
	overlay := caql.MapSource{}
	var atoms []logic.Atom
	var localDur, remoteDur float64

	localWork := func() error {
		var ops int
		for i, p := range dec.picks {
			name := fmt.Sprintf("__p%d", i)
			c.mgr.Touch(p.e)
			localDur += s.readyRemainder(p.e)
			ext := p.e.Extension()
			piece := p.cand.Materialize(name, ext)
			overlay[name] = piece
			atoms = append(atoms, p.cand.PieceAtom(name))
			ops += ext.Len() + piece.Len()
		}
		localDur += c.opts.Costs.PerLocalOp * float64(ops)
		return nil
	}

	var residualExt *relation.Relation
	var rq *caql.Query
	var residualStamp uint64
	remoteWork := func() error {
		if len(dec.residualIdx) == 0 {
			return nil
		}
		// Export set: residual variables needed by the head, the pieces, or
		// leftover comparisons.
		pieceVars := make(map[string]bool)
		for _, p := range dec.picks {
			for _, v := range p.cand.InterfaceVars() {
				pieceVars[v] = true
			}
		}
		var exportList []string
		for v := range dec.residualVars {
			if neededForJoin(v, q, pieceVars, dec.leftover) {
				exportList = append(exportList, v)
			}
		}
		sort.Strings(exportList)
		var head []logic.Term
		for _, v := range exportList {
			head = append(head, logic.V(v))
		}
		existenceTest := len(head) == 0
		if existenceTest {
			// The residual shares nothing with the rest of the query: it is
			// a pure existence test (e.g. a fully ground atom). Ship it with
			// a constant head; a non-empty (deduplicated) result keeps the
			// local join unchanged, an empty one annihilates it.
			head = []logic.Term{logic.CInt(1)}
		}
		var rAtoms []logic.Atom
		for _, i := range dec.residualIdx {
			rAtoms = append(rAtoms, q.Rels[i])
		}
		rAtoms = append(rAtoms, dec.shipped...)
		rq = caql.NewQuery(logic.A("__r", head...), rAtoms)
		ext, sim, stamp, err := c.rdi.FetchCtx(ctx, rq)
		if err != nil {
			return err
		}
		if existenceTest {
			ext = relation.DistinctRel(ext)
		}
		remoteDur = sim
		residualExt, residualStamp = ext, stamp
		return nil
	}

	var err error
	if c.opts.Features.Parallel && len(dec.residualIdx) > 0 {
		// The residual fetch overlaps the local pieces on a helper goroutine.
		// A panic there is carried back and re-raised here, after the join, so
		// QueryCtx isolates it like a panic on the query's own goroutine.
		var rerr error
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			rerr = remoteWork()
		}()
		lerr := localWork()
		if p := <-done; p != nil {
			panic(p)
		}
		if lerr != nil {
			err = lerr
		} else {
			err = rerr
		}
		s.advance(max(localDur, remoteDur))
	} else {
		if err = localWork(); err == nil {
			err = remoteWork()
		}
		s.advance(localDur + remoteDur)
	}
	if err != nil {
		return nil, err
	}

	// The answer is as old as its oldest input: a change any piece or the
	// residual misses has a version above that input's stamp.
	stamp := ^uint64(0)
	for _, p := range dec.picks {
		stamp = min(stamp, p.e.builtEpoch)
	}
	if residualExt != nil {
		stamp = min(stamp, residualStamp)
		overlay["__r"] = residualExt
		atoms = append(atoms, rq.Head)
		if c.opts.Features.ResultCaching {
			// The residual result is itself reusable.
			s.cacheResult(rq, rq.Canonical(), residualExt, nil, residualStamp)
		}
	}

	atoms = append(atoms, dec.leftover...)
	rew := caql.NewQuery(q.Head, atoms)
	out, err := caql.Eval(rew, overlay)
	if err != nil {
		return nil, err
	}
	var inputs int
	for _, rel := range overlay {
		inputs += rel.Len()
	}
	s.advanceLocal(c.opts.Costs.PerLocalOp * float64(inputs+out.Len()))
	if s.shouldCache(vs) {
		s.cacheResult(q, string(canon), out, vs, stamp)
	}
	return bridge.NewEagerStream(out), nil
}

// prefetchFollowers plans predicted follow-up queries after answering q: the
// items following q's view in its sequence grouping are "likely to be
// evaluated when the first item is evaluated" (Section 5.3.1). Consumer
// arguments are instantiated from the current query's constants; followers
// with unresolved consumers are skipped. Each follower is instantiated into
// the session's follower block and probed there, so a follower the cache
// answers costs nothing; the selected fetches are handed to the asynchronous
// worker pool (prefetch.go) so they overlap the IE's think time in
// wall-clock terms, not just on the simulated clock.
func (s *Session) prefetchFollowers(q *caql.Query, vs *advice.ViewSpec) {
	if vs == nil {
		return
	}
	// The stale check is built for the first follower that is instantiated,
	// if any is.
	var st staleCheck
	for _, fname := range s.followersOf(q.Name()) {
		fvs := s.adv.ViewByName(fname)
		if fvs == nil || !consumersBound(fvs, vs, q) {
			continue
		}
		if st.c == nil {
			st = s.staleChecker(false) // prefetching runs only while the remote is available
		}
		fq := s.follower.instantiate(fvs.Query, vs, q)
		s.canon = fq.AppendCanonical(s.canon[:0])
		// A follower step 2 answers from the cache is not fetched, and no
		// follower is once the session has ended (fromCache fails).
		if v, _, err := s.fromCache(s.ctx, nil, subsume.PrepareInto(&s.prep, fq), s.canon, st); err != nil || v.kind != remote {
			continue
		}
		s.enqueuePrefetch(fq, s.canon, fvs)
	}
}

// followerBlock is the query prefetchFollowers instantiates a follower into,
// and the atoms and terms its slices are carved from, reused from follower
// to follower and grown to the largest the session has instantiated. Nothing
// keeps a reference into it: enqueuePrefetch clones what it keeps.
type followerBlock struct {
	q     caql.Query
	atoms []logic.Atom
	terms []logic.Term
}

// instantiate is tq.Instantiate with each variable at a consumer position of
// vs bound to the constant q, an instance of vs, has there, built in b.
func (b *followerBlock) instantiate(tq *caql.Query, vs *advice.ViewSpec, q *caql.Query) *caql.Query {
	nterms := len(tq.Head.Args)
	for _, a := range tq.Rels {
		nterms += len(a.Args)
	}
	for _, a := range tq.Cmps {
		nterms += len(a.Args)
	}
	b.terms = slices.Grow(b.terms[:0], nterms)
	b.atoms = slices.Grow(b.atoms[:0], len(tq.Rels)+len(tq.Cmps))
	b.q.Head = b.bind(tq.Head, vs, q)
	for _, a := range tq.Rels {
		b.atoms = append(b.atoms, b.bind(a, vs, q))
	}
	for _, a := range tq.Cmps {
		b.atoms = append(b.atoms, b.bind(a, vs, q))
	}
	n := len(tq.Rels)
	b.q.Rels, b.q.Cmps = b.atoms[:n:n], b.atoms[n:]
	return &b.q
}

// bind is a with its bound variables replaced, its arguments carved from the
// tail of b.terms.
func (b *followerBlock) bind(a logic.Atom, vs *advice.ViewSpec, q *caql.Query) logic.Atom {
	at := len(b.terms)
	for _, t := range a.Args {
		if t.IsVar() {
			if c, ok := consumerBinding(vs, q, t.Var); ok {
				t = logic.C(c)
			}
		}
		b.terms = append(b.terms, t)
	}
	end := len(b.terms)
	return logic.Atom{Pred: a.Pred, Args: b.terms[at:end:end]}
}

// followersOf is advice.SequenceFollowers of the session's path expression,
// memoised per view name in the scratch's followerNames.
func (s *Session) followersOf(name string) []string {
	f, ok := s.followers[name]
	if !ok {
		at := len(s.followerNames)
		s.followerNames = advice.AppendSequenceFollowers(s.followerNames, s.adv.Path, name)
		f = s.followerNames[at:len(s.followerNames):len(s.followerNames)]
		if s.followers == nil {
			s.followers = make(map[string][]string)
		}
		s.followers[name] = f
	}
	return f
}

// consumersBound reports whether every variable at a consumer position of
// the follower fvs has a consumerBinding from vs and q: whether
// instantiating fvs resolves all its consumers.
func consumersBound(fvs, vs *advice.ViewSpec, q *caql.Query) bool {
	for i, b := range fvs.Bindings {
		if b != advice.BindConsumer || i >= len(fvs.Query.Head.Args) {
			continue
		}
		if t := fvs.Query.Head.Args[i]; t.IsVar() {
			if _, ok := consumerBinding(vs, q, t.Var); !ok {
				return false
			}
		}
	}
	return true
}

// consumerBinding is the constant a follower's variable v is instantiated
// with: the one q, an instance of vs, has at the last consumer position of vs
// that holds v and where q has a constant.
func consumerBinding(vs *advice.ViewSpec, q *caql.Query, v string) (relation.Value, bool) {
	for i := len(vs.Bindings) - 1; i >= 0; i-- {
		if vs.Bindings[i] == advice.BindConsumer && i < len(q.Head.Args) &&
			vs.Query.Head.Args[i].IsVar() && vs.Query.Head.Args[i].Var == v && q.Head.Args[i].IsConst() {
			return q.Head.Args[i].Const, true
		}
	}
	return relation.Value{}, false
}

// probe is step 2's lookup, shared by everything that asks "what in the cache
// could answer this": the elements visible to the session that may derive q
// or a conjunctive part of it (Manager.CandidatesForSession), in ID order,
// less the ones the stale check invalidates on the way. The result lives in
// the session's scratch until the next probe.
func (s *Session) probe(pq *subsume.Prepared, st staleCheck) []*Element {
	s.cands = slices.DeleteFunc(s.cms.mgr.appendCandidates(s.cands[:0], pq, s.id), st.stale)
	return s.cands
}

// neededVars is the conservative variable set the decomposition must be able
// to recover from covered pieces: head variables, comparison variables, and
// join variables (those in two or more relational atoms).
func neededVars(q *caql.Query) map[string]bool {
	needed := make(map[string]bool)
	for _, t := range q.Head.Args {
		if t.IsVar() {
			needed[t.Var] = true
		}
	}
	for _, cmp := range q.Cmps {
		for _, t := range cmp.Args {
			if t.IsVar() {
				needed[t.Var] = true
			}
		}
	}
	counts := make(map[string]int)
	for _, a := range q.Rels {
		seen := make(map[string]bool)
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				counts[t.Var]++
			}
		}
	}
	for v, n := range counts {
		if n >= 2 {
			needed[v] = true
		}
	}
	return needed
}

func neededForJoin(v string, q *caql.Query, pieceVars map[string]bool, leftoverCmps []logic.Atom) bool {
	for _, t := range q.Head.Args {
		if t.IsVar() && t.Var == v {
			return true
		}
	}
	if pieceVars[v] {
		return true
	}
	for _, cmp := range leftoverCmps {
		for _, t := range cmp.Args {
			if t.IsVar() && t.Var == v {
				return true
			}
		}
	}
	return false
}

func overlapsCover(cover []int, covered []bool) bool {
	for _, i := range cover {
		if covered[i] {
			return true
		}
	}
	return false
}

// chargeIter charges a cost callback per tuple pulled from the iterator.
func chargeIter(it relation.Iterator, charge func(n int)) relation.Iterator {
	return relation.IteratorFunc(func() (relation.Tuple, bool) {
		t, ok := it.Next()
		if ok {
			charge(1)
		}
		return t, ok
	})
}

// derivedSchema is the output schema of q derived from e through d: a head
// variable names its column and takes the kind of the element column d reads
// it from, a head constant is named by caql.ConstColumnName and typed by its
// value, and a name already taken gets '_' appended until it is not — the
// rule caql's OutputSchema applies.
func derivedSchema(q *caql.Query, d *subsume.Derivation, e *Element) *relation.Schema {
	// NewSchema copies attrs, so they can live on the stack.
	var buf [8]relation.Attr
	attrs := buf[:0]
	for i := range d.OutCols {
		name, kind := headColumn(q, d, e, i)
		for taken(attrs, name) {
			name += "_"
		}
		attrs = append(attrs, relation.Attr{Name: name, Kind: kind})
	}
	return relation.NewSchema(attrs...)
}

// headColumn is the name before deduplication and the kind of q's head
// position i answered from e through d.
func headColumn(q *caql.Query, d *subsume.Derivation, e *Element, i int) (string, relation.Kind) {
	if col := d.OutCols[i]; col >= 0 {
		return q.Head.Args[i].Var, e.Schema().Attr(col).Kind
	}
	return caql.ConstColumnName(i), d.Consts[i].Kind()
}

// taken reports whether an attribute in attrs is named name.
func taken(attrs []relation.Attr, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// fitsSchema reports whether sch is derivedSchema(q, d, e), without building
// it: every column has its position's kind and its name, which is the
// position's name followed by the fewest '_' that no column before it has.
func fitsSchema(sch *relation.Schema, q *caql.Query, d *subsume.Derivation, e *Element) bool {
	if sch.Arity() != len(d.OutCols) {
		return false
	}
	for i := range d.OutCols {
		base, kind := headColumn(q, d, e, i)
		a := sch.Attr(i)
		if a.Kind != kind || len(a.Name) < len(base) || a.Name[:len(base)] != base {
			return false
		}
		// Each shorter spelling a.Name passed over must be an earlier column's
		// name; a.Name itself is not, since a schema's names are distinct.
		for n := len(base); n < len(a.Name); n++ {
			if j := sch.ColIndex(a.Name[:n]); a.Name[n] != '_' || j < 0 || j >= i {
				return false
			}
		}
	}
	return true
}
