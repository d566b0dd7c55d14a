// Package baseline implements the comparison systems of the paper's Figure 1
// taxonomy as bridge.DataSource implementations, so the same inference
// engine can run against each:
//
//   - LooseCoupling: every CAQL query goes to the remote DBMS; nothing is
//     cached ([ABAR86] KEE-Connection / [BOCC86] EDUCE style).
//   - ExactMatchCache: results are cached and reused only on an exact match
//     of a later query ([IOAN88] BERMUDA / [SELL87] style).
//   - SingleRelationCache: whole base relations are cached on first touch
//     and queries are answered from the local copies ([CERI86] style, where
//     cached elements contain only single relations).
//
// BrAID itself (internal/cache with all features) is the fourth point of the
// comparison.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// NewLooseCoupling returns the no-cache baseline: a CMS with every feature
// disabled, so each query is translated and shipped remote.
func NewLooseCoupling(client remotedb.Client) bridge.DataSource {
	return cache.New(client, cache.Options{Features: cache.Features{}})
}

// NewExactMatchCache returns the BERMUDA-style result cache: exact-match
// reuse only — "the cached results must exactly match the query" — with no
// subsumption and no advice-driven techniques.
func NewExactMatchCache(client remotedb.Client, budget int64) bridge.DataSource {
	return cache.New(client, cache.Options{
		Features:   cache.Features{ExactMatch: true, ResultCaching: true},
		CacheBytes: budget,
	})
}

// SingleRelationCache caches whole base relations on first touch and answers
// queries from the local copies. Cached elements contain only single
// relations (no views over joins), per [CERI86].
type SingleRelationCache struct {
	cms *cache.CMS
}

var _ bridge.DataSource = (*SingleRelationCache)(nil)

// NewSingleRelationCache builds the [CERI86]-style baseline.
func NewSingleRelationCache(client remotedb.Client, budget int64) *SingleRelationCache {
	return &SingleRelationCache{cms: cache.New(client, cache.Options{
		Features: cache.Features{
			Subsumption:   true,
			ExactMatch:    true,
			ResultCaching: true,
		},
		CacheBytes: budget,
	})}
}

// CMS exposes the underlying cache for introspection in tests and benches.
func (s *SingleRelationCache) CMS() *cache.CMS { return s.cms }

// BeginSession implements bridge.DataSource.
func (s *SingleRelationCache) BeginSession(adv *advice.Advice) bridge.Session {
	// Advice is deliberately dropped: the baseline predates the technique.
	return &srSession{inner: s.cms.BeginSession(nil), ds: s, loaded: make(map[string]bool)}
}

// RelationSchema implements bridge.DataSource.
func (s *SingleRelationCache) RelationSchema(name string, arity int) (*relation.Schema, error) {
	return s.cms.RelationSchema(name, arity)
}

// RelationStats implements bridge.DataSource.
func (s *SingleRelationCache) RelationStats(name string) (remotedb.TableStats, error) {
	return s.cms.RelationStats(name)
}

// Stats implements bridge.DataSource.
func (s *SingleRelationCache) Stats() bridge.SourceStats { return s.cms.Stats() }

type srSession struct {
	inner  bridge.Session
	ds     *SingleRelationCache
	loaded map[string]bool
}

// Query loads each referenced base relation in full on first touch, then
// answers the query (the CMS's subsumption serves it from the full copies).
func (s *srSession) Query(q *caql.Query) (*bridge.Stream, error) {
	return s.QueryCtx(context.Background(), q)
}

// QueryCtx implements bridge.Session; the first-touch loads run under the
// same context as the query itself.
func (s *srSession) QueryCtx(ctx context.Context, q *caql.Query) (*bridge.Stream, error) {
	for _, a := range q.Rels {
		key := fmt.Sprintf("%s/%d", a.Pred, len(a.Args))
		if s.loaded[key] {
			continue
		}
		s.loaded[key] = true
		args := make([]logic.Term, len(a.Args))
		for i := range args {
			args[i] = logic.V(fmt.Sprintf("X%d", i))
		}
		load := caql.NewQuery(logic.A("load_"+a.Pred, args...), []logic.Atom{logic.A(a.Pred, args...)})
		stream, err := s.inner.QueryCtx(ctx, load)
		if err != nil {
			return nil, err
		}
		stream.Drain("load") // force the fetch; the CMS caches the element
	}
	return s.inner.QueryCtx(ctx, q)
}

// QueryText implements bridge.Session.
func (s *srSession) QueryText(src string) (*bridge.Stream, error) {
	return s.QueryTextCtx(context.Background(), src)
}

// QueryTextCtx implements bridge.Session. A text of several clauses runs on
// caql.RunProgram, whose queries load their relations as any query does.
func (s *srSession) QueryTextCtx(ctx context.Context, src string) (*bridge.Stream, error) {
	prog, err := caql.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(prog) == 1 {
		return s.QueryCtx(ctx, &prog[0])
	}
	ans, _, err := caql.RunProgram(ctx, prog, func(q *caql.Query) (*relation.Relation, error) {
		stream, err := s.QueryCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		return stream.DrainErr(q.Name())
	})
	if err != nil {
		return nil, err
	}
	return bridge.NewEagerStream(ans), nil
}

// End implements bridge.Session.
func (s *srSession) End() { s.inner.End() }
