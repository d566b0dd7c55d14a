package cache

import (
	"context"
	"fmt"

	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/relation"
)

// Extended CAQL operations evaluated by the CMS itself. Section 5.3.3(d):
// "the DBMS and the CMS do not support the same set of operations (the
// remote DBMS does not support all CAQL operations, but the CMS does)" —
// union, aggregation (the AGG second-order predicate), and the fixed-point
// operator the paper proposes for compiled data access programs (Section 2:
// "we propose to use second-order templates along with specialized operators
// (e.g., a fixed point operator)").
//
// Each operation decomposes into conjunctive subqueries answered through the
// normal planning path (cache reuse, generalization, prefetching all apply),
// with the extra operator applied locally.

// QueryUnion answers a union of conjunctive queries with set semantics.
func (s *Session) QueryUnion(u *caql.Union) (*bridge.Stream, error) {
	return s.QueryUnionCtx(context.Background(), u)
}

// QueryUnionCtx is QueryUnion under the caller's context, which governs every
// branch subquery.
func (s *Session) QueryUnionCtx(ctx context.Context, u *caql.Union) (*bridge.Stream, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	var out *relation.Relation
	for _, q := range u.Queries {
		stream, err := s.QueryCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		part, err := stream.DrainErr(q.Name())
		if err != nil {
			// A canceled branch would silently shrink the union; abort instead.
			return nil, err
		}
		if out == nil {
			out = relation.New(u.Queries[0].Name(), part.Schema())
		}
		for _, tu := range part.Tuples() {
			out.MustAppend(tu)
		}
	}
	s.advanceLocal(s.cms.opts.Costs.PerLocalOp * float64(out.Len()))
	return bridge.NewEagerStream(relation.DistinctRel(out)), nil
}

// QueryAgg answers an aggregation over a conjunctive query (the AGG special
// predicate): the inner query goes through the planner, the grouping and
// aggregation run in the CMS.
func (s *Session) QueryAgg(a *caql.AggQuery) (*bridge.Stream, error) {
	return s.QueryAggCtx(context.Background(), a)
}

// QueryAggCtx is QueryAgg under the caller's context.
func (s *Session) QueryAggCtx(ctx context.Context, a *caql.AggQuery) (*bridge.Stream, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	stream, err := s.QueryCtx(ctx, a.Inner)
	if err != nil {
		return nil, err
	}
	inner, err := stream.DrainErr(a.Inner.Name())
	if err != nil {
		// Aggregating a truncated inner stream would fabricate wrong totals.
		return nil, err
	}
	out := relation.AggregateRel(a.Inner.Name(), inner, a.GroupBy, a.Specs)
	s.advanceLocal(s.cms.opts.Costs.PerLocalOp * float64(inner.Len()+out.Len()))
	return bridge.NewEagerStream(out), nil
}

// QueryFixpoint computes the transitive closure of a binary view: the least
// fixpoint of R ∪ (R ∘ TC). The base view is answered through the planner;
// the semi-naive iteration runs in the CMS. A repeat reads the base view as
// any query does, so the closure follows the data the view reads.
func (s *Session) QueryFixpoint(q *caql.Query) (*bridge.Stream, error) {
	return s.QueryFixpointCtx(context.Background(), q)
}

// QueryFixpointCtx is QueryFixpoint under the caller's context; the
// semi-naive iteration itself checkpoints the context every round.
func (s *Session) QueryFixpointCtx(ctx context.Context, q *caql.Query) (*bridge.Stream, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Head.Args) != 2 {
		return nil, fmt.Errorf("cache: fixpoint requires a binary view, got arity %d", len(q.Head.Args))
	}
	stream, err := s.QueryCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	base, err := stream.DrainErr(q.Name())
	if err != nil {
		return nil, err
	}
	base = relation.DistinctRel(base)

	// Semi-naive transitive closure: delta ∘ base joined each round.
	closure := base.Clone()
	seen := relation.NewTupleSet(base.Len())
	for _, tu := range base.Tuples() {
		seen.Add(tu)
	}
	delta := base
	var ops int
	for delta.Len() > 0 {
		if err := bridge.CtxError(ctx); err != nil {
			return nil, err
		}
		next := relation.New(q.Name(), base.Schema())
		joined := relation.HashJoin(delta.Iter(), base.Iter(), []relation.JoinCond{{Left: 1, Right: 0}})
		for {
			tu, ok := joined.Next()
			if !ok {
				break
			}
			ops++
			out := relation.Tuple{tu[0], tu[3]}
			if seen.Add(out) {
				next.MustAppend(out)
				closure.MustAppend(out)
			}
		}
		ops += delta.Len() + base.Len()
		delta = next
	}
	s.advanceLocal(s.cms.opts.Costs.PerLocalOp * float64(ops))
	return bridge.NewEagerStream(closure), nil
}
