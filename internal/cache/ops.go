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
// union, and the fixed-point operator the paper proposes for compiled data
// access programs (Section 2: "we propose to use second-order templates along
// with specialized operators (e.g., a fixed point operator)"), here
// caql.Fixpoint. The paper's AGG, BAGOF and SETOF are not reproduced.
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

// QueryFixpoint computes the transitive closure of a binary view: the least
// fixpoint of R ∪ (R ∘ TC). The base view is answered through the planner;
// the closure runs in the CMS, on caql.Fixpoint. A repeat reads the base view
// as any query does, so the closure follows the data the view reads.
func (s *Session) QueryFixpoint(q *caql.Query) (*bridge.Stream, error) {
	return s.QueryFixpointCtx(context.Background(), q)
}

// QueryFixpointCtx is QueryFixpoint under the caller's context, which
// caql.Fixpoint checks every round: a context canceled or expired during the
// closure fails it with bridge.ErrCanceled or ErrDeadlineExceeded.
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
	// The closure tc of the view v, which caql.Fixpoint runs semi-naively:
	// each round joins the last round's new pairs with v.
	program := []*caql.Query{
		caql.MustParse("tc(X, Y) :- v(X, Y)"),
		caql.MustParse("tc(X, Y) :- tc(X, Z) & v(Z, Y)"),
	}
	tc, ops, err := caql.Fixpoint(ctx, program, caql.MapSource{"v": base})
	if err != nil {
		return nil, liftCtxErr(err)
	}
	s.advanceLocal(s.cms.opts.Costs.PerLocalOp * float64(ops))
	return bridge.NewEagerStream(relation.FromTuples(q.Name(), base.Schema(), tc[program[0].Head.Ref()].Tuples())), nil
}
