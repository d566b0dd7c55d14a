package remotedb

import "context"

// This file is the engine half of streamed execution: every SELECT the
// planner accepts runs as a pull-based PlanStream (plan_exec.go), so the
// framed server can ship the first response frame as soon as the plan's
// blocking prefix allows instead of after the whole result. There is one
// open, openStream: the framed server calls it with the statement it parsed
// (and the request's resume token, if any), and the two exported entry points
// below differ only in what they require of the stream it returns.
//
// A plan whose shape is [limit] → [project] → one scan (Plan.resumable) is
// the *resumable* case: opened for streaming it runs serially, so its
// emission order is a deterministic function of the snapshot it bound (rows
// in base order, filtered by the same conditions), and its stream carries a
// resume token. A re-issued request presenting that token gets the same
// stream fast-forwarded past the tuples a broken connection already
// delivered (resume.go).

// openStream opens the plan of sel, the plain SELECT that src parsed to, for
// streaming. A resolution or planning error is returned as is: the caller
// reports it, nothing runs the statement a second time to find it again.
//
// With a non-nil pin the stream resumes the pinned delivery when it can:
// resumed=true means the token belongs to src and to exactly the snapshot the
// stream just bound (same table, version and length), and the first skip
// tuples will be dropped. Otherwise — the table has mutated since the token
// was minted (replacement, append, or a crash recovery), the token was
// forged, or the plan is not resumable — the stream is a fresh one.
func (e *Engine) openStream(ctx context.Context, sel *SelectStmt, src string, pin *ResumeToken, skip int64) (ps *PlanStream, resumed bool, err error) {
	ps, err = e.openPlan(ctx, sel, false, true)
	if err != nil {
		return nil, false, err
	}
	if ps.token.Table != "" {
		ps.token.StmtHash = StatementHash(src)
		if pin != nil && skip >= 0 && *pin == ps.token {
			ps.skip, resumed = skip, true
		}
	}
	return ps, resumed, nil
}

// ExecuteSQLPipelineCtx returns a pull-based stream for any SELECT the
// planner can execute; ok=false for EXPLAIN, DDL/DML and any statement that
// fails to parse or plan (Execute reports those). Plan-cache and optimize
// spans started under ctx stitch into the caller's trace. The caller must
// Close the stream.
func (e *Engine) ExecuteSQLPipelineCtx(ctx context.Context, src string) (*PlanStream, bool) {
	st, err := ParseSQL(src)
	if err != nil || st.Select == nil || st.Explain {
		return nil, false
	}
	ps, _, err := e.openStream(ctx, st.Select, src, nil, 0)
	return ps, err == nil
}

// ExecuteSQLStream is ExecuteSQLPipelineCtx restricted to resumable streams:
// ok=false for any statement whose stream would carry no resume token.
func (e *Engine) ExecuteSQLStream(src string) (*PlanStream, bool) {
	ps, ok := e.ExecuteSQLPipelineCtx(context.Background(), src)
	if ok && ps.token.Table == "" {
		ps.Close()
		return nil, false
	}
	return ps, ok
}
