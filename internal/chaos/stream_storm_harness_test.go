package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// stormConfig parameterizes a mid-stream connection-kill storm: a real TCP
// server whose listener severs streamed-result connections after a few frames,
// hammered by concurrent consumers whose only defence is the resumable-stream
// machinery. It is the stream-level counterpart of soakConfig, which injects
// request-level faults into an in-process client.
type stormConfig struct {
	// Workers is the number of concurrent raw-stream consumers.
	Workers int
	// StreamsPerWorker is how many streamed statements each worker drains.
	StreamsPerWorker int
	// Seed seeds every deterministic stream (statement choice, listener
	// faults, retry jitter).
	Seed int64
	// KillRate is the per-stream probability of the listener severing the
	// connection mid-stream.
	KillRate float64
	// KillAfter is the number of response frames delivered before the kill
	// (>= 2 guarantees at least one payload frame per life, so delivery
	// always makes progress and the storm terminates even at KillRate 1).
	KillAfter int
	// FrameTuples is the response frame size; small values maximize the
	// number of kill points per stream.
	FrameTuples int
	// Rows sizes the scanned table: more rows, more frames, more kills.
	Rows int
	// Sessions and QueriesPerSession size the CMS leg, which replays CAQL
	// queries through a pooled remote client against the same hostile
	// listener and asserts the dispatch-conservation invariant.
	Sessions          int
	QueriesPerSession int
	// PoolSize (0: 2) and MaxRetries (0: 50) scale the client stack with the
	// storm: every kill fails every stream multiplexed on the connection, so
	// more workers per connection means longer runs of zero-progress lives —
	// a bigger storm needs more connections and a higher no-progress bound.
	PoolSize   int
	MaxRetries int
	// ParallelDOP > 1 adds the parallel leg: join and aggregation streams
	// executed by the morsel-parallel worker pool while the listener kills
	// connections mid-flight. Parallel plan streams carry no resume token, so
	// the contract under kills is fail-visibly-or-deliver-exactly: a
	// completed stream must bag-match the fault-free delivery, a killed one
	// must surface an error — and the server must leak no workers either way.
	ParallelDOP     int
	ParallelStreams int
	// ParallelKillRate is the parallel leg's own kill probability (its
	// streams cannot be repaired, so the rate is moderated to keep a
	// deterministic mix of completed and killed streams).
	ParallelKillRate float64
}

// defaultStormConfig is a storm in which roughly every stream dies at least
// once, sized to finish in well under a second for the per-PR smoke test.
func defaultStormConfig() stormConfig {
	return stormConfig{
		Workers:           6,
		StreamsPerWorker:  8,
		Seed:              1,
		KillRate:          0.9,
		KillAfter:         2,
		FrameTuples:       4,
		Rows:              160,
		Sessions:          4,
		QueriesPerSession: 24,
		ParallelDOP:       4,
		ParallelStreams:   24,
		ParallelKillRate:  0.5,
	}
}

// stormResult summarizes one storm run.
type stormResult struct {
	Elapsed time.Duration
	// Streams / Completed / Failed account every raw-leg stream: attempted =
	// completed (drained to a nil terminal error) + failed.
	Streams   int64
	Completed int64
	Failed    int64
	// Mismatched counts completed streams whose delivery was not
	// byte-identical to the uninterrupted in-memory delivery — any nonzero
	// value is an exactly-once violation regardless of configuration.
	Mismatched int64
	// Resumes is the number of mid-stream repairs the client performed.
	Resumes int64
	// ServerKills / ServerResumes are the listener's own counters.
	ServerKills   int64
	ServerResumes int64
	// CMSStats is the CMS leg's dispatch accounting.
	CMSStats bridge.SourceStats
	// Errors samples raw-leg stream failures (capped) for diagnosis.
	Errors []string
	// Parallel-leg books: attempted = completed + failed; ParMismatched
	// counts completed streams whose sorted delivery differed from the
	// fault-free one; ParEngineRuns is the server engine's own count of
	// executions that actually ran on the morsel worker pool.
	ParStreams    int64
	ParCompleted  int64
	ParFailed     int64
	ParMismatched int64
	ParEngineRuns int64
}

// stormStatements returns the raw-leg statement set with its expected
// deliveries, computed from a private fault-free engine scan. Every statement
// is single-table and therefore streamable (carries a resume token).
func stormStatements(e *remotedb.Engine) (stmts []string, want map[string]string, err error) {
	stmts = []string{
		"SELECT v FROM big",
		"SELECT v FROM big WHERE k < 120",
		"SELECT k, v FROM big WHERE k >= 40",
		"SELECT * FROM big WHERE k < 150",
	}
	want = make(map[string]string, len(stmts))
	for _, s := range stmts {
		sc, ok := e.ExecuteSQLStream(s)
		if !ok {
			return nil, nil, fmt.Errorf("storm statement %q is not streamable", s)
		}
		var sb strings.Builder
		for tup, ok := sc.Next(); ok; tup, ok = sc.Next() {
			for i, v := range tup {
				if i > 0 {
					sb.WriteByte('|')
				}
				sb.WriteString(v.String())
			}
			sb.WriteByte('\n')
		}
		want[s] = sb.String()
	}
	return stmts, want, nil
}

// stormEngine builds the raw-leg table: big(k INT, v TEXT), rows in insertion
// order so the uninterrupted delivery is deterministic.
func stormEngine(rows int) (*remotedb.Engine, error) {
	e := remotedb.NewEngine()
	if _, _, err := e.ExecuteSQL("CREATE TABLE big (k INT, v TEXT)"); err != nil {
		return nil, err
	}
	const batch = 200
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,'v%d')", i, i)
		}
		if _, _, err := e.ExecuteSQL(sb.String()); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// runStorm executes one connection-kill storm and checks its invariants:
//
//   - exactly-once: every COMPLETED stream's delivery is byte-identical to
//     the uninterrupted delivery — no duplicates, no gaps, order preserved —
//     however many times its connections died;
//   - availability: with KillAfter >= 2, every stream completes (the repair
//     machinery hides every kill), and a storm that kills anything is seen
//     to resume;
//   - conservation: the CMS leg's dispatch accounting balances and the CMS
//     still answers a fresh session afterwards.
//
// Goroutine accounting is left to the caller (before/after snapshots).
func runStorm(cfg stormConfig) (stormResult, error) {
	var res stormResult
	e, err := stormEngine(cfg.Rows)
	if err != nil {
		return res, err
	}
	stmts, want, err := stormStatements(e)
	if err != nil {
		return res, err
	}

	srv := remotedb.NewServerWithOptions(e, remotedb.ServerOptions{
		FrameTuples: cfg.FrameTuples,
		Faults: &remotedb.ListenerFaults{
			Seed:            cfg.Seed,
			StreamKillRate:  cfg.KillRate,
			StreamKillAfter: cfg.KillAfter,
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer srv.Close()

	// ---- Leg 1: raw streams, byte-identical delivery under kills ----
	started := time.Now()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	rc, err := stormClient(addr, cfg, 0)
	if err != nil {
		return res, err
	}
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wid)*104729))
			for n := 0; n < cfg.StreamsPerWorker; n++ {
				stmt := stmts[rng.Intn(len(stmts))]
				var sb strings.Builder
				st, err := rc.ExecStream(context.Background(), stmt)
				if err == nil {
					for tup, ok := st.Next(); ok; tup, ok = st.Next() {
						for i, v := range tup {
							if i > 0 {
								sb.WriteByte('|')
							}
							sb.WriteString(v.String())
						}
						sb.WriteByte('\n')
					}
					err = st.Err()
				}
				mu.Lock()
				res.Streams++
				switch {
				case err != nil:
					res.Failed++
					if len(res.Errors) < 8 {
						res.Errors = append(res.Errors, err.Error())
					}
				case sb.String() != want[stmt]:
					res.Completed++
					res.Mismatched++
				default:
					res.Completed++
				}
				mu.Unlock()
			}
		}(wkr)
	}
	wg.Wait()
	res.Resumes = rc.ResilienceStats().StreamResumes
	rc.Close()

	// ---- Leg 2: the CMS over the same hostile wire must keep its books ----
	if cfg.Sessions > 0 {
		w := workload.Chain(53, 400, 24)
		wsrv := remotedb.NewServerWithOptions(w.Engine(), remotedb.ServerOptions{
			FrameTuples: cfg.FrameTuples,
			Faults: &remotedb.ListenerFaults{
				Seed:            cfg.Seed + 1,
				StreamKillRate:  cfg.KillRate,
				StreamKillAfter: cfg.KillAfter,
			},
		})
		waddr, err := wsrv.Listen("127.0.0.1:0")
		if err != nil {
			return res, err
		}
		defer wsrv.Close()
		wrc, err := stormClient(waddr, cfg, 7)
		if err != nil {
			return res, err
		}
		// Zero Features: no caching at all, so EVERY query crosses the hostile
		// wire — maximum stream-kill exposure for the dispatch accounting.
		cms := cache.New(wrc, cache.Options{Costs: remotedb.DefaultCosts()})
		queries := []*caql.Query{
			caql.MustParse(`d1(Y) :- b1("c1", Y)`),
			caql.MustParse(`q2(X, Y) :- b2(X, Y) & Y != 3`),
			caql.MustParse(`q3(X, Z) :- b3(X, "c2", Z)`),
		}
		var cwg sync.WaitGroup
		for sid := 0; sid < cfg.Sessions; sid++ {
			cwg.Add(1)
			go func(sid int) {
				defer cwg.Done()
				s := cms.BeginSession(nil)
				defer s.End()
				for n := 0; n < cfg.QueriesPerSession; n++ {
					stream, err := s.QueryCtx(context.Background(), queries[n%len(queries)])
					if err != nil {
						continue // accounted as Failed; conservation checks the books
					}
					stream.Drain("out")
				}
			}(sid)
		}
		cwg.Wait()
		res.CMSStats = cms.Stats()
		wrc.Close()

		if !res.CMSStats.DispatchConserved() {
			return res, fmt.Errorf("storm: CMS dispatch accounting violated: Queries=%d != Completed=%d + Canceled=%d + DeadlineExceeded=%d + Failed=%d",
				res.CMSStats.Queries, res.CMSStats.Completed, res.CMSStats.Canceled,
				res.CMSStats.DeadlineExceeded, res.CMSStats.Failed)
		}
	}
	// ---- Leg 3: morsel-parallel streams under kills ----
	if cfg.ParallelDOP > 1 {
		if err := runParallelStormLeg(cfg, &res); err != nil {
			return res, err
		}
	}

	res.Elapsed = time.Since(started)
	ss := srv.ServerStats()
	res.ServerKills = ss.StreamKills
	res.ServerResumes = ss.StreamResumes

	// Exactly-once holds unconditionally: resume machinery may fail a stream,
	// never corrupt one.
	if res.Mismatched > 0 {
		return res, fmt.Errorf("storm: %d completed streams were not byte-identical to the uninterrupted delivery", res.Mismatched)
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("storm: %d/%d streams failed despite resume, e.g. %s",
			res.Failed, res.Streams, strings.Join(res.Errors, "; "))
	}
	if cfg.KillRate > 0 && res.Resumes == 0 {
		return res, fmt.Errorf("storm: kill rate %.2f produced zero resumes — the storm did not bite", cfg.KillRate)
	}
	return res, nil
}

// parallelStormEngine builds the parallel leg's tables: fact(id, g, v) sized
// so a 32-tuple morsel splits it across a dop-wide pool, plus a small dim(g,
// dname) build side, with the engine forced onto the parallel path for every
// eligible plan.
func parallelStormEngine(dop int) (*remotedb.Engine, error) {
	e := remotedb.NewEngine()
	if _, _, err := e.ExecuteSQL("CREATE TABLE dim (g INT, dname TEXT)"); err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO dim VALUES ")
	for g := 0; g < 8; g++ {
		if g > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,'d%d')", g, g)
	}
	if _, _, err := e.ExecuteSQL(sb.String()); err != nil {
		return nil, err
	}
	if _, _, err := e.ExecuteSQL("CREATE TABLE fact (id INT, g INT, v TEXT)"); err != nil {
		return nil, err
	}
	const rows, batch = 600, 200
	for lo := 0; lo < rows; lo += batch {
		sb.Reset()
		sb.WriteString("INSERT INTO fact VALUES ")
		for i := lo; i < lo+batch; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,'v%d')", i, i%8, i)
		}
		if _, _, err := e.ExecuteSQL(sb.String()); err != nil {
			return nil, err
		}
	}
	e.SetParallelism(dop)
	e.SetParallelMinRows(1)
	e.SetMorselSize(32)
	return e, nil
}

// sortedDelivery renders a drained stream as sorted lines: parallel emission
// order is nondeterministic, so completed deliveries compare as bags.
func sortedDelivery(lines []string) string {
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// runParallelStormLeg drives join and aggregation statements through a
// DOP>1 engine behind a kill-prone listener. Parallel plan streams carry no
// resume token, so the invariant is fail-visibly-or-deliver-exactly: every
// completed stream bag-matches the fault-free delivery, and kills surface as
// errors, never truncated "complete" results. Streams run sequentially so
// the kill-roll sequence (and therefore the outcome books) is deterministic
// per seed.
func runParallelStormLeg(cfg stormConfig, res *stormResult) error {
	pe, err := parallelStormEngine(cfg.ParallelDOP)
	if err != nil {
		return err
	}
	// The server writes the join's rows in place and its workers copy them
	// into recycled exchange blocks; under ORDER BY and DISTINCT the
	// consumer keeps rows, so the workers write them into their arenas.
	stmts := []string{
		"SELECT fact.v, dim.dname FROM fact, dim WHERE fact.g = dim.g",
		"SELECT g, COUNT(*) FROM fact GROUP BY g",
		"SELECT dim.dname, COUNT(*) FROM fact, dim WHERE fact.g = dim.g GROUP BY dim.dname",
		"SELECT fact.id, dim.dname FROM fact, dim WHERE fact.g = dim.g ORDER BY fact.id",
		"SELECT DISTINCT g, v FROM fact WHERE id >= 100",
	}
	want := make(map[string]string, len(stmts))
	for _, s := range stmts {
		sc, ok := pe.ExecuteSQLPipelineCtx(context.Background(), s)
		if !ok {
			return fmt.Errorf("parallel storm statement %q not streamable", s)
		}
		var lines []string
		for tup, ok := sc.Next(); ok; tup, ok = sc.Next() {
			lines = append(lines, tupleLine(tup))
		}
		sc.Close()
		want[s] = sortedDelivery(lines)
	}
	if pe.ParallelStats().Streams == 0 {
		return fmt.Errorf("parallel leg: fault-free warmup never ran on the worker pool")
	}

	killRate := cfg.ParallelKillRate
	if killRate <= 0 {
		killRate = 0.5
	}
	psrv := remotedb.NewServerWithOptions(pe, remotedb.ServerOptions{
		FrameTuples: cfg.FrameTuples,
		Faults: &remotedb.ListenerFaults{
			Seed:            cfg.Seed + 2,
			StreamKillRate:  killRate,
			StreamKillAfter: cfg.KillAfter,
		},
	})
	paddr, err := psrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer psrv.Close()
	prc, err := stormClient(paddr, cfg, 13)
	if err != nil {
		return err
	}
	defer prc.Close()

	rng := rand.New(rand.NewSource(cfg.Seed + 31337))
	streams := cfg.ParallelStreams
	if streams <= 0 {
		streams = 24
	}
	for n := 0; n < streams; n++ {
		stmt := stmts[rng.Intn(len(stmts))]
		var lines []string
		st, err := prc.ExecStream(context.Background(), stmt)
		if err == nil {
			for tup, ok := st.Next(); ok; tup, ok = st.Next() {
				lines = append(lines, tupleLine(tup))
			}
			err = st.Err()
		}
		res.ParStreams++
		switch {
		case err != nil:
			res.ParFailed++
		case sortedDelivery(lines) != want[stmt]:
			res.ParCompleted++
			res.ParMismatched++
		default:
			res.ParCompleted++
		}
	}
	res.ParEngineRuns = pe.ParallelStats().Streams

	if res.ParStreams != res.ParCompleted+res.ParFailed {
		return fmt.Errorf("parallel leg books do not balance: %d != %d + %d",
			res.ParStreams, res.ParCompleted, res.ParFailed)
	}
	if res.ParMismatched > 0 {
		return fmt.Errorf("parallel leg: %d completed streams did not bag-match the fault-free delivery", res.ParMismatched)
	}
	if res.ParCompleted == 0 {
		return fmt.Errorf("parallel leg: kill rate %.2f starved every stream (%d attempted)", killRate, res.ParStreams)
	}
	if killRate > 0 && res.ParFailed == 0 {
		return fmt.Errorf("parallel leg: kill rate %.2f never failed a tokenless stream — the storm did not bite", killRate)
	}
	return nil
}

// tupleLine renders one tuple as a pipe-joined line.
func tupleLine(tup relation.Tuple) string {
	var sb strings.Builder
	for i, v := range tup {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(v.String())
	}
	return sb.String()
}

// stormClient is the storm's one client stack, shared by every leg (seedOff
// keeps their jitter streams apart): a pool of PoolSize connections, each
// redialed by the request that finds it dead, under the full resilience
// policy. MaxRetries bounds
// consecutive ZERO-progress lives, not total kills: a severed connection can
// discard frames the client had not drained yet, so individual lives may
// strand nothing — the bound only needs to exceed any plausible run of them.
func stormClient(addr string, cfg stormConfig, seedOff int64) (*remotedb.ResilientClient, error) {
	poolSize := cfg.PoolSize
	if poolSize == 0 {
		poolSize = 2
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 50
	}
	p, err := remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:        poolSize,
		FrameTuples: cfg.FrameTuples,
		Costs:       remotedb.DefaultCosts(),
	})
	if err != nil {
		return nil, err
	}
	// BreakerFailures -1: the breaker exists for a REMOTE that is down, and
	// under a deliberate kill-everything storm it would (correctly, for its
	// own policy) open and fast-fail the very resumes under test. The storm
	// measures the repair machinery, so the breaker sits this one out; the
	// request-level chaos harness (chaos.go) keeps it engaged.
	// Real (but tiny) backoff: a no-op Sleep fires every retry inside the
	// same kill window — fifty instant attempts against a connection that is
	// mid-teardown prove nothing. Microsecond-scale spacing lets redials
	// land between kills while keeping the whole storm sub-second.
	return remotedb.NewResilientClient(p, remotedb.Resilience{
		JitterSeed:      cfg.Seed + seedOff,
		MaxRetries:      maxRetries,
		BreakerFailures: -1,
		BaseBackoff:     200 * time.Microsecond,
		MaxBackoff:      2 * time.Millisecond,
	}), nil
}
