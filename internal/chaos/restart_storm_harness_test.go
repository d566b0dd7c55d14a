package chaos

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/remotedb"
)

// Restart storm: the crash-recovery counterpart of the connection-kill storm
// (stream_storm.go). The engine under test runs as a REAL subprocess on a
// durable data directory; the parent hammers it with acknowledged insert
// batches and SIGKILLs it mid-burst — no deferred cleanup, no graceful close,
// exactly the death the WAL exists to survive. After each kill the parent
// restarts the child on the same directory and asserts the durability
// contract:
//
//   - prefix durability: every batch acknowledged before the kill is fully
//     present after recovery (fsync=always: ack implies synced);
//   - batch atomicity: a batch is one WAL record, so an unacknowledged batch
//     is either fully present or fully absent — never half-applied;
//   - restart fencing: every table's recovered version is past every version
//     reported before the kill, and a resume token minted before the kill is
//     refused (the logged restart record moves every version to a new tick);
//   - staleness defense: a CMS view is invalidated (not served) once any
//     fetch observes a newer version of the table it reads, counted by
//     EpochInvalidations.

// restartStormConfig parameterizes one restart storm.
type restartStormConfig struct {
	// Dir is the durable data directory shared by every child generation.
	Dir string
	// Rounds is the number of SIGKILL/recover cycles.
	Rounds int
	// RowsPerBatch sizes each INSERT statement (one WAL record per batch).
	RowsPerBatch int
	// Seed drives the kill timing.
	Seed int64
	// MinBurst/MaxBurst bound the seeded delay between the burst starting
	// and the SIGKILL landing.
	MinBurst, MaxBurst time.Duration
	// Fsync is the child's WAL policy. The durability invariant is stated
	// under "always"; the storm only asserts it there.
	Fsync string
	// ChildTimeout bounds one child's startup (spawn to ADDR line).
	ChildTimeout time.Duration
}

// defaultRestartStormConfig is the per-PR smoke storm: a few kill cycles,
// each landing mid-burst, finishing in a few seconds.
func defaultRestartStormConfig(dir string) restartStormConfig {
	return restartStormConfig{
		Dir:          dir,
		Rounds:       3,
		RowsPerBatch: 5,
		Seed:         1,
		MinBurst:     5 * time.Millisecond,
		MaxBurst:     40 * time.Millisecond,
		Fsync:        "always",
		ChildTimeout: 30 * time.Second,
	}
}

// restartStormResult summarizes one storm.
type restartStormResult struct {
	Elapsed time.Duration
	// Kills is the number of SIGKILLs delivered (== Rounds).
	Kills int
	// AckedBatches / AckedRows is the durable ledger the storm verified.
	AckedBatches int
	AckedRows    int
	// RecoveredRows is the table size after the final recovery.
	RecoveredRows int
	// TornTails counts recoveries that truncated a torn final record —
	// evidence the kills landed mid-write, not between appends.
	TornTails int
	// Replayed is the total WAL records replayed across all recoveries.
	Replayed int
	// TokensRefused counts pre-kill resume tokens the recovered engine
	// refused (one per kill round).
	TokensRefused int
	// EpochInvalidations is the CMS counter after the stale-epoch phase.
	EpochInvalidations int64
	// StaleAnswers counts CMS answers that were missing post-recovery rows —
	// any nonzero value is a stale-epoch-defense violation.
	StaleAnswers int
}

// restartChildEnv guards the re-exec: when set, the test binary's TestMain
// runs the child server instead of the test suite.
const restartChildEnv = "BRAID_RESTART_STORM_CHILD"

// restartChildMain is the subprocess entry point: open the durable engine on
// the directory named by the environment, serve it on an ephemeral port,
// report the address and recovery stats on stdout, then block until killed.
// It never returns.
func restartChildMain() {
	dir := os.Getenv(restartChildEnv)
	pol, err := remotedb.ParseFsyncPolicy(os.Getenv("BRAID_RESTART_STORM_FSYNC"))
	if err != nil {
		fmt.Printf("ERR %v\n", err)
		os.Exit(3)
	}
	e, st, err := remotedb.OpenEngine(remotedb.Durability{Dir: dir, Fsync: pol})
	if err != nil {
		fmt.Printf("ERR %v\n", err)
		os.Exit(3)
	}
	srv := remotedb.NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Printf("ERR %v\n", err)
		os.Exit(3)
	}
	fmt.Printf("RECOVERED replayed=%d truncated=%d epoch=%d\n",
		st.Replayed, st.TruncatedBytes, st.Epoch)
	fmt.Printf("ADDR %s\n", addr)
	select {} // hold the process open for the parent's SIGKILL
}

// restartChild is one child generation as seen by the parent.
type restartChild struct {
	cmd       *exec.Cmd
	addr      string
	replayed  int
	truncated int64
}

// spawnRestartChild re-execs the test binary as a child server and waits for
// its address line.
func spawnRestartChild(cfg restartStormConfig) (*restartChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		restartChildEnv+"="+cfg.Dir,
		"BRAID_RESTART_STORM_FSYNC="+cfg.Fsync,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &restartChild{cmd: cmd}
	lines := make(chan string, 4)
	errs := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		errs <- sc.Err()
	}()
	deadline := time.After(cfg.ChildTimeout)
	for {
		select {
		case line := <-lines:
			switch {
			case strings.HasPrefix(line, "ADDR "):
				ch.addr = strings.TrimPrefix(line, "ADDR ")
				return ch, nil
			case strings.HasPrefix(line, "RECOVERED "):
				for _, kv := range strings.Fields(strings.TrimPrefix(line, "RECOVERED ")) {
					k, v, _ := strings.Cut(kv, "=")
					switch k {
					case "replayed":
						ch.replayed, _ = strconv.Atoi(v)
					case "truncated":
						ch.truncated, _ = strconv.ParseInt(v, 10, 64)
					}
				}
			case strings.HasPrefix(line, "ERR "):
				cmd.Process.Kill()
				cmd.Wait()
				return nil, fmt.Errorf("restart child failed: %s", line)
			}
		case err := <-errs:
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("restart child died before reporting its address: %v", err)
		case <-deadline:
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("restart child did not report an address within %v", cfg.ChildTimeout)
		}
	}
}

// kill delivers SIGKILL and reaps the child.
func (ch *restartChild) kill() {
	ch.cmd.Process.Kill()
	ch.cmd.Wait()
}

// dialRestart is the parent's client stack for one child generation: a small
// plain pool, no retries — the storm must SEE failures (an ack is an ack, an
// error is not), so nothing may paper over the kill.
func dialRestart(addr string) (*remotedb.PoolClient, error) {
	return remotedb.DialPool(addr, remotedb.PoolOptions{
		Size:           2,
		Costs:          remotedb.DefaultCosts(),
		RequestTimeout: 10 * time.Second,
	})
}

// batchStmt builds the one-statement insert batch covering keys [lo, lo+n).
func batchStmt(lo, n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,'v%d')", lo+i, lo+i)
	}
	return sb.String()
}

// recoveredKeys reads the table's key set after a recovery.
func recoveredKeys(c *remotedb.PoolClient) (map[int]bool, error) {
	res, err := c.Exec("SELECT k FROM big")
	if err != nil {
		return nil, err
	}
	keys := make(map[int]bool, res.Rel.Len())
	for _, tup := range res.Rel.Tuples() {
		keys[int(tup[0].AsInt())] = true
	}
	return keys, nil
}

// stormBatch is one issued insert batch in the parent's durability ledger.
type stormBatch struct {
	lo, n int
	acked bool
}

// runRestartStorm executes one storm and checks every invariant, returning a
// non-nil error on the first violation.
func runRestartStorm(cfg restartStormConfig) (restartStormResult, error) {
	var res restartStormResult
	started := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var ledger []stormBatch
	nextK := 0
	var preKillToken string
	var preKillEpoch uint64 // the newest clock any response told the parent before the last kill

	for round := 0; round <= cfg.Rounds; round++ {
		ch, err := spawnRestartChild(cfg)
		if err != nil {
			return res, err
		}
		res.Replayed += ch.replayed
		if ch.truncated > 0 {
			res.TornTails++
		}
		c, err := dialRestart(ch.addr)
		if err != nil {
			ch.kill()
			return res, err
		}

		if round == 0 {
			for _, ddl := range []string{
				"CREATE TABLE big (k INT, v TEXT)",
				"CREATE TABLE aux (a INT)",
				"INSERT INTO aux VALUES (1)",
			} {
				if _, err := c.Exec(ddl); err != nil {
					c.Close()
					ch.kill()
					return res, fmt.Errorf("round 0 setup %q: %v", ddl, err)
				}
			}
		} else {
			// ---- Verify the previous round's kill against the ledger ----
			keys, err := recoveredKeys(c)
			if err != nil {
				c.Close()
				ch.kill()
				return res, fmt.Errorf("round %d: reading recovered table: %v", round, err)
			}
			for _, b := range ledger {
				present := 0
				for i := 0; i < b.n; i++ {
					if keys[b.lo+i] {
						present++
					}
				}
				if b.acked && present != b.n {
					c.Close()
					ch.kill()
					return res, fmt.Errorf("round %d: acked batch [%d,%d) lost %d/%d rows — prefix durability violated",
						round, b.lo, b.lo+b.n, b.n-present, b.n)
				}
				if present != 0 && present != b.n {
					c.Close()
					ch.kill()
					return res, fmt.Errorf("round %d: batch [%d,%d) half-applied: %d/%d rows — batch atomicity violated",
						round, b.lo, b.lo+b.n, present, b.n)
				}
			}
			// No rows from nowhere: every key must belong to an issued batch.
			if len(keys) > nextK {
				c.Close()
				ch.kill()
				return res, fmt.Errorf("round %d: recovered %d rows but only %d were ever issued", round, len(keys), nextK)
			}

			// ---- Restart fencing: every table's version (the read above
			// reported them all on a fresh connection) is past every version
			// reported before the kill, so nothing stamped then is current ----
			for _, tbl := range []string{"big", "aux"} {
				if v := c.ObservedVersion(tbl); v <= preKillEpoch {
					c.Close()
					ch.kill()
					return res, fmt.Errorf("round %d: %s recovered at version %d, not past the pre-kill epoch %d", round, tbl, v, preKillEpoch)
				}
			}

			// ---- Restart fencing: the pre-kill resume token is refused ----
			if preKillToken != "" {
				st, err := c.ExecStreamResume(context.Background(), "SELECT v FROM big", preKillToken, 0)
				if err != nil {
					c.Close()
					ch.kill()
					return res, fmt.Errorf("round %d: resume probe failed outright: %v", round, err)
				}
				_, resumed := resumeState(st)
				for _, ok := st.Next(); ok; _, ok = st.Next() {
				}
				if resumed {
					c.Close()
					ch.kill()
					return res, fmt.Errorf("round %d: recovered engine honored a pre-crash resume token", round)
				}
				res.TokensRefused++
			}
		}

		if round == cfg.Rounds {
			// Final generation: no kill. Run the CMS stale-epoch phase against
			// the live recovered engine, then count the durable rows.
			if err := runEpochPhase(ch.addr, c, &res, cfg.RowsPerBatch, &ledger, &nextK); err != nil {
				c.Close()
				ch.kill()
				return res, err
			}
			keys, err := recoveredKeys(c)
			if err == nil {
				res.RecoveredRows = len(keys)
			}
			c.Close()
			ch.kill()
			break
		}

		// ---- Write burst, SIGKILL landing mid-flight ----
		burst := cfg.MinBurst + time.Duration(rng.Int63n(int64(cfg.MaxBurst-cfg.MinBurst)+1))
		killed := make(chan struct{})
		go func() {
			time.Sleep(burst)
			ch.kill()
			close(killed)
		}()
		minted := false
		for {
			b := stormBatch{lo: nextK, n: cfg.RowsPerBatch}
			nextK += b.n
			_, err := c.Exec(batchStmt(b.lo, b.n))
			if err == nil {
				b.acked = true
				ledger = append(ledger, b)
				if !minted {
					// Mint the fencing probe early in the burst so it exists
					// whenever the kill lands.
					if tok, terr := mintToken(c); terr == nil {
						preKillToken = tok
						minted = true
					}
				}
				continue
			}
			ledger = append(ledger, b) // unacked: all-or-nothing is still owed
			break
		}
		<-killed
		preKillEpoch = c.ObservedEpoch()
		res.Kills++
		res.AckedBatches = 0
		res.AckedRows = 0
		for _, b := range ledger {
			if b.acked {
				res.AckedBatches++
				res.AckedRows += b.n
			}
		}
		c.Close()
	}

	res.Elapsed = time.Since(started)
	if res.Kills != cfg.Rounds {
		return res, fmt.Errorf("delivered %d kills, want %d", res.Kills, cfg.Rounds)
	}
	if res.AckedBatches == 0 {
		return res, fmt.Errorf("no batch was ever acknowledged — the storm wrote nothing")
	}
	if res.TokensRefused != cfg.Rounds {
		return res, fmt.Errorf("only %d/%d pre-crash resume tokens were refused", res.TokensRefused, cfg.Rounds)
	}
	if res.StaleAnswers > 0 {
		return res, fmt.Errorf("CMS served %d stale-epoch answers", res.StaleAnswers)
	}
	if res.EpochInvalidations == 0 {
		return res, fmt.Errorf("stale-epoch phase ran but EpochInvalidations stayed zero — the defense never fired")
	}
	return res, nil
}

// mintToken opens and drains one resumable stream, returning its token.
func mintToken(c *remotedb.PoolClient) (string, error) {
	st, err := c.ExecStream(context.Background(), "SELECT v FROM big")
	if err != nil {
		return "", err
	}
	tok, _ := resumeState(st)
	for _, ok := st.Next(); ok; _, ok = st.Next() {
	}
	if err := st.Err(); err != nil {
		return "", err
	}
	if tok == "" {
		return "", fmt.Errorf("stream carried no resume token")
	}
	return tok, nil
}

// resumeState extracts the resume header from any stream that carries one.
func resumeState(st remotedb.TupleStream) (token string, resumed bool) {
	if rs, ok := st.(interface{ ResumeState() (string, bool) }); ok {
		return rs.ResumeState()
	}
	return "", false
}

// runEpochPhase is the CMS leg: a view over big cached before an insert into
// big must be invalidated — not served — once any fetch observes big's newer
// version. writer inserts through the plain client so the version moves
// under the cache without the CMS's own client seeing it.
func runEpochPhase(addr string, writer *remotedb.PoolClient, res *restartStormResult,
	rowsPerBatch int, ledger *[]stormBatch, nextK *int) error {
	cp, err := dialRestart(addr)
	if err != nil {
		return err
	}
	defer cp.Close()
	cms := cache.New(cp, cache.Options{Costs: remotedb.DefaultCosts(), Features: cache.AllFeatures()})
	s := cms.BeginSession(nil)
	defer s.End()

	qBig := caql.MustParse(`q(X, Y) :- big(X, Y)`)
	qAux := caql.MustParse(`p(A) :- aux(A)`)

	// 1. Cache the big view.
	stream, err := s.Query(qBig)
	if err != nil {
		return fmt.Errorf("epoch phase: caching query: %v", err)
	}
	before := stream.Drain("out").Len()

	// 2. Move big's version under the cache: a durable insert through the
	// writer client (a different pool, so the CMS's own client has not seen
	// the new version yet).
	b := stormBatch{lo: *nextK, n: rowsPerBatch, acked: true}
	*nextK += b.n
	if _, err := writer.Exec(batchStmt(b.lo, b.n)); err != nil {
		return fmt.Errorf("epoch phase: post-cache insert: %v", err)
	}
	*ledger = append(*ledger, b)

	// 3. A fetch of another table observes big's newer version (its frames
	// carry every version that moved since the connection last reported)...
	if stream, err = s.Query(qAux); err != nil {
		return fmt.Errorf("epoch phase: observing query: %v", err)
	}
	stream.Drain("out")

	// 4. ...so re-asking the cached query must invalidate and refetch, never
	// serve the pre-insert extension.
	if stream, err = s.Query(qBig); err != nil {
		return fmt.Errorf("epoch phase: re-query: %v", err)
	}
	after := stream.Drain("out").Len()
	if after != before+rowsPerBatch {
		res.StaleAnswers++
	}
	res.EpochInvalidations = cms.Stats().EpochInvalidations
	return nil
}
