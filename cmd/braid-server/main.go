// Command braid-server runs the remote DBMS half of a BrAID deployment: it
// loads a database (a SQL script, a built-in synthetic workload, or both)
// and serves it over TCP, reproducing the paper's split of CMS/IE on a
// workstation and the DBMS on a separate database server.
//
// Usage:
//
//	braid-server -addr :7700 -load schema.sql
//	braid-server -addr :7700 -workload kinship -scale 200
//
// Clients connect with braid.WithRemote(addr) or braid-repl -remote addr.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	load := flag.String("load", "", "SQL script to execute at startup (one statement per ; terminated line group)")
	wl := flag.String("workload", "", "built-in workload to load: kinship | suppliers | chain")
	scale := flag.Int("scale", 100, "workload scale")
	seed := flag.Int64("seed", 1, "workload seed")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "drop connections idle for this long (0: never)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "drop connections whose peer stops reading a response (0: never)")
	queryTimeout := flag.Duration("query-timeout", 0, "answer a request not begun, or a SELECT still streaming, after this long with a deadline error (0: unbounded)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing requests; excess is shed with an overload error (0: unbounded)")
	grace := flag.Duration("grace", 5*time.Second, "shutdown drain period for in-flight requests")
	flakyDrop := flag.Float64("flaky-drop", 0, "fault injection: per-request probability of dropping the connection")
	flakyDelayRate := flag.Float64("flaky-delay-rate", 0, "fault injection: per-request probability of a delay")
	flakyDelay := flag.Duration("flaky-delay", 100*time.Millisecond, "fault injection: delay duration")
	flakySeed := flag.Int64("flaky-seed", 1, "fault injection: deterministic seed")
	flakyStreamKill := flag.Float64("flaky-stream-kill", 0, "fault injection: per-stream probability of severing the connection mid-stream (streamed results)")
	flakyStreamAfter := flag.Int("flaky-stream-after", 2, "fault injection: response frames delivered before a stream kill severs the connection")
	frameTuples := flag.Int("frame-tuples", 0, "default tuples per response frame (0: built-in default)")
	connStreams := flag.Int("conn-streams", 0, "concurrently executing requests per framed connection (0: 1, session-serial)")
	parallelism := flag.Int("parallelism", runtime.NumCPU(), "worker-pool bound for morsel-parallel query execution (1: serial only)")
	dataDir := flag.String("data-dir", "", "durable mode: WAL + checkpoint directory; mutations are logged before apply and recovered at startup (empty: in-memory only)")
	fsync := flag.String("fsync", "always", "with -data-dir: WAL sync policy — always (every acked write survives a crash), interval (sync at most once per -fsync-interval), off (OS writeback only)")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "with -fsync interval: maximum time between WAL syncs")
	walSegment := flag.Int64("wal-segment", 64<<20, "with -data-dir: rotate the WAL behind a checkpoint once the live segment exceeds this many bytes")
	admin := flag.String("admin", "", "admin HTTP listen address serving /metrics (Prometheus), /debug/vars (expvar), /debug/pprof/, /debug/traces (empty: disabled)")
	traceEvery := flag.Int("trace-sample", 64, "with -admin: record a trace for one in N requests (1: every request)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log queries slower than this many milliseconds as structured JSON on stderr (0: disabled)")
	flag.Parse()

	var reg *obs.Registry
	var tracer *obs.Tracer
	if *admin != "" {
		reg = obs.NewRegistry()
		obs.RegisterRuntime(reg)
		tracer = obs.NewTracer(*traceEvery, 4096)
	}

	var engine *remotedb.Engine
	if *dataDir != "" {
		pol, err := remotedb.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		var rst *remotedb.RecoveryStats
		engine, rst, err = remotedb.OpenEngine(remotedb.Durability{
			Dir:          *dataDir,
			Fsync:        pol,
			FsyncEvery:   *fsyncEvery,
			SegmentBytes: *walSegment,
			Tracer:       tracer,
		})
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		defer engine.CloseWAL()
		fmt.Printf("braid-server: durable on %s (fsync %s): recovered %d checkpoint tables + %d WAL records (gen %d, epoch %d, %d torn bytes truncated) in %v\n",
			*dataDir, pol, rst.CheckpointTables, rst.Replayed, rst.Gen, rst.Epoch, rst.TruncatedBytes, rst.WallTime)
		if reg != nil {
			registerDurabilityMetrics(reg, engine, rst)
		}
	} else {
		engine = remotedb.NewEngine()
	}
	engine.SetParallelism(*parallelism)
	if *parallelism > 1 {
		fmt.Printf("braid-server: morsel-parallel execution up to dop %d\n", *parallelism)
	}

	switch *wl {
	case "":
	case "kinship":
		for _, t := range workload.Kinship(*seed, *scale).Tables {
			engine.LoadTable(t)
		}
	case "suppliers":
		for _, t := range workload.Suppliers(*seed, *scale).Tables {
			engine.LoadTable(t)
		}
	case "chain":
		for _, t := range workload.Chain(*seed, *scale, 32).Tables {
			engine.LoadTable(t)
		}
	default:
		log.Fatalf("unknown workload %q", *wl)
	}

	if *load != "" {
		src, err := os.ReadFile(*load)
		if err != nil {
			log.Fatal(err)
		}
		for _, stmt := range strings.Split(string(src), ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if _, _, err := engine.ExecuteSQL(stmt); err != nil {
				log.Fatalf("%s: %v", stmt, err)
			}
		}
	}

	opts := remotedb.ServerOptions{
		IdleTimeout:    *idle,
		WriteTimeout:   *writeTimeout,
		RequestTimeout: *queryTimeout,
		MaxInflight:    *maxInflight,
		FrameTuples:    *frameTuples,
		ConnStreams:    *connStreams,
	}
	var adminSrv *obs.AdminServer
	if *admin != "" {
		engine.SetTracer(tracer)
		opts.Tracer = tracer
		opts.Metrics = reg
		var err error
		if adminSrv, err = obs.ServeAdmin(*admin, reg, tracer); err != nil {
			log.Fatal(err)
		}
		defer adminSrv.Close()
		fmt.Printf("braid-server: admin endpoints on http://%s (/metrics /debug/vars /debug/pprof/ /debug/traces)\n", adminSrv.Addr())
	}
	if *slowQueryMS > 0 {
		opts.SlowQuery = time.Duration(*slowQueryMS) * time.Millisecond
		opts.SlowLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		fmt.Printf("braid-server: slow-query log enabled at %dms\n", *slowQueryMS)
	}
	if *maxInflight > 0 || *queryTimeout > 0 {
		fmt.Printf("braid-server: admission control (max-inflight %d, query-timeout %v)\n",
			*maxInflight, *queryTimeout)
	}
	if *flakyDrop > 0 || *flakyDelayRate > 0 || *flakyStreamKill > 0 {
		opts.Faults = &remotedb.ListenerFaults{
			Seed:            *flakySeed,
			DropRate:        *flakyDrop,
			DelayRate:       *flakyDelayRate,
			Delay:           *flakyDelay,
			StreamKillRate:  *flakyStreamKill,
			StreamKillAfter: *flakyStreamAfter,
		}
		fmt.Printf("braid-server: FLAKY mode (drop %.2f, delay %.2f x %v, stream-kill %.2f after %d frames, seed %d)\n",
			*flakyDrop, *flakyDelayRate, *flakyDelay, *flakyStreamKill, *flakyStreamAfter, *flakySeed)
	}
	srv := remotedb.NewServerWithOptions(engine, opts)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("braid-server: serving %d tables on %s\n", len(engine.Tables()), bound)
	for _, t := range engine.Tables() {
		st, _ := engine.Stats(t)
		fmt.Printf("  %-16s %d rows\n", t, st.Rows)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("\n%v: shutting down (draining up to %v)\n", got, *grace)
	if err := srv.Shutdown(*grace); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if st := srv.ServerStats(); st.Shed > 0 || st.Timeouts > 0 {
		fmt.Printf("admission: shed %d requests, timed out %d\n", st.Shed, st.Timeouts)
	}
	if st := srv.ServerStats(); st.FramesSent > 0 {
		fmt.Printf("streaming: %d frames sent, %d streams canceled\n", st.FramesSent, st.StreamsCanceled)
	}
	if st := srv.ServerStats(); st.StreamKills > 0 || st.StreamResumes > 0 {
		fmt.Printf("recovery: %d streams killed by fault injection, %d resumed from tokens\n", st.StreamKills, st.StreamResumes)
	}
}

// registerDurabilityMetrics exposes the WAL's cumulative counters and the
// boot-time recovery outcome. The WAL counters are read-through; the recovery
// stats are constants describing the last recovery pass.
func registerDurabilityMetrics(reg *obs.Registry, engine *remotedb.Engine, rst *remotedb.RecoveryStats) {
	reg.CounterFunc("braid_wal_appends_total", "WAL records appended.", func() int64 { return engine.WALStats().Appends })
	reg.CounterFunc("braid_wal_syncs_total", "WAL fsync calls issued.", func() int64 { return engine.WALStats().Syncs })
	reg.CounterFunc("braid_wal_rotations_total", "WAL segment rotations (checkpoints written).", func() int64 { return engine.WALStats().Rotations })
	reg.CounterFunc("braid_wal_bytes_total", "Bytes appended to the WAL.", func() int64 { return engine.WALStats().Bytes })
	reg.GaugeFunc("braid_engine_recovery_replayed", "WAL records replayed at the last recovery.", func() float64 { return float64(rst.Replayed) })
	reg.GaugeFunc("braid_engine_recovery_truncated_bytes", "Torn-tail bytes truncated at the last recovery.", func() float64 { return float64(rst.TruncatedBytes) })
	reg.GaugeFunc("braid_engine_recovery_wall_seconds", "Wall time of the last recovery pass.", rst.WallTime.Seconds)
	reg.GaugeFunc("braid_engine_recovery_epoch", "Catalog epoch after the last recovery.", func() float64 { return float64(rst.Epoch) })
}
