// Command braid-repl is an interactive BrAID session: load a knowledge base,
// connect to a database (in-process SQL script or a remote braid-server),
// and ask AI queries. Meta-commands inspect the machinery the paper
// describes: generated advice, the cache model, session statistics.
//
// Usage:
//
//	braid-repl -kb family.pl -load family.sql
//	braid-repl -kb family.pl -remote 127.0.0.1:7700 -strategy conjunction
//
// At the prompt:
//
//	grandparent(X, Z)?      ask a query (all solutions)
//	.first uncle(X, Y)?     ask for the first solution only
//	.advice k1(X, Y)?       show the advice bundle for a query
//	.cache                  dump the cache model
//	.stats                  show data-layer statistics
//	.trace                  dump sampled query traces (span trees)
//	.sql SELECT * FROM t    run raw SQL (in-process, or against -remote)
//	.explain SELECT ...     show the optimizer's plan for a SELECT
//	.quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	braid "repro"
	"repro/internal/remotedb"
)

// sqlRunner executes raw SQL for the .sql and .explain meta-commands:
// against the in-process database, or — in -remote mode — over a lazily
// dialed side connection to the braid-server (the same engine the inference
// session queries, so EXPLAIN shows the plans the session's statements get).
type sqlRunner struct {
	db     *braid.DB
	remote string
	c      *remotedb.PoolClient
}

func (r *sqlRunner) exec(sql string) (string, error) {
	if r.db != nil {
		return r.db.Exec(sql)
	}
	if r.c == nil {
		// A pooled connection is redialed by the next request after it
		// breaks, so the side connection survives server restarts the same
		// way the session's transport does.
		c, err := remotedb.DialPool(r.remote, remotedb.PoolOptions{
			Size:  1,
			Costs: remotedb.DefaultCosts(),
		})
		if err != nil {
			return "", err
		}
		r.c = c
	}
	res, err := r.c.Exec(sql)
	if err != nil {
		return "", err
	}
	if res == nil || res.Rel == nil {
		return "", nil
	}
	return res.Rel.String(), nil
}

func main() {
	kbPath := flag.String("kb", "", "knowledge base file (required)")
	load := flag.String("load", "", "SQL script for the in-process database")
	remote := flag.String("remote", "", "braid-server address (instead of -load)")
	strategy := flag.String("strategy", "interpreted", "inference strategy: interpreted | conjunction | compiled")
	comparator := flag.String("comparator", "braid", "data layer: braid | loose | exact | singlerel")
	poolSize := flag.Int("pool-size", 1, "remote connection pool size (with -remote)")
	frameTuples := flag.Int("frame-tuples", 0, "preferred tuples per response frame (0: server default)")
	traceEvery := flag.Int("trace-sample", 1, "record a trace for one in N queries for .trace (0: tracing off)")
	flag.Parse()

	if *kbPath == "" {
		fmt.Fprintln(os.Stderr, "braid-repl: -kb is required")
		flag.Usage()
		os.Exit(2)
	}
	kbSrc, err := os.ReadFile(*kbPath)
	if err != nil {
		log.Fatal(err)
	}
	kb, err := braid.ParseKB(string(kbSrc))
	if err != nil {
		log.Fatalf("knowledge base: %v", err)
	}

	var db *braid.DB
	opts := []braid.Option{
		braid.WithStrategy(*strategy),
		braid.WithComparator(*comparator),
		braid.WithExplanations(),
	}
	if *traceEvery > 0 {
		opts = append(opts, braid.WithTracing(*traceEvery, 1024))
	}
	if *remote != "" {
		opts = append(opts, braid.WithRemote(*remote))
		if *poolSize > 0 {
			opts = append(opts, braid.WithPool(*poolSize))
		}
		if *frameTuples > 0 {
			opts = append(opts, braid.WithFrameTuples(*frameTuples))
		}
	} else {
		db = braid.NewDB()
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
				if _, err := db.Exec(stmt); err != nil {
					log.Fatalf("%s: %v", stmt, err)
				}
			}
		}
	}

	sys, err := braid.New(kb, db, opts...)
	if err != nil {
		log.Fatal(err)
	}
	runner := &sqlRunner{db: db, remote: *remote}
	fmt.Printf("braid-repl: strategy=%s comparator=%s; type queries like p(X)? or .help\n", *strategy, *comparator)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("?- ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			fmt.Println("queries: p(X, Y)?   meta: .first <q>, .why <q>, .advice <q>, .cache, .stats, .trace, .sql <stmt>, .explain <select>, .quit")
		case line == ".cache":
			if cm := sys.CacheModel(); cm != "" {
				fmt.Println(cm)
			} else {
				fmt.Println("(no cache)")
			}
		case line == ".stats":
			fmt.Println(sys.Stats())
		case line == ".trace":
			if dump := sys.TraceDump(); dump != "" {
				fmt.Print(dump)
			} else {
				fmt.Println("(no traces recorded; run with -trace-sample >= 1 and ask a query)")
			}
		case strings.HasPrefix(line, ".sql "):
			out, err := runner.exec(strings.TrimPrefix(line, ".sql "))
			if err != nil {
				fmt.Println("error:", err)
			} else if out != "" {
				fmt.Println(out)
			}
		case strings.HasPrefix(line, ".explain "):
			q := strings.TrimPrefix(line, ".explain ")
			if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(q)), "EXPLAIN") {
				q = "EXPLAIN " + q
			}
			out, err := runner.exec(q)
			if err != nil {
				fmt.Println("error:", err)
			} else if out != "" {
				fmt.Println(out)
			}
		case strings.HasPrefix(line, ".advice "):
			adv, err := sys.Advice(strings.TrimPrefix(line, ".advice "))
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(adv)
			}
		case strings.HasPrefix(line, ".first "):
			ask(sys, strings.TrimPrefix(line, ".first "), 1)
		case strings.HasPrefix(line, ".why "):
			why(sys, strings.TrimPrefix(line, ".why "))
		case strings.HasPrefix(line, "."):
			fmt.Println("unknown meta-command; .help")
		default:
			ask(sys, line, 0)
		}
		fmt.Print("?- ")
	}
}

// why prints the first solution with its justification (answer
// justification, paper Section 4.2.1).
func why(sys *braid.System, query string) {
	ans, err := sys.Ask(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer ans.Close()
	row, proof, ok := ans.NextExplained()
	if !ok {
		if err := ans.Err(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("no solutions")
		}
		return
	}
	fmt.Printf("solution: %v\nbecause:\n%s", row, proof)
}

func ask(sys *braid.System, query string, limit int) {
	ans, err := sys.Ask(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer ans.Close()
	vars := ans.Vars()
	n := 0
	for {
		row, ok := ans.Next()
		if !ok {
			break
		}
		n++
		if len(vars) == 0 {
			fmt.Println("true")
		} else {
			parts := make([]string, 0, len(vars))
			for _, v := range vars {
				parts = append(parts, fmt.Sprintf("%s = %v", v, row[v]))
			}
			fmt.Println("  " + strings.Join(parts, ", "))
		}
		if limit > 0 && n >= limit {
			break
		}
	}
	if err := ans.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d solution(s)\n", n)
}
