// Command braid-bench runs the reproduction's evaluation suite (DESIGN.md
// Section 5, EXPERIMENTS.md) and prints one table per experiment — the
// reproduction's analogue of the paper's deferred performance evaluation.
// It prints; it does not compare. Numbers to hold a change against come from
// the benchmark in bench/ (bash bench/run.sh).
//
// Usage:
//
//	braid-bench                  # run every experiment
//	braid-bench E2 E5            # run selected experiments
//	braid-bench -list            # list experiments
//	braid-bench -cpuprofile cpu.out -memprofile mem.out E10
//	braid-bench -admin 127.0.0.1:9900 E10   # watch /metrics + pprof while it runs
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	adminAddr := flag.String("admin", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address while the suite runs (empty: disabled)")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	// -admin exposes the Go runtime gauges and the pprof handlers while the
	// suite runs; experiment CMS instances are private to each experiment, so
	// this one carries process-level metrics only.
	if *adminAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntime(reg)
		srv, err := obs.ServeAdmin(*adminAddr, reg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -admin: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "braid-bench: admin endpoints on http://%s\n", srv.Addr())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	ran := 0

	for _, e := range experiments.Registry {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Println(e.Run().String())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "braid-bench: no experiment matched %v (use -list)\n", flag.Args())
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "braid-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
