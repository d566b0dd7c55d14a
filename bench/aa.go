package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The A/A self-check runs identical code several times, each time on another
// seed and in a process of its own, the way the benchmark's driver does, and
// reports how far apart the runs land: a metric whose own spread is near its
// bound cannot tell a regression from noise.

// manifest is the part of BENCHMARK.json the self-check reads: the bounds
// live there and nowhere else.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the driver's rule), and the median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// timingDiagnostics are the timings a run prints and BENCHMARK.json does not
// gate.
var timingDiagnostics = []string{"ops_per_s", "op_p50_us", "op_p95_us", "cpu_us_per_op"}

func runAA(o options) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		warnf("-aa reads the bounds from BENCHMARK.json in the current directory: %v", err)
		return 1
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		warnf("BENCHMARK.json: %v", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		warnf("%v", err)
		return 1
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	fmt.Printf("# A/A self-check: %d runs per workload, seeds %d-%d, %d s each\n\n", o.aa, o.seed, o.seed+int64(o.aa)-1, mf.RunSeconds)
	fmt.Println("Spread is the distance between the first and third quartile of the runs as a")
	fmt.Println("share of their median (the driver's rule); range is (max-min)/median. A gated")
	fmt.Println("metric passes when its spread is at most half its bound. The timings below each")
	fmt.Println("table are diagnostics: they are shown so that their spread is on record.")
	exit := 0
	for _, name := range names {
		values := map[string][]float64{}
		for k := 0; k < o.aa; k++ {
			cmd := exec.Command(self,
				"-workload", name,
				"-seed", strconv.FormatInt(o.seed+int64(k), 10),
				"-seconds", strconv.Itoa(mf.RunSeconds),
				"-trace", "0",
				"-data", o.dataRoot)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				warnf("%s run %d: %v", name, k+1, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				warnf("%s run %d: last line is not a report: %v", name, k+1, err)
				return 1
			}
			if !rep.Correct {
				warnf("%s run %d: %d of %d ops failed", name, k+1, rep.Failed, rep.Attempted)
				exit = 1
			}
			for m, v := range rep.Metrics {
				values[m] = append(values[m], v.Value)
			}
			// The diagnostics are only in the lines above the report.
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(string(l))
				if len(f) == 3 && slices.Contains(timingDiagnostics, f[0]) {
					if v, err := strconv.ParseFloat(f[1], 64); err == nil {
						values[f[0]] = append(values[f[0]], v)
					}
				}
			}
		}
		fmt.Printf("\n## %s\n\n", name)
		fmt.Println("| metric | unit | min | median | max | range | spread | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, e := range mf.EndToEnd {
			xs := values[e.Name]
			if len(xs) < 2 {
				warnf("%s: no values for %s", name, e.Name)
				return 1
			}
			q1, med, q3 := quartiles(xs)
			lo, hi := slices.Min(xs), slices.Max(xs)
			spread := (q3 - q1) / med
			verdict := "ok"
			if spread > e.Bound/2 {
				verdict = "**over half the bound**"
				exit = 1
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				e.Name, e.Unit, sig(lo), sig(med), sig(hi), 100*(hi-lo)/med, 100*spread, 100*e.Bound, verdict)
		}
		fmt.Println("\n| diagnostic | min | median | max | range | spread |")
		fmt.Println("|---|---|---|---|---|---|")
		for _, d := range timingDiagnostics {
			xs := values[d]
			if len(xs) < 2 {
				warnf("%s: no values for %s", name, d)
				return 1
			}
			q1, med, q3 := quartiles(xs)
			lo, hi := slices.Min(xs), slices.Max(xs)
			fmt.Printf("| %s | %s | %s | %s | %.2f%% | %.2f%% |\n", d, sig(lo), sig(med), sig(hi), 100*(hi-lo)/med, 100*(q3-q1)/med)
		}
	}
	return exit
}

// sig prints a value with five significant digits.
func sig(v float64) string {
	return strings.TrimSpace(strconv.FormatFloat(v, 'g', 5, 64))
}
