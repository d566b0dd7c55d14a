package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/advice"
	"repro/internal/caql"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// update rewrites the golden files from the tables instead of comparing.
var update = flag.Bool("update", false, "rewrite testdata/E<n>.golden from the experiments' tables")

// tables memoises run: every test that reads an experiment's table reads the
// one run of it this test binary made.
var tables = map[string]*Table{}

// run looks id up in Registry and runs it, once per test binary: the table
// braid-bench prints is the one the shape and golden tests check.
func run(t *testing.T, id string) *Table {
	t.Helper()
	if tab, ok := tables[id]; ok {
		return tab
	}
	for _, e := range Registry {
		if e.ID != id {
			continue
		}
		tab := e.Run()
		if tab.ID != id {
			t.Fatalf("registry entry %s produced table %s", id, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		tables[id] = tab
		return tab
	}
	t.Fatalf("no experiment %s in Registry", id)
	return nil
}

// TestExperimentsGolden holds every experiment's table to
// testdata/<id>.golden: the requests, tuples shipped, simulated times and
// hit ratios E1–E11 report repeat exactly, so any change to them shows up
// here. Columns the table marks WallClock are left out. go test -update
// rewrites the files.
func TestExperimentsGolden(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			got := withoutWallClock(run(t, e.ID)).String()
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (go test -update writes it)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s (go test -update rewrites it):\n%s", e.ID, path, lineDiff(string(want), got))
			}
		})
	}
}

// withoutWallClock is tab without the columns it marks WallClock.
func withoutWallClock(tab *Table) *Table {
	keep := func(cells []string) []string {
		var out []string
		for i, c := range cells {
			if i >= len(tab.WallClock) || !tab.WallClock[i] {
				out = append(out, c)
			}
		}
		return out
	}
	out := *tab
	out.Header, out.Rows, out.WallClock = keep(tab.Header), nil, nil
	for _, row := range tab.Rows {
		out.Rows = append(out.Rows, keep(row))
	}
	return &out
}

// lineDiff lists the lines of want and got that differ, by line number.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func colIndex(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, h := range tab.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s has no column %q", tab.ID, name)
	return -1
}

func TestE1Shape(t *testing.T) {
	tab := run(t, "E1")
	remote := colIndex(t, tab, "remote")
	tuples := colIndex(t, tab, "tuples")
	// Row order: interp-loose/{all,first}, conj-loose/{all,first},
	// compiled-loose/{all,first}, interp-braid/{all,first},
	// interp-loose/anc-first, compiled-loose/anc-first, then the chain rows:
	// for each recursive form and each of a bound and a free goal, the
	// interpreted, conjunction and compiled strategies.
	// Claim 1: compiled issues far fewer remote requests than interpreted
	// for all-solutions under loose coupling.
	if !(cell(t, tab, 4, remote) < cell(t, tab, 0, remote)) {
		t.Errorf("compiled/all should issue fewer remote requests than interpreted/all\n%s", tab)
	}
	// Claim 2 (the per-problem crossover): on the selective anc query with
	// one solution demanded, interpreted ships fewer tuples than compiled.
	if !(cell(t, tab, 8, tuples) < cell(t, tab, 9, tuples)) {
		t.Errorf("interpreted/anc-first should ship fewer tuples than compiled\n%s", tab)
	}
	// Demand sensitivity: interpreted/first costs a fraction of
	// interpreted/all; compiled shows no demand sensitivity.
	if !(cell(t, tab, 1, remote) < cell(t, tab, 0, remote)/10) {
		t.Errorf("interpreted should be demand-sensitive\n%s", tab)
	}
	if cell(t, tab, 4, remote) != cell(t, tab, 5, remote) {
		t.Errorf("compiled should be demand-insensitive\n%s", tab)
	}
	// Claim 3: the BrAID layer cuts the interpreted strategy's remote
	// requests dramatically versus loose coupling.
	if !(cell(t, tab, 6, remote) < cell(t, tab, 0, remote)/2) {
		t.Errorf("braid layer should collapse interpreted remote requests\n%s", tab)
	}
	// Answers agree between strategies for all-solutions runs (distinct).
	ans := colIndex(t, tab, "answers")
	if cell(t, tab, 0, ans) != cell(t, tab, 2, ans) || cell(t, tab, 2, ans) != cell(t, tab, 4, ans) || cell(t, tab, 4, ans) != cell(t, tab, 6, ans) {
		t.Errorf("strategies disagree on answer count\n%s", tab)
	}
	// Every strategy answers each chain row's recursion as the compiled one,
	// the fixpoint, does, in every form: 50 answers bound and 1 275 free.
	const chain = 10
	if len(tab.Rows) != chain+3*2*3 {
		t.Fatalf("E1 has %d rows, want %d\n%s", len(tab.Rows), chain+3*2*3, tab)
	}
	for r := chain; r < len(tab.Rows); r += 3 {
		want := map[bool]float64{true: 50, false: 50 * 51 / 2}[(r-chain)/3%2 == 0]
		for k := 0; k < 3; k++ {
			if got := cell(t, tab, r+k, ans); got != cell(t, tab, r+2, ans) || got != want {
				t.Errorf("%s %s: %v answers, compiled %v, want %v\n%s", tab.Rows[r+k][0], tab.Rows[r+k][2], got, cell(t, tab, r+2, ans), want, tab)
			}
		}
	}
}

// verifyE2Consistency cross-checks every comparator's answers against direct
// evaluation.
func verifyE2Consistency() error {
	w := workload.Chain(13, 100, 20)
	src := w.Source()
	for _, comp := range []core.Comparator{core.ComparatorLoose, core.ComparatorExact, core.ComparatorSingleRel, core.ComparatorBrAID} {
		client := remotedb.NewInProcClient(w.Engine(), remotedb.DefaultCosts())
		ds, err := dataSourceFor(comp, client)
		if err != nil {
			return err
		}
		session := ds.BeginSession(&advice.Advice{})
		for _, q := range e2QueryMix() {
			stream, err := session.Query(q)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", comp, q, err)
			}
			got := stream.Drain("got")
			want, err := caql.Eval(q, src)
			if err != nil {
				return err
			}
			if !got.EqualAsSet(want) {
				return fmt.Errorf("%s: inconsistent answer for %s:\ngot %v\nwant %v",
					comp, q, sorted(got), sorted(want))
			}
		}
		session.End()
	}
	return nil
}

func sorted(r *relation.Relation) *relation.Relation {
	return relation.DistinctRel(r).Sort()
}

func TestE2ShapeAndConsistency(t *testing.T) {
	if err := verifyE2Consistency(); err != nil {
		t.Fatal(err)
	}
	tab := run(t, "E2")
	remote := colIndex(t, tab, "remote")
	hits := colIndex(t, tab, "full-hits")
	// Rows: loose, exact, singlerel, braid.
	if !(cell(t, tab, 3, remote) < cell(t, tab, 0, remote)) {
		t.Errorf("braid should issue fewer remote requests than loose\n%s", tab)
	}
	if !(cell(t, tab, 3, remote) <= cell(t, tab, 1, remote)) {
		t.Errorf("braid should not exceed exact-match remote requests\n%s", tab)
	}
	if !(cell(t, tab, 3, hits) > cell(t, tab, 1, hits)) {
		t.Errorf("subsumption should produce more full hits than exact matching\n%s", tab)
	}
	if cell(t, tab, 0, hits) != 0 {
		t.Errorf("loose coupling must have zero hits\n%s", tab)
	}
}

func TestE3Shape(t *testing.T) {
	tab := run(t, "E3")
	local := colIndex(t, tab, "localSim(ms)")
	// Rows: eager/1, eager/10, eager/all, lazy/1, lazy/10, lazy/all.
	if !(cell(t, tab, 3, local) < cell(t, tab, 0, local)) {
		t.Errorf("lazy/1 should cost less local time than eager/1\n%s", tab)
	}
	if !(cell(t, tab, 3, local) < cell(t, tab, 5, local)) {
		t.Errorf("lazy cost should grow with demand\n%s", tab)
	}
	// Eager cost is ~flat across demand.
	if cell(t, tab, 0, local) < 0.9*cell(t, tab, 2, local) {
		t.Errorf("eager cost should not depend on demand\n%s", tab)
	}
}

func TestE4Shape(t *testing.T) {
	tab := run(t, "E4")
	resp := colIndex(t, tab, "simResp(ms)")
	hits := colIndex(t, tab, "pf-hits")
	// Pairs per latency: off, on.
	for p := 0; p < 3; p++ {
		off, on := 2*p, 2*p+1
		if !(cell(t, tab, on, resp) < cell(t, tab, off, resp)) {
			t.Errorf("prefetching should cut response at latency row %d\n%s", p, tab)
		}
		if cell(t, tab, on, hits) == 0 {
			t.Errorf("expected prefetch hits at latency row %d\n%s", p, tab)
		}
	}
}

func TestE5Shape(t *testing.T) {
	tab := run(t, "E5")
	remote := colIndex(t, tab, "remote")
	gens := colIndex(t, tab, "generalized")
	// Pairs per instance count: off, on. With generalization, remote
	// requests stay near-constant as instances grow; without, they grow.
	offGrowth := cell(t, tab, 4, remote) - cell(t, tab, 0, remote)
	onGrowth := cell(t, tab, 5, remote) - cell(t, tab, 1, remote)
	if !(onGrowth < offGrowth) {
		t.Errorf("generalization should flatten remote growth (off %+.0f vs on %+.0f)\n%s", offGrowth, onGrowth, tab)
	}
	if cell(t, tab, 5, gens) == 0 {
		t.Errorf("expected generalizations\n%s", tab)
	}
	if cell(t, tab, 4, gens) != 0 {
		t.Errorf("generalization off must not generalize\n%s", tab)
	}
}

func TestE6Shape(t *testing.T) {
	tab := run(t, "E6")
	local := colIndex(t, tab, "localSim(ms)")
	builds := colIndex(t, tab, "idx-builds")
	for p := 0; p < 2; p++ {
		off, on := 2*p, 2*p+1
		if !(cell(t, tab, on, local) < cell(t, tab, off, local)) {
			t.Errorf("indexing should cut local time at size row %d\n%s", p, tab)
		}
		if cell(t, tab, on, builds) == 0 {
			t.Errorf("expected index builds\n%s", tab)
		}
	}
	// The advantage is substantial at both sizes (matched rows scale with
	// the extension under a fixed domain, so the ratio is roughly constant
	// rather than growing).
	gainSmall := cell(t, tab, 0, local) / cell(t, tab, 1, local)
	gainBig := cell(t, tab, 2, local) / cell(t, tab, 3, local)
	if gainSmall < 3 || gainBig < 3 {
		t.Errorf("index advantage too small (%.1fx, %.1fx)\n%s", gainSmall, gainBig, tab)
	}
}

// TestE6Repeats: the simulated cost of a run is a function of its inputs. It
// was not while subsume.Match emitted a derivation's residual selections in
// map order — the CMS indexes the first equality it meets, so the same 40
// probes cost anything from 30.6 to 47.0 simulated ms.
func TestE6Repeats(t *testing.T) {
	first := RunE6(true, 1000)
	for i := 1; i < 20; i++ {
		if r := RunE6(true, 1000); r != first {
			t.Fatalf("run %d: %+v, run 0: %+v", i, r, first)
		}
	}
}

func TestE7Shape(t *testing.T) {
	tab := run(t, "E7")
	ref := colIndex(t, tab, "d1-refetches")
	// Rows: off, on.
	if !(cell(t, tab, 1, ref) < cell(t, tab, 0, ref)) {
		t.Errorf("advice replacement should reduce refetches\n%s", tab)
	}
	if cell(t, tab, 1, ref) != 0 {
		t.Errorf("protected element should never be refetched\n%s", tab)
	}
}

func TestE8Shape(t *testing.T) {
	tab := run(t, "E8")
	resp := colIndex(t, tab, "simResp(ms)")
	partial := colIndex(t, tab, "partial-hits")
	for p := 0; p < 3; p++ {
		off, on := 2*p, 2*p+1
		if cell(t, tab, off, partial) == 0 {
			t.Errorf("E8 requires decomposed queries\n%s", tab)
		}
		if !(cell(t, tab, on, resp) < cell(t, tab, off, resp)) {
			t.Errorf("parallel should cut response at latency row %d\n%s", p, tab)
		}
	}
}

func TestE9Shape(t *testing.T) {
	tab := run(t, "E9")
	// Counts, which repeat. Every definition is resident as an element of its
	// own, and what the index hands the matcher does not grow with the cache:
	// of E9Elements only e0 can derive the probe query, at every size (the
	// constant the element mix fixes is 0).
	small, large := RunE9(10), RunE9(1000)
	if small.resident != 10 || large.resident != 1000 {
		t.Errorf("resident elements = %d and %d, want 10 and 1000", small.resident, large.resident)
	}
	if small.survivors < 1 || large.survivors > small.survivors {
		t.Errorf("survivors grew with the cache: %d at 10 elements, %d at 1000", small.survivors, large.survivors)
	}
	if large.matchCalls != large.survivors {
		t.Errorf("matcher ran %d times for %d survivors", large.matchCalls, large.survivors)
	}
	// The 1000-element pass should still be well under one 50ms round trip.
	frac, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[2][4], "x"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if frac >= 1 {
		t.Errorf("subsumption pass costs more than a round trip: %s\n%s", tab.Rows[2][4], tab)
	}
}

// TestAllRuns pins what the suite is: E1..E11, each id once, in order. Each
// experiment runs once per test binary, through run.
func TestAllRuns(t *testing.T) {
	var ids, want []string
	for n := 1; n <= 11; n++ {
		want = append(want, "E"+strconv.Itoa(n))
	}
	for _, e := range Registry {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("registry ids = %v, want %v", ids, want)
	}
}

// TestDocsMatchRegistry: EXPERIMENTS.md reports, and DESIGN.md Section 5
// indexes, exactly the experiments of Registry, in its order.
func TestDocsMatchRegistry(t *testing.T) {
	var want []string
	for _, e := range Registry {
		want = append(want, e.ID)
	}
	ids := func(file, section string, re *regexp.Regexp) []string {
		b, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if section != "" {
			i := strings.Index(text, section)
			if i < 0 {
				t.Fatalf("%s has no %q", file, section)
			}
			text = text[i+len(section):]
			if j := strings.Index(text, "\n## "); j >= 0 {
				text = text[:j]
			}
		}
		var got []string
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			got = append(got, m[1])
		}
		return got
	}
	if got := ids("EXPERIMENTS.md", "", regexp.MustCompile(`(?m)^## (E\d+)\b`)); !reflect.DeepEqual(got, want) {
		t.Errorf("EXPERIMENTS.md sections = %v, registry = %v", got, want)
	}
	if got := ids("DESIGN.md", "\n## 5. ", regexp.MustCompile(`(?m)^\| (E\d+) \|`)); !reflect.DeepEqual(got, want) {
		t.Errorf("DESIGN.md Section 5 rows = %v, registry = %v", got, want)
	}
}

func TestE11Shape(t *testing.T) {
	tab := run(t, "E11")
	failedC := colIndex(t, tab, "failed")
	retriesC := colIndex(t, tab, "retries")
	hitsC := colIndex(t, tab, "hits")
	ansC := colIndex(t, tab, "answered%")
	// A fault-free run is fault-free.
	if cell(t, tab, 0, failedC) != 0 || cell(t, tab, 0, retriesC) != 0 {
		t.Errorf("zero fault rate should not fail or retry\n%s", tab)
	}
	// Under the heaviest fault rate, retries are doing work and the warm
	// cache keeps the answered rate far above 1-faultRate.
	last := len(tab.Rows) - 1
	if cell(t, tab, last, retriesC) == 0 {
		t.Errorf("40%% fault rate should force retries\n%s", tab)
	}
	if cell(t, tab, last, ansC) < 75 {
		t.Errorf("degradation not graceful: answered%% = %v\n%s", tab.Rows[last][ansC], tab)
	}
	for r := 0; r < len(tab.Rows); r++ {
		if cell(t, tab, r, hitsC) == 0 {
			t.Errorf("row %d: cache hits vanished under faults\n%s", r, tab)
		}
	}
}

func TestE10Shape(t *testing.T) {
	tab := run(t, "E10")
	resp := colIndex(t, tab, "simResp(ms)")
	// Full braid has the minimum response time; every ablation costs at
	// least as much, and all-off costs strictly more. (Request counts are
	// deliberately NOT monotone: e.g. disabling prefetch can *reduce*
	// requests because generalization already covers the followers — the
	// table records such interactions honestly.)
	full := cell(t, tab, 0, resp)
	off := cell(t, tab, len(tab.Rows)-1, resp)
	if !(full < off) {
		t.Errorf("full braid should beat all-off on response time\n%s", tab)
	}
	for r := 1; r < len(tab.Rows); r++ {
		if cell(t, tab, r, resp) < full-0.5 {
			t.Errorf("ablation row %d (%s) beats the full configuration\n%s", r, tab.Rows[r][0], tab)
		}
	}
}
