package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// tinyRun measures one workload at tinySizes.
func tinyRun(t *testing.T, name string, seed int64, trace int) *outcome {
	t.Helper()
	oc, err := measure(options{
		workload: name, seed: seed, trace: trace,
		dataRoot: t.TempDir(), sz: tinySizes,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !oc.rep.Correct {
		t.Fatalf("%s seed %d: %d of %d ops failed", name, seed, oc.rep.Failed, oc.rep.Attempted)
	}
	return oc
}

// exactDelta blanks the counters that are allowed to differ between passes.
func exactDelta(c counters) counters {
	for i := range inexactCounters {
		c[i] = 0
	}
	return c
}

// The same seed must give the same inputs, the same results and the same
// exact counters, in every pass of every run; another seed, other inputs.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := tinyRun(t, name, 7, 0), tinyRun(t, name, 7, 0)
			if a.hash != b.hash {
				t.Errorf("same seed, input hashes %x and %x", a.hash, b.hash)
			}
			if x, y := a.diag["results_per_op"], b.diag["results_per_op"]; x != y {
				t.Errorf("same seed, results_per_op %v and %v", x, y)
			}
			first := exactDelta(a.passes[0].delta)
			for _, oc := range []*outcome{a, b} {
				for k, p := range oc.passes {
					if d := exactDelta(p.delta); d != first {
						for i := range d {
							if d[i] != first[i] {
								t.Errorf("pass %d: %s is %d, in the first pass %d", k+1, counterNames[i], d[i], first[i])
							}
						}
					}
				}
			}
			if c := tinyRun(t, name, 8, 0); c.hash == a.hash {
				t.Errorf("seeds 7 and 8 give the same input hash %x", c.hash)
			}
		})
	}
}

// The traced pass must leave the program on the path it takes untraced (the
// run fails otherwise), and a run must report exactly the metrics
// BENCHMARK.json names.
func TestTracedRunMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Names    []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range mf.Names {
		listed = append(listed, w.Name)
	}
	if got, want := sortedCopy(listed), sortedCopy(workloadNames); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %v", got, want)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			oc := tinyRun(t, name, 7, 1)
			check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
				if len(got) != len(want) {
					t.Errorf("%s: %d metrics reported, %d listed", kind, len(got), len(want))
				}
				for _, m := range want {
					g, ok := got[m.Name]
					if !ok {
						t.Errorf("%s metric %s is listed and not reported", kind, m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("%s metric %s: unit %q reported, %q listed", kind, m.Name, g.Unit, m.Unit)
					}
				}
			}
			check("end-to-end", oc.e2e, mf.EndToEnd)
			check("per-layer", oc.layer, mf.PerLayer)
			for name, m := range oc.e2e {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", name, m.Value)
				}
			}
		})
	}
}

// A result that differs from the oracle's must count as a failed op.
func TestOracleCatchesWrongResult(t *testing.T) {
	w := newCAQLCold(7, tinySizes)
	got := make([]fingerprint, w.ops())
	for i := range got {
		fp, err := w.reference(i)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = fp
	}
	if bad, err := checkAgainstOracle(w, got); err != nil || bad != 0 {
		t.Fatalf("oracle against itself: %d mismatches, err %v", bad, err)
	}
	got[3].sum++
	got[5].rows++
	if bad, _ := checkAgainstOracle(w, got); bad != 2 {
		t.Errorf("two corrupted results, %d caught", bad)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1 2 4 8 16 = %v %v, want 1.5 12", q1, q3)
	}
}

func sortedCopy(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}
