package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// fingerprint identifies an op's result without keeping it: the number of
// rows and an order-independent checksum (the sum of the rows' hashes).
type fingerprint struct {
	rows int
	sum  uint64
}

// workload is one fixed op sequence over one stack. The harness owns the
// loop, the clock and the checks; a workload only knows how to build its
// stack, run op i to exhaustion, and say what op i should have returned.
type workload interface {
	name() string
	// classes names the op classes; class(i) indexes into it.
	classes() []string
	class(i int) int
	ops() int
	// seqHash is a hash of every generated input the program will see.
	seqHash() uint64

	// open builds the server side and the connection under dir; attach
	// builds the client side over it (with the tracer's decorators between
	// the layers when tr is non-nil). Both are set-up time.
	open(dir string) error
	attach(tr *tracer) error
	close() error
	stk() *stack

	// beginPass and endPass bracket one pass, outside the timed region.
	beginPass() error
	endPass()
	// do runs op i and drains its result. firstNS is the time from issue to
	// the first result (or to the end of an empty result). With sum false
	// only the rows are counted.
	do(i int, sum bool) (fp fingerprint, firstNS int64, err error)
	// reference computes op i's result by the workload's oracle.
	reference(i int) (fingerprint, error)
	counters() counters
	// durable names the table the workload writes to (if any) and how many
	// of its rows have been acknowledged.
	durable() (table string, acked int64)
	// probe returns the workload's own tables for the relation-layer probes,
	// innards what the other per-layer probes reach.
	probe() relationProbe
	innards() innards
}

// pass is what one run of the op sequence measured.
type pass struct {
	wallNS  int64
	cpuNS   int64
	mallocs uint64
	bytes   uint64
	lat     []int64 // per op, in op order
	first   []int64
	fps     []fingerprint
	failed  int
	delta   counters
}

// cpuNow is the process's user+system CPU time.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// memNow reads the allocation counters (it stops the world; call it outside
// the timed region only).
func memNow() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// runPass runs the op sequence once. With want nil it is the warm-up pass:
// results are fingerprinted in full, for the oracle. Otherwise want holds the
// warm-up pass's fingerprints and every op's row count is checked against it.
func runPass(w workload, tr *tracer, want []fingerprint) (*pass, error) {
	n := w.ops()
	p := &pass{lat: make([]int64, n), first: make([]int64, n), fps: make([]fingerprint, n)}
	if err := w.beginPass(); err != nil {
		return nil, err
	}
	defer w.endPass()
	runtime.GC()
	c0 := w.counters()
	m0, b0 := memNow()
	cpu0 := cpuNow()
	t0 := time.Now()
	classes := w.classes()
	for i := 0; i < n; i++ {
		var sp *liveSpan
		if tr != nil {
			sp = tr.beginOp(i, classes[w.class(i)])
		}
		s := time.Now()
		fp, first, err := w.do(i, want == nil)
		p.lat[i] = int64(time.Since(s))
		if tr != nil {
			sp.end()
		}
		p.first[i] = first
		p.fps[i] = fp
		if err != nil {
			p.failed++
			if p.failed == 1 {
				warnf("%s op %d failed: %v", w.name(), i, err)
			}
			continue
		}
		if want != nil && fp.rows != want[i].rows {
			p.failed++
			if p.failed == 1 {
				warnf("%s op %d returned %d rows, warm-up pass returned %d", w.name(), i, fp.rows, want[i].rows)
			}
		}
	}
	p.wallNS = int64(time.Since(t0))
	p.cpuNS = cpuNow() - cpu0
	m1, b1 := memNow()
	p.mallocs, p.bytes = m1-m0, b1-b0
	p.delta = w.counters().sub(c0)
	return p, nil
}

// checkAgainstOracle compares the warm-up pass's fingerprints with the
// oracle's and returns the number of mismatches.
func checkAgainstOracle(w workload, got []fingerprint) (int, error) {
	bad := 0
	for i, g := range got {
		ref, err := w.reference(i)
		if err != nil {
			return bad, fmt.Errorf("oracle for op %d: %w", i, err)
		}
		if ref != g {
			bad++
			if bad == 1 {
				warnf("%s op %d: got %d rows (sum %x), oracle %d rows (sum %x)", w.name(), i, g.rows, g.sum, ref.rows, ref.sum)
			}
		}
	}
	return bad, nil
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median returns the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, med, _ := quartiles(xs)
	return med
}

// overPasses computes f on each pass and returns the median.
func overPasses(ps []*pass, f func(*pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

// classLat picks one op class's latencies out of a per-op series.
func classLat(w workload, lat []int64, class int) []int64 {
	var out []int64
	for i, l := range lat {
		if w.class(i) == class {
			out = append(out, l)
		}
	}
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
