// Package obs is BrAID's zero-dependency observability layer: a metrics
// registry (counters, gauges, log-bucketed histograms) with Prometheus text
// exposition, a lightweight context-propagated span tracer whose trace IDs
// ride the TCP protocol, and an admin HTTP listener that serves both
// plus expvar and pprof. Everything here is allocation-light and safe for
// concurrent use; a nil *Tracer or absent Registry disables the
// corresponding instrumentation at near-zero cost.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry names and serves a process's metrics. Metric constructors are
// get-or-create and safe for concurrent use, so independently initialized
// tiers (CMS, pool, server) can share one registry without coordination.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is anything the registry can expose in Prometheus text format.
type metric interface {
	expose(w io.Writer, name string)
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

func (r *Registry) register(name string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[name]; ok {
		return old
	}
	r.metrics[name] = m
	return m
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (one # HELP / # TYPE pair per family), sorted by name
// so output is diffable.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make(map[string]metric, len(r.metrics))
	for n, m := range r.metrics {
		ms[n] = m
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		ms[n].expose(w, n)
	}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	help string
	v    atomic.Int64
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, &Counter{help: help})
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	return c
}

// Add adds n (n must be >= 0 for the value to remain monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) expose(w io.Writer, name string) {
	header(w, name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
}

// funcCounter exposes an existing atomic counter (e.g. the bridge
// StatsCounters or pool stats) without double accounting: the source stays
// authoritative and the registry reads it at scrape time.
type funcCounter struct {
	help string
	f    func() int64
}

// CounterFunc registers a read-through counter backed by f.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.register(name, &funcCounter{help: help, f: f})
}

func (c *funcCounter) expose(w io.Writer, name string) {
	header(w, name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, c.f())
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, &Gauge{help: help})
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) expose(w io.Writer, name string) {
	header(w, name, g.help, "gauge")
	fmt.Fprintf(w, "%s %g\n", name, g.Value())
}

// funcGauge exposes a computed value (hit rates, pool sizes, runtime stats)
// evaluated at scrape time.
type funcGauge struct {
	help string
	f    func() float64
}

// GaugeFunc registers a read-through gauge backed by f.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, &funcGauge{help: help, f: f})
}

func (g *funcGauge) expose(w io.Writer, name string) {
	header(w, name, g.help, "gauge")
	fmt.Fprintf(w, "%s %g\n", name, g.f())
}

// histBuckets is the number of finite histogram buckets; upper bounds are
// the powers of two 1, 2, 4, ..., 2^(histBuckets-1), which in microsecond
// units spans 1us .. ~35min — wide enough for frame writes and whole-query
// latencies alike at a fixed 32 words of storage.
const histBuckets = 32

// Histogram is a log-bucketed (power-of-two bounds) histogram of int64
// observations. Observe is wait-free; quantile extraction walks the bucket
// counts with linear interpolation inside the target bucket.
type Histogram struct {
	help   string
	counts [histBuckets + 1]atomic.Int64 // [histBuckets] is the +Inf overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Histogram returns (creating if needed) the named histogram. Pick a unit
// suffix for the name (e.g. _us) — the buckets are unitless powers of two.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.register(name, &Histogram{help: help})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	return h
}

// bucketFor maps v to the smallest bucket whose upper bound is >= v.
func bucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // v <= 1<<b
	if b >= histBuckets {
		return histBuckets
	}
	return b
}

// Observe records one value. Negative observations clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketFor(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

func (h *Histogram) expose(w io.Writer, name string) {
	header(w, name, h.help, "histogram")
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, int64(1)<<i, cum)
	}
	cum += h.counts[histBuckets].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.sum.Load())
	fmt.Fprintf(w, "%s_count %d\n", name, h.n.Load())
}

func header(w io.Writer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}
