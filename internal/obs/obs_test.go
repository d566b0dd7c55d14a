package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("braid_test_total", "a counter")
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: the same name returns the same counter.
	if r.Counter("braid_test_total", "a counter") != c {
		t.Fatal("Counter is not idempotent per name")
	}
	g := r.Gauge("braid_test_gauge", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	r.CounterFunc("braid_test_func_total", "read-through", func() int64 { return 7 })
	r.GaugeFunc("braid_test_func_gauge", "read-through", func() float64 { return 1.5 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE braid_test_total counter", "braid_test_total 5",
		"# TYPE braid_test_gauge gauge", "braid_test_gauge 2.5",
		"braid_test_func_total 7", "braid_test_func_gauge 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("braid_test_us", "latencies")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	p50 := quantile(h, 0.50)
	if p50 < 256 || p50 > 1024 {
		t.Errorf("p50 = %g, want within the bucket holding 500 (256,1024]", p50)
	}
	p99 := quantile(h, 0.99)
	if p99 < 512 || p99 > 1024 {
		t.Errorf("p99 = %g, want in (512,1024]", p99)
	}
	if q := quantile(h, 1.0); q > 1024 {
		t.Errorf("p100 = %g, want <= 1024", q)
	}
	// Overflow bucket: huge values land in +Inf and report the last bound.
	h2 := r.Histogram("braid_test2_us", "overflow")
	h2.Observe(1 << 40)
	if q := quantile(h2, 0.5); q != float64(int64(1)<<(histBuckets-1)) {
		t.Errorf("overflow quantile = %g", q)
	}
	h2.Observe(-5) // clamps to 0, must not panic
}

// quantile returns h's q-quantile (0 <= q <= 1) estimated by a cumulative
// walk with linear interpolation inside the matched bucket; observations in
// the overflow bucket report the largest finite bound.
func quantile(h *Histogram, q float64) float64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i := 0; i <= histBuckets; i++ {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	_, hi := bucketBounds(histBuckets)
	return hi
}

// bucketBounds returns the [lower, upper] value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	if i >= histBuckets {
		// Overflow: report the largest finite bound for both ends.
		b := math.Ldexp(1, histBuckets-1)
		return b, b
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

func TestBucketFor(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for v, want := range cases {
		if got := bucketFor(v); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", v, got, want)
		}
	}
	if got := bucketFor(1 << 62); got != histBuckets {
		t.Errorf("bucketFor(1<<62) = %d, want overflow %d", got, histBuckets)
	}
}

// TestPrometheusFormatParses is a minimal exposition-format validator: every
// non-comment line must be "name[{labels}] value", histogram bucket counts
// must be cumulative and end in +Inf, and TYPE lines must precede samples.
func TestPrometheusFormatParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("braid_a_total", "a").Add(3)
	h := r.Histogram("braid_b_us", "b")
	h.Observe(10)
	h.Observe(100000)
	r.GaugeFunc("braid_c", "c", func() float64 { return 0.25 })
	var b strings.Builder
	r.WritePrometheus(&b)

	typed := map[string]bool{}
	lastBucket := map[string]int64{}
	sawInf := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			t.Fatalf("unparseable value %q in %q: %v", val, line, err)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base,
			"_bucket"), "_sum"), "_count")
		if !typed[family] && !typed[base] {
			t.Errorf("sample %q has no preceding TYPE", line)
		}
		if strings.Contains(name, "_bucket{") {
			if int64(f) < lastBucket[family] {
				t.Errorf("bucket counts not cumulative at %q", line)
			}
			lastBucket[family] = int64(f)
			if strings.Contains(name, `le="+Inf"`) {
				sawInf[family] = true
			}
		}
	}
	if !sawInf["braid_b_us"] {
		t.Error("histogram missing +Inf bucket")
	}
}

func TestTracerSamplingAndParenting(t *testing.T) {
	tr := NewTracer(1, 64)
	ctx, root := tr.Start(context.Background(), "root")
	if root == nil {
		t.Fatal("sampleEvery=1 must record every root span")
	}
	_, child := tr.Start(ctx, "child")
	if child == nil {
		t.Fatal("child of a recorded span must record")
	}
	if child.TraceID != root.TraceID || child.ParentID != root.SpanID {
		t.Fatalf("child not stitched: %+v vs root %+v", child, root)
	}
	if TraceID(ctx) != root.TraceID {
		t.Fatal("TraceID(ctx) should report the active span's trace")
	}
	child.Set("k", "v")
	child.End()
	root.End()
	root.End() // idempotent
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("ring has %d spans, want 2", len(spans))
	}
	dump := tr.Dump()
	if !strings.Contains(dump, "root") || !strings.Contains(dump, "child") ||
		!strings.Contains(dump, "k=v") {
		t.Errorf("dump missing content:\n%s", dump)
	}
}

func TestTracerSampleEveryN(t *testing.T) {
	tr := NewTracer(10, 64)
	recorded := 0
	for i := 0; i < 100; i++ {
		_, s := tr.Start(context.Background(), "q")
		if s != nil {
			recorded++
			s.End()
		}
	}
	if recorded != 10 {
		t.Fatalf("1-in-10 sampler recorded %d of 100", recorded)
	}
}

func TestTracerAdoptedTraceID(t *testing.T) {
	// A server-side tracer sampling 1-in-1000 must still record spans whose
	// trace ID was adopted from the wire.
	tr := NewTracer(1000, 16)
	ctx := WithTraceID(context.Background(), 0xabc)
	if TraceID(ctx) != 0xabc {
		t.Fatal("WithTraceID/TraceID round trip failed")
	}
	_, s := tr.Start(ctx, "srv")
	if s == nil {
		t.Fatal("adopted trace ID must bypass the sampler")
	}
	if s.TraceID != 0xabc {
		t.Fatalf("span trace = %x, want adopted 0xabc", s.TraceID)
	}
	s.End()
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.Set("k", "v")
	s.End()
	if TraceID(ctx) != 0 {
		t.Fatal("nil tracer leaked a trace ID")
	}
	if tr.Spans() != nil || tr.Dump() == "" {
		// Dump on a nil tracer goes through Spans() -> empty message.
	}
	tr.Reset()
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		_, s := tr.Start(context.Background(), fmt.Sprintf("s%d", i))
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	if spans[0].Name != "s6" || spans[3].Name != "s9" {
		t.Fatalf("ring order wrong: %s..%s", spans[0].Name, spans[3].Name)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestTraceJSONExport(t *testing.T) {
	tr := NewTracer(1, 8)
	ctx, root := tr.Start(context.Background(), "q")
	_, c := tr.Start(ctx, "c")
	c.End()
	root.End()
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(b.String()), &spans); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(spans) != 2 || spans[0].TraceID != spans[1].TraceID {
		t.Fatalf("bad export: %+v", spans)
	}
}

// TestSnapshotDuringLoad hammers metric writes and tracer spans from many
// goroutines while scraping concurrently; run under -race this is the
// "stats races by omission" regression test.
func TestSnapshotDuringLoad(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(2, 256)
	c := r.Counter("braid_load_total", "")
	h := r.Histogram("braid_load_us", "")
	r.GaugeFunc("braid_load_gauge", "", func() float64 { return float64(c.Value()) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				h.Observe(int64(c.Value() % 5000))
				ctx, s := tr.Start(context.Background(), "load")
				_, cs := tr.Start(ctx, "inner")
				cs.End()
				s.End()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		r.WritePrometheus(&b)
		quantile(h, 0.99)
		tr.Spans()
		_ = tr.Dump()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

func TestAdminServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("braid_admin_total", "smoke").Add(9)
	RegisterRuntime(r)
	tr := NewTracer(1, 8)
	_, s := tr.Start(context.Background(), "admin")
	s.End()
	a, err := ServeAdmin("127.0.0.1:0", r, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + a.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "braid_admin_total 9") ||
		!strings.Contains(out, "braid_go_goroutines") {
		t.Errorf("/metrics missing expected series:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Error("/debug/vars is not expvar output")
	}
	var spans []Span
	if err := json.Unmarshal([]byte(get("/debug/traces")), &spans); err != nil || len(spans) != 1 {
		t.Errorf("/debug/traces bad payload: %v (%d spans)", err, len(spans))
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}
