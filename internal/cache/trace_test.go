package cache

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/remotedb"
)

// TestCrossTierTrace runs a remote-miss query through a CMS whose pooled v2
// transport talks to a real TCP server, with one tracer wired into both
// tiers (as a single-process deployment would share a ring): the CMS spans
// and the server/engine spans must land under ONE trace ID, stitched by the
// trace ID the pool puts on the wire request.
func TestCrossTierTrace(t *testing.T) {
	e, _ := fixtureEngine(t, 7, 30)
	tr := obs.NewTracer(1, 256)
	e.SetTracer(tr)
	srv := remotedb.NewServerWithOptions(e, remotedb.ServerOptions{Tracer: tr})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	costs := remotedb.DefaultCosts()
	p, err := remotedb.DialPool(addr, remotedb.PoolOptions{Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cms := New(p, Options{Features: AllFeatures(), Costs: costs, Tracer: tr})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	// A 2-subgoal conjunction translates to a join SQL: remote miss, planned
	// execution, every tier instruments it.
	const q = `d(X, Y) :- b2(X, Z) & b3(Z, "a", Y)`
	drainQ(t, s, q)

	// Find the cms.query root, then collect every span in its trace. The
	// server commits its stream span asynchronously after the client drains.
	deadline := time.Now().Add(2 * time.Second)
	for {
		byName := map[string]bool{}
		var root uint64
		for _, sp := range tr.Spans() {
			if sp.Name == "cms.query" {
				root = sp.TraceID
			}
		}
		if root != 0 {
			for _, sp := range tr.Spans() {
				if sp.TraceID == root {
					byName[sp.Name] = true
				}
			}
		}
		if byName["cms.query"] && byName["cms.remote_fetch"] && byName["server.stream"] &&
			(byName["engine.plancache"] || byName["engine.optimize"] || byName["engine.execute"]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cross-tier trace incomplete; trace %x has %v", root, byName)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The root span names the planner's verdict: the miss went remote, and
	// a repeat is an exact hit.
	drainQ(t, s, q)
	var answers []string
	for _, sp := range tr.Spans() {
		if sp.Name != "cms.query" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "answer" {
				answers = append(answers, a.Val)
			}
		}
	}
	if !slices.Equal(answers, []string{"remote", "exact"}) {
		t.Fatalf("cms.query answers %v, want [remote exact]", answers)
	}
}

// TestCMSMetricsRegistry: a CMS built with a metrics registry exposes its
// counters read-through — the Prometheus text must reflect the same numbers
// Stats() reports, without any double accounting.
func TestCMSMetricsRegistry(t *testing.T) {
	e, _ := fixtureEngine(t, 8, 30)
	reg := obs.NewRegistry()
	cms := newCMS(t, e, Options{Features: AllFeatures(), Metrics: reg})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	q := `d(X, Y) :- b2(X, Z) & b3(Z, "a", Y)`
	drainQ(t, s, q)
	drainQ(t, s, q)

	st := cms.Stats()
	if st.Queries != 2 || st.CacheHits != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"braid_cms_queries_total 2",
		"braid_cms_cache_hits_total 1",
		"braid_pool_requests_total",
		"braid_cms_query_us",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}
