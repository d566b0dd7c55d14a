package cache

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bridge"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// TestTransportParity: one seeded CAQL session gives the same answers, the
// same statistics and the same session clock through a bare InProcClient,
// through ResilientClient over a zero-rate FaultClient over one, and through
// a PoolClient to a Server on the same engine. Only the counters that exist
// on the framed wire alone (frames, streams, first-frame latency) may differ:
// the CMS takes one fetch path whatever the transport.
func TestTransportParity(t *testing.T) {
	e, _ := fixtureEngine(t, 61, 40)
	costs := remotedb.DefaultCosts()
	srv := remotedb.NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	transports := []struct {
		name string
		dial func() remotedb.Client
	}{
		{"inproc", func() remotedb.Client { return remotedb.NewInProcClient(e, costs) }},
		{"resilient+fault", func() remotedb.Client {
			return remotedb.NewResilientClient(remotedb.NewFaultClient(remotedb.NewInProcClient(e, costs), remotedb.FaultConfig{Seed: 1}), remotedb.Resilience{})
		}},
		{"pool", func() remotedb.Client {
			pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 2, Costs: costs})
			if err != nil {
				t.Fatal(err)
			}
			return pool
		}},
	}
	// Every answer is drained: a stream abandoned early ships a
	// transport-dependent number of tuples.
	features := []Features{AllFeatures(), {Lazy: true}}
	for fi, f := range features {
		type run struct {
			answers []*relation.Relation
			stats   bridge.SourceStats
			simNow  float64
		}
		var runs []run
		for _, tp := range transports {
			client := tp.dial()
			cms := New(client, Options{Features: f, Costs: costs, CacheBytes: 20_000})
			s := cms.BeginSession(nil).(*Session)
			var r run
			rng := rand.New(rand.NewSource(int64(70 + fi)))
			for trial := 0; trial < 60; trial++ {
				q := randomCacheQuery(rng)
				if q == nil {
					continue
				}
				st, err := s.Query(q)
				if err != nil {
					t.Fatalf("%s: query %s: %v", tp.name, q, err)
				}
				got, err := st.DrainErr("got")
				if err != nil {
					t.Fatalf("%s: query %s: %v", tp.name, q, err)
				}
				r.answers = append(r.answers, got)
			}
			s.End()
			r.simNow = s.simNow
			r.stats = cms.Stats()
			r.stats.FramesSent, r.stats.FramesRecv, r.stats.RemoteStreams = 0, 0, 0
			r.stats.StreamsCanceled, r.stats.FirstTupleMS = 0, 0
			client.Close()
			runs = append(runs, r)
		}
		if runs[0].stats.RemoteRequests == 0 || runs[0].stats.CacheHits+runs[0].stats.LazyAnswers == 0 {
			t.Fatalf("features %d: the session exercised nothing: %+v", fi, runs[0].stats)
		}
		for i, r := range runs[1:] {
			tp := transports[i+1].name
			for j := range r.answers {
				if !r.answers[j].EqualAsBag(runs[0].answers[j]) {
					t.Fatalf("features %d, %s: answer %d differs from inproc:\n%v\n%v", fi, tp, j, r.answers[j], runs[0].answers[j])
				}
			}
			if !sameStats(r.stats, runs[0].stats) {
				t.Fatalf("features %d, %s: stats differ from inproc:\n%+v\n%+v", fi, tp, r.stats, runs[0].stats)
			}
			if math.Abs(r.simNow-runs[0].simNow) > 1e-6 {
				t.Fatalf("features %d, %s: session clock %.4f ms, inproc %.4f ms", fi, tp, r.simNow, runs[0].simNow)
			}
		}
	}
}

// sameStats compares two snapshots, the simulated-time sums to rounding.
func sameStats(a, b bridge.SourceStats) bool {
	for _, p := range [][2]*float64{{&a.RemoteSimMS, &b.RemoteSimMS}, {&a.LocalSimMS, &b.LocalSimMS}, {&a.ResponseSimMS, &b.ResponseSimMS}} {
		if math.Abs(*p[0]-*p[1]) > 1e-6 {
			return false
		}
		*p[0], *p[1] = 0, 0
	}
	return a == b
}
