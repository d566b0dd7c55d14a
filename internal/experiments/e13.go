package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/advice"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/remotedb"
	"repro/internal/workload"
)

// E13 measures the admission controller under overload: K sessions hammer a
// CMS whose remote backend is a serialized slow server, with and without
// admission control (MaxInflight + bounded queue). Without admission, every
// query queues on the backend and tail latency grows linearly with offered
// load; with admission, excess load is shed instantly with the typed
// ErrOverloaded, bounding the latency of the queries that are admitted. The
// stats-conservation invariant (every query resolves to exactly one outcome)
// must hold in both configurations.

// e13SlowClient serializes every remote request behind one mutex and a fixed
// service time — the single-threaded backend that makes offered load exceed
// capacity.
type e13SlowClient struct {
	remotedb.Client
	mu      sync.Mutex
	service time.Duration
}

func (c *e13SlowClient) ExecStream(ctx context.Context, sql string) (remotedb.TupleStream, error) {
	c.mu.Lock()
	time.Sleep(c.service)
	c.mu.Unlock()
	return c.Client.ExecStream(ctx, sql)
}

// E13Result is one configuration's measurement.
type E13Result struct {
	Sessions  int
	Admission bool
	Offered   int64
	P50, P99  time.Duration // over completed queries
	ShedRate  float64
	Conserved bool
}

// RunE13 runs K sessions of tight-loop consumer-bound queries against the
// slow backend. Features are loose (everything off) so every query is a
// remote round trip — the experiment isolates dispatch behavior, not caching.
func RunE13(k int, admissionOn bool, perSession int) E13Result {
	w := workload.Chain(53, 400, 24)
	costs := remotedb.DefaultCosts()
	slow := &e13SlowClient{
		Client:  remotedb.NewInProcClient(w.Engine(), costs),
		service: 200 * time.Microsecond,
	}
	opts := cache.Options{Features: cache.Features{}, Costs: costs}
	if admissionOn {
		opts.MaxInflight = 4
		opts.MaxQueue = 4
	}
	cms := cache.New(slow, opts)

	var (
		mu        sync.Mutex
		completed []time.Duration
		wg        sync.WaitGroup
	)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			s := cms.BeginSession(advice.MustParse(e4Advice)).(*cache.Session)
			defer s.End()
			for n := 0; n < perSession; n++ {
				// Distinct constants defeat any residual reuse: each query is
				// a fresh remote fetch competing for the backend.
				q := caql.MustParse(fmt.Sprintf(
					`d1(Y) :- b1("c1", Y) & Y != %d`, sid*perSession+n))
				t0 := time.Now()
				stream, err := s.Query(q)
				if err != nil {
					continue // shed (or failed); counted by the CMS stats
				}
				stream.Drain("out")
				d := time.Since(t0)
				mu.Lock()
				completed = append(completed, d)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	sort.Slice(completed, func(a, b int) bool { return completed[a] < completed[b] })
	pct := func(p float64) time.Duration {
		if len(completed) == 0 {
			return 0
		}
		return completed[int(p*float64(len(completed)-1))]
	}
	st := cms.Stats()
	return E13Result{
		Sessions:  k,
		Admission: admissionOn,
		Offered:   st.Queries,
		P50:       pct(0.50),
		P99:       pct(0.99),
		ShedRate:  float64(st.Shed) / float64(st.Queries),
		Conserved: st.DispatchConserved(),
	}
}

func yesNo(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// E13AdmissionControl is the overload table: K ∈ {2, 8, 32} sessions against
// the serialized backend, admission off vs on.
func E13AdmissionControl() *Table {
	t := &Table{
		ID:     "E13",
		Title:  "admission control under overload (serialized slow backend)",
		Claim:  "a MaxInflight bound with a bounded wait queue sheds excess load with the typed ErrOverloaded, keeping admitted-query tail latency flat while unbounded dispatch queues without limit; dispatch conservation holds either way",
		Header: []string{"sessions", "admission", "offered", "p50(us)", "p99(us)", "shed rate", "conserved"},
	}
	const perSession = 30
	for _, k := range []int{2, 8, 32} {
		for _, adm := range []bool{false, true} {
			r := RunE13(k, adm, perSession)
			t.AddRow(fi(int64(r.Sessions)), onOff(r.Admission), fi(r.Offered),
				fi(r.P50.Microseconds()), fi(r.P99.Microseconds()),
				fp(r.ShedRate), yesNo(r.Conserved))
		}
	}
	t.Notes = append(t.Notes,
		"the backend serializes requests at ~200us each, so any K > 1 over-subscribes it; admission is MaxInflight=4 with a queue of 4",
		"p50/p99 are wall-clock over completed (admitted) queries only; shed queries fail in microseconds with bridge.ErrOverloaded and are excluded",
		"conservation = Queries == Completed+Canceled+DeadlineExceeded+Shed+Failed at quiescence (the chaos soak asserts the same invariant under faults)")
	return t
}
