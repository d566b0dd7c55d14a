package chaos

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// TestInsertWhileQuerying is the invisible-cache contract under concurrent
// writes. N writers insert uniquely tagged batches into w through the CMS's
// own client while M reader sessions query one view over w and one over the
// untouched table u, over both transports and at engine dop {1, 4}. After
// each of its batches the first writer waits until every reader has begun a
// query since, as in TestIdentityHitConcurrent, so reads of w fall between
// acknowledged batches and meet the element a batch made stale. Every
// answer over w must be a union of whole batches, holding every batch
// acknowledged before the query began and none issued after it ended — the
// extension of w at some moment inside the query. Every answer over u must
// equal caql.Eval over u, from the element cached at warm-up: no write to w
// may evict it.
func TestInsertWhileQuerying(t *testing.T) {
	writers, readers, batches := 3, 3, 25
	if *chaosLong {
		writers, readers, batches = 6, 6, 50
	}
	for _, transport := range []string{"inproc", "pool"} {
		for _, dop := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/dop%d", transport, dop), func(t *testing.T) {
				insertWhileQuerying(t, transport, dop, writers, readers, batches)
			})
		}
	}
}

// batchRows is the size of every batch; row k of batch tag is (tag, k).
const batchRows = 4

func insertWhileQuerying(t *testing.T, transport string, dop, writers, readers, batches int) {
	e := remotedb.NewEngine()
	e.SetParallelism(dop)
	e.SetParallelMinRows(1)
	e.SetMorselSize(16)
	w := tableW()
	u := relation.New("u", relation.NewSchema(
		relation.Attr{Name: "k", Kind: relation.KindInt}, relation.Attr{Name: "v", Kind: relation.KindString}))
	for k := 0; k < 200; k++ {
		u.MustAppend(relation.Tuple{relation.Int(int64(k)), relation.Str(fmt.Sprintf("u%03d", k))})
	}
	e.LoadTable(w)
	e.LoadTable(u)

	var client remotedb.Client = remotedb.NewInProcClient(e, remotedb.DefaultCosts())
	if transport == "pool" {
		srv := remotedb.NewServer(e)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		p, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 2, Costs: remotedb.DefaultCosts()})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		client = p
	}
	cms := cache.New(client, cache.Options{Features: cache.AllFeatures(), Costs: remotedb.DefaultCosts()})

	const viewW, viewU = `vw(T, K) :- w(T, K)`, `vu(K, V) :- u(K, V)`
	wantU, err := caql.Eval(caql.MustParse(viewU), caql.MapSource{"u": u})
	if err != nil {
		t.Fatal(err)
	}
	warm := cms.BeginSession(nil)
	for _, v := range []string{viewW, viewU} {
		st, err := warm.QueryText(v)
		if err != nil {
			t.Fatal(err)
		}
		st.Drain("out")
	}
	warm.End()
	elemU := cms.Manager().ExactMatch(caql.MustParse(viewU))
	if elemU == nil {
		t.Fatal("warm-up did not cache the view over u")
	}

	var (
		log     batchLog
		writing sync.WaitGroup
		readWG  sync.WaitGroup
		done    atomic.Bool
		start   = make(chan struct{}) // closed once every goroutine exists, so they overlap
		// seen[i] is the number of batches acknowledged before reader i
		// began the last query over w it finished; a reader that stops sets
		// it to MaxInt64.
		seen = make([]atomic.Int64, readers)
	)
	for i := 0; i < writers; i++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			<-start
			if i > 0 {
				log.write(t, client, batches)
				return
			}
			for b := 0; b < batches; b++ {
				if !log.write(t, client, 1) {
					return
				}
				acked := log.ackedCount()
				for r := range seen {
					for seen[r].Load() < acked {
						runtime.Gosched()
					}
				}
			}
		}()
	}
	for i := 0; i < readers; i++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			defer seen[i].Store(math.MaxInt64)
			s := cms.BeginSession(nil)
			defer s.End()
			<-start
			for n := 0; n < 5 || !done.Load(); n++ {
				acked := log.ackedCount()
				if log.query(t, s, viewW) == nil {
					return
				}
				seen[i].Store(acked)
				got, err := drainView(s, viewU)
				if err != nil {
					t.Errorf("query over u: %v", err)
					return
				}
				if !got.EqualAsBag(wantU) {
					t.Errorf("answer over u: %d rows, want caql.Eval's %d", got.Len(), wantU.Len())
					return
				}
			}
		}()
	}
	close(start)
	writing.Wait()
	done.Store(true)
	readWG.Wait()

	if cur := cms.Manager().ExactMatch(caql.MustParse(viewU)); cur != elemU {
		t.Fatal("the view over u was evicted or refetched, though nothing wrote to u")
	}
	st := cms.Stats()
	if st.EpochInvalidations == 0 {
		t.Fatal("no invalidation of the view over w, though every batch moved its version")
	}
	t.Logf("%d batches acked; %d queries, %d hits, %d invalidations", len(log.acked), st.Queries, st.CacheHits, st.EpochInvalidations)
}

// TestIdentityHitConcurrent: a view that is the identity of its element is
// answered with the element's own rows, so those rows must stay whole while
// a write invalidates the element and a later query refetches it. Four
// sessions drain one such view over w, two eagerly and two lazily, while a
// writer inserts batches into w; after each batch it waits until every
// session has queried again, so the element is invalidated. Every answer
// must be a state w was in during the query, and each session's first
// answer, kept to the end, must still hold the values it was handed.
func TestIdentityHitConcurrent(t *testing.T) {
	e := remotedb.NewEngine()
	e.LoadTable(tableW())
	client := remotedb.NewInProcClient(e, remotedb.DefaultCosts())
	cms := cache.New(client, cache.Options{Features: cache.AllFeatures(), Costs: remotedb.DefaultCosts()})
	const view = `vw(T, K) :- w(T, K)`
	lazy := advice.MustParse(`view vw(T^, K^) :- w(T, K).`)

	const readers = 4
	var (
		log     batchLog
		readWG  sync.WaitGroup
		done    atomic.Bool
		start   = make(chan struct{})
		writing = make(chan struct{})
		// seen[i] is the number of batches acknowledged before reader i
		// began the last query it finished; a reader that stops sets it to
		// MaxInt64. Between batches the writer waits until every reader has
		// queried since the last one, so a query meets each batch's version.
		seen [readers]atomic.Int64
	)
	go func() {
		defer close(writing)
		<-start
		for b := int64(1); b <= 40; b++ {
			if !log.write(t, client, 1) {
				return
			}
			for i := range seen {
				for seen[i].Load() < b {
					runtime.Gosched()
				}
			}
		}
	}()
	for i := 0; i < readers; i++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			defer seen[i].Store(math.MaxInt64)
			var adv *advice.Advice
			if i%2 == 1 {
				adv = lazy
			}
			s := cms.BeginSession(adv)
			defer s.End()
			<-start
			var kept, copies []relation.Tuple
			for n := 0; n < 5 || !done.Load(); n++ {
				acked := log.ackedCount()
				got := log.query(t, s, view)
				if got == nil {
					return
				}
				seen[i].Store(acked)
				runtime.Gosched() // let the waiting writer and the other readers in
				if kept == nil {
					kept = got.Tuples()
					for _, tu := range kept {
						copies = append(copies, slices.Clone(tu))
					}
				}
			}
			for j, tu := range kept {
				if !tu.Equal(copies[j]) {
					t.Errorf("kept tuple %d is %v, was %v", j, tu, copies[j])
					return
				}
			}
		}()
	}
	close(start)
	<-writing
	done.Store(true)
	readWG.Wait()

	st := cms.Stats()
	if st.ExactHits == 0 || st.LazyAnswers == 0 || st.EpochInvalidations == 0 {
		t.Fatalf("want eager and lazy identity hits and invalidations of the element: %+v", st)
	}
	t.Logf("%d queries, %d exact hits, %d lazy, %d invalidations", st.Queries, st.ExactHits, st.LazyAnswers, st.EpochInvalidations)
}

// tableW is w holding batch 0.
func tableW() *relation.Relation {
	w := relation.New("w", relation.NewSchema(
		relation.Attr{Name: "tag", Kind: relation.KindInt}, relation.Attr{Name: "k", Kind: relation.KindInt}))
	for k := 0; k < batchRows; k++ {
		w.MustAppend(relation.Tuple{relation.Int(0), relation.Int(int64(k))})
	}
	return w
}

// batchLog hands out batch tags to writers and records the ones
// acknowledged, which tells a reader what states of w its query may see.
type batchLog struct {
	issued atomic.Int64 // tags handed out; a tag above it was issued later
	mu     sync.Mutex
	acked  []int64 // tags acknowledged, in acknowledgment order
}

// write inserts n batches into w through client, one statement each, and
// reports whether every insert succeeded.
func (l *batchLog) write(t *testing.T, client remotedb.Client, n int) bool {
	for b := 0; b < n; b++ {
		tag := l.issued.Add(1)
		var sb strings.Builder
		sb.WriteString("INSERT INTO w VALUES ")
		for k := 0; k < batchRows; k++ {
			if k > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d)", tag, k)
		}
		if _, err := client.Exec(sb.String()); err != nil {
			t.Errorf("insert batch %d: %v", tag, err)
			return false
		}
		l.mu.Lock()
		l.acked = append(l.acked, tag)
		l.mu.Unlock()
		runtime.Gosched() // let readers in between batches, even on the in-process transport
	}
	return true
}

// ackedCount is the number of batches acknowledged so far.
func (l *batchLog) ackedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.acked))
}

// query drains view, a view of all of w, on s. It returns the answer, or
// reports on t and returns nil when the query fails or its answer is no
// state w was in during the query.
func (l *batchLog) query(t *testing.T, s bridge.Session, view string) *relation.Relation {
	l.mu.Lock()
	before := l.acked[:len(l.acked):len(l.acked)]
	l.mu.Unlock()
	got, err := drainView(s, view)
	if err != nil {
		t.Errorf("query over w: %v", err)
		return nil
	}
	if msg := checkWholeBatches(got, before, l.issued.Load()); msg != "" {
		t.Errorf("answer over w is no state w was in during the query: %s", msg)
		return nil
	}
	return got
}

func drainView(s bridge.Session, src string) (*relation.Relation, error) {
	st, err := s.QueryText(src)
	if err != nil {
		return nil, err
	}
	return st.DrainErr("out")
}

// checkWholeBatches returns "" when got is batch 0 plus whole batches only,
// holds every batch in mustHave, and no tag above issued; otherwise what is
// wrong.
func checkWholeBatches(got *relation.Relation, mustHave []int64, issued int64) string {
	rows := map[int64]int{}  // rows per tag
	keys := map[int64]uint{} // bit k set: row k of the tag is present
	for _, tu := range got.Tuples() {
		tag := tu[0].AsInt()
		rows[tag]++
		keys[tag] |= 1 << tu[1].AsInt()
	}
	for tag, n := range rows {
		if n != batchRows || keys[tag] != 1<<batchRows-1 {
			return fmt.Sprintf("batch %d has %d rows (key mask %b), want its %d", tag, n, keys[tag], batchRows)
		}
		if tag > issued {
			return fmt.Sprintf("batch %d was issued after the query ended (last issued %d)", tag, issued)
		}
	}
	if rows[0] == 0 {
		return "the preloaded batch is missing"
	}
	for _, tag := range mustHave {
		if rows[tag] == 0 {
			return fmt.Sprintf("batch %d, acknowledged before the query began, is missing", tag)
		}
	}
	return ""
}
