package cache

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// hitPathAdvice lets every query of TestHitPathAllocs through the tracker (an
// alternation repeats in any order) and gives di a sequence follower, dn,
// whose consumer no di query binds: the follower is looked up and skipped.
const hitPathAdvice = `
	view dg(X^, Y^, Z^) :- b3(X, Y, Z).
	view di(X?, Z^) :- b3(X, "a", Z).
	view dn(W?, Z^) :- b3(W, "b", Z).
	view dx(X?, Y^) :- b2(X, Y).
	path [dg(X^, Y^, Z^), dx(X?, Y^), (di(X?, Z^), dn(W?, Z^))<0,*>].
`

// TestHitPathAllocs holds the CMS's hit path to the allocations it makes for
// the answer it returns, on a warm cache: an indexed subsumed eager hit, an
// exact hit, and a lazy hit, each answered without a remote request and as
// caql.Eval answers it, with the stream left open and closed by the consumer
// as the IE closes it. The budgets are what the path measures today; a
// change that allocates more per hit has to say why here.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, src := fixtureEngine(t, 21, 60)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()

	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)") // the element the di and lazy hits derive from
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")       // the element the exact hit matches
	for _, tc := range []struct {
		name, query string
		closed      bool
		budget      float64
	}{
		// The derivation is built in the session's block, the query is
		// prepared into the session's, the index lookup's rows go to the
		// session's scratch, and the output schema is one the element served
		// before. What is left is the one block of answer values and the
		// stream over it, unless the consumer closes it and the session hands
		// both out again (1 closed before blocks were recycled).
		{"indexed subsumed eager", `di(3, Z) :- b3(3, "a", Z)`, false, 2},
		{"indexed subsumed eager, closed", `di(3, Z) :- b3(3, "a", Z)`, true, 0},
		// The derivation is the identity, so the stream hands out the
		// element's own rows: the stream is all, and nothing once closed.
		{"exact eager", "dx(X, Y) :- b2(X, Y)", false, 1},
		{"exact eager, closed", "dx(X, Y) :- b2(X, Y)", true, 0},
		// The stream with its iterators: the element's, the cost charger and
		// its callback, the selection, the projection with its copy of the
		// derivation, the guard and its check. The projection's row blocks
		// are made as the stream is drained. A lazy stream is not recycled.
		{"subsumed lazy", `dg(X, "a", Z) :- b3(X, "a", Z)`, false, 8},
		{"subsumed lazy, closed", `dg(X, "a", Z) :- b3(X, "a", Z)`, true, 8},
	} {
		q := caql.MustParse(tc.query)
		ask := func() {
			st, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if tc.closed {
				st.Close()
			}
		}
		for i := 0; i < 3; i++ { // build the index, grow the session's scratch
			ask()
		}
		want, err := caql.Eval(q, src)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainQ(t, s, tc.query); !got.EqualAsBag(want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got.Tuples(), want.Tuples())
		}
		before := cms.Stats()
		allocs := testing.AllocsPerRun(50, ask)
		after := cms.Stats()
		if after.RemoteRequests != before.RemoteRequests || after.CacheHits-before.CacheHits != 51 {
			t.Fatalf("%s: not a cache hit every time: %d remote requests, %d hits in 51 queries",
				tc.name, after.RemoteRequests-before.RemoteRequests, after.CacheHits-before.CacheHits)
		}
		t.Logf("%s: %v allocations per hit", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %v allocations per hit, budget %v", tc.name, allocs, tc.budget)
		}
	}
	if st := cms.Stats(); st.ExactHits == 0 || st.LazyAnswers == 0 || st.IndexBuilds == 0 {
		t.Errorf("the cases did not take the paths they name: %+v", st)
	}
}

// TestQueryTextHitAllocs holds the text door to the query it parses: a warm
// one-clause QueryTextCtx hit allocates what the QueryCtx hit of the same
// query does plus caql.Parse's block, for each kind of hit TestHitPathAllocs
// counts, so telling a query from a program costs nothing. Every caql_cold
// and write_mix query takes this path.
func TestQueryTextHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, _ := fixtureEngine(t, 21, 60)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()
	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)")
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")
	ctx := context.Background()
	for _, text := range []string{`di(3, Z) :- b3(3, "a", Z)`, "dx(X, Y) :- b2(X, Y)", `dg(X, "a", Z) :- b3(X, "a", Z)`} {
		q := caql.MustParse(text)
		closed := func(st *bridge.Stream, err error) {
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
		}
		query := func() { closed(s.QueryCtx(ctx, q)) }
		door := func() { closed(s.QueryTextCtx(ctx, text)) }
		for i := 0; i < 3; i++ { // build the index, grow the session's scratch
			query()
			door()
		}
		before := cms.Stats()
		hit := testing.AllocsPerRun(50, query)
		viaText := testing.AllocsPerRun(50, door)
		parse := testing.AllocsPerRun(50, func() { caql.MustParse(text) })
		if after := cms.Stats(); after.RemoteRequests != before.RemoteRequests || after.CacheHits-before.CacheHits != 102 {
			t.Fatalf("%s: not a cache hit every time", text)
		}
		t.Logf("%s: %v allocations through QueryTextCtx, %v through QueryCtx, %v to parse", text, viaText, hit, parse)
		if viaText > hit+parse {
			t.Errorf("%s: %v allocations through QueryTextCtx, want at most %v + %v", text, viaText, hit, parse)
		}
	}
}

// followerAdvice gives dk a sequence follower, dm, whose consumer every dk
// query binds and which the cached b2 element answers: each dk hit
// instantiates dm and finds it resident.
const followerAdvice = `
	view dg(X^, Y^, Z^) :- b3(X, Y, Z).
	view dk(X?, Z^) :- b3(X, "a", Z).
	view dm(X?, Y^) :- b2(X, Y).
	view dx(X^, Y^) :- b2(X, Y).
	path [dg(X^, Y^, Z^), dx(X^, Y^), (dk(X?, Z^), dm(X?, Y^))<0,*>].
`

// TestFollowerProbeAllocs: a hit whose sequence follower has its consumers
// bound instantiates the follower into the session's follower block and
// probes the cache with it there. Once the session's scratch has grown, a
// follower found resident costs nothing, and neither does the closed hit
// that probed it: the probe enqueues no fetch and sends no request. Before
// the follower block, the probe made 6 allocations per hit (its bindings
// map, and the instantiated follower with its substitution), and the closed
// hit 7, its block of answer values being the seventh.
func TestFollowerProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, src := fixtureEngine(t, 21, 60)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	adv := advice.MustParse(followerAdvice)
	s := cms.BeginSession(adv).(*Session)
	defer s.End()
	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)")
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")

	const text = `dk(3, Z) :- b3(3, "a", Z)`
	q := caql.MustParse(text)
	ask := func() {
		st, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	for i := 0; i < 3; i++ { // build the index, grow the session's scratch
		ask()
	}
	want, err := caql.Eval(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainQ(t, s, text); !got.EqualAsBag(want) {
		t.Fatalf("got %v, want %v", got.Tuples(), want.Tuples())
	}
	if got, want := s.follower.q.Canonical(), caql.MustParse("dm(3, Y) :- b2(3, Y)").Canonical(); got != want {
		t.Fatalf("the follower probed is %s, want %s", got, want)
	}

	before := cms.Stats()
	probe := testing.AllocsPerRun(50, func() { s.prefetchFollowers(q, adv.ViewByName("dk")) })
	hit := testing.AllocsPerRun(50, ask)
	after := cms.Stats()
	if after.RemoteRequests != before.RemoteRequests || after.CacheHits-before.CacheHits != 51 ||
		after.Prefetches != before.Prefetches || after.PrefetchDrops != before.PrefetchDrops {
		t.Fatalf("the follower was not found resident, or the hits were not hits: %+v, was %+v", after, before)
	}
	t.Logf("follower probe: %v allocations; closed hit with its probe: %v", probe, hit)
	if probe > 0 {
		t.Errorf("a resident follower's probe makes %v allocations, budget 0", probe)
	}
	if hit > 0 {
		t.Errorf("a closed hit with a resident follower makes %v allocations, budget 0", hit)
	}
}

// TestPrefetchedFollowerKeepsItsQuery: prefetch probes each follower in the
// session's follower block, which the next probe overwrites, so what it
// enqueues is a clone. Five dk hits whose dm followers are not cached each
// prefetch one; every prefetched element's definition must still be the
// follower it was fetched for once later probes have reused the block, and
// must answer it as caql.Eval does.
func TestPrefetchedFollowerKeepsItsQuery(t *testing.T) {
	e, src := fixtureEngine(t, 21, 60)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(followerAdvice)).(*Session)
	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)")
	for k := 3; k < 8; k++ {
		drainQ(t, s, fmt.Sprintf(`dk(%d, Z) :- b3(%d, "a", Z)`, k, k))
	}
	s.waitPrefetches() // End would cancel the last
	s.End()
	var prefetched int
	for _, el := range cms.Manager().Elements() {
		if !el.prefetched {
			continue
		}
		prefetched++
		if got := el.Def.Canonical(); got != el.Canonical() {
			t.Fatalf("a prefetched element's definition is %s, but it was fetched for %s", got, el.Canonical())
		}
		want, err := caql.Eval(el.Def, src)
		if err != nil {
			t.Fatal(err)
		}
		if !el.Extension().EqualAsBag(want) {
			t.Fatalf("%s: the element holds %v, want %v", el.Def, el.Extension().Tuples(), want.Tuples())
		}
	}
	if prefetched != 5 {
		t.Fatalf("%d followers prefetched, want 5: %+v", prefetched, cms.Stats())
	}
}

// TestLazyHitDrainAllocs: a lazy hit's rows are carved from blocks that
// double from 8 rows to 1 024, so draining 5 000 of them costs a dozen
// allocations, not one per row, and every row handed out keeps its values
// while the stream goes on filling later blocks. The count is process-wide,
// and an allocation elsewhere in the process can only add to it, so the
// same lazy hit is drained three times, each checked row by row, and the
// fewest allocations are held to the budget.
func TestLazyHitDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 5000
	big := relation.New("big", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindInt}, relation.Attr{Name: "y", Kind: relation.KindString}))
	for i := 0; i < rows+rows/4; i++ {
		y := "a"
		if i%5 == 4 {
			y = "b"
		}
		big.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str(y)})
	}
	e := remotedb.NewEngine()
	e.LoadTable(big)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(`view dg(X^, Y^) :- big(X, Y).`)).(*Session)
	defer s.End()
	drainQ(t, s, "dg(X, Y) :- big(X, Y)")

	q := `dg(X, "a") :- big(X, "a")`
	fewest := uint64(math.MaxUint64)
	kept := make([]relation.Tuple, 0, rows)
	copies := make([]relation.Value, 0, 2*rows)
	for drain := 1; drain <= 3; drain++ {
		st, err := s.QueryText(q)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Lazy() || cms.Stats().CacheHits != int64(drain) {
			t.Fatalf("%s is not a lazy hit: %+v", q, cms.Stats())
		}
		kept, copies = kept[:0], copies[:0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for tu, ok := st.Next(); ok; tu, ok = st.Next() {
			kept = append(kept, tu)
			copies = append(copies, tu...)
		}
		runtime.ReadMemStats(&after)
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		if len(kept) != rows {
			t.Fatalf("drain %d: drained %d rows, want %d", drain, len(kept), rows)
		}
		for i, tu := range kept {
			if !tu.Equal(relation.Tuple(copies[2*i : 2*i+2])) {
				t.Fatalf("drain %d: row %d is %v, was %v when it was handed out", drain, i, tu, copies[2*i:2*i+2])
			}
		}
		allocs := after.Mallocs - before.Mallocs
		t.Logf("drain %d: %d rows in %d allocations", drain, rows, allocs)
		fewest = min(fewest, allocs)
	}
	if fewest > 16 {
		t.Errorf("draining %d rows made at least %d allocations, budget 16", rows, fewest)
	}
}

// TestHitAnswersSurviveScratchReuse: a session prepares every query into one
// block, builds its derivation in another and reads index rows into one
// scratch slice, reusing all three from query to query, and hands a closed
// eager stream out again, so no answer may point into any of them. One
// answer of each kind of hit (indexed eager, exact eager, which shares the
// element's rows, lazy, lazy identity, decomposed and generalized) is half
// read, with a copy of each tuple taken as it is handed out, and left open
// while 200 further queries run on the session, each drained, checked and
// closed, so that their streams are recycled. Then every kept tuple must
// still equal its copy, and the rest of each open stream must complete the
// answer caql.Eval gives. A closed stream's tuples part two ways. Those of a
// closed identity or lazy stream must still be what they were when read. A
// closed materialized stream's block of values is the next materialized
// hit's, exactly when that hit's values fit in it: its first tuple starts
// where the closed one's did, and a hit that does not fit gets a new block.
func TestHitAnswersSurviveScratchReuse(t *testing.T) {
	e, src := fixtureEngine(t, 21, 60)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()

	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)")
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")
	for i := 0; i < 3; i++ { // the third equality selection earns di its index
		drainQ(t, s, `di(3, Z) :- b3(3, "a", Z)`)
	}
	drainQ(t, s, `g("a", Y) :- b1("a", Y)`) // the next sibling instance is generalized
	if cms.Stats().IndexBuilds != 1 {
		t.Fatalf("no index built: %+v", cms.Stats())
	}

	type open struct {
		query  string
		st     *bridge.Stream
		kept   []relation.Tuple
		copies []relation.Tuple
	}
	var answers []*open
	for _, tc := range []struct {
		kind, query string
		took        func(before, after bridge.SourceStats) bool
	}{
		{"indexed eager", `di(3, Z) :- b3(3, "a", Z)`, func(b, a bridge.SourceStats) bool { return a.CacheHits == b.CacheHits+1 }},
		{"exact eager shared", "dx(X, Y) :- b2(X, Y)", func(b, a bridge.SourceStats) bool { return a.ExactHits == b.ExactHits+1 }},
		{"lazy", `dg(X, "a", Z) :- b3(X, "a", Z)`, func(b, a bridge.SourceStats) bool { return a.LazyAnswers == b.LazyAnswers+1 }},
		{"lazy identity", "dg(X, Y, Z) :- b3(X, Y, Z)", func(b, a bridge.SourceStats) bool {
			return a.LazyAnswers == b.LazyAnswers+1 && a.ExactHits == b.ExactHits+1
		}},
		{"decomposed", `j(X, Y, Z) :- b2(X, Y) & b3(Y, "a", Z)`, func(b, a bridge.SourceStats) bool {
			return a.CacheHits == b.CacheHits+1 && a.ExactHits == b.ExactHits && a.RemoteRequests == b.RemoteRequests
		}},
		{"generalized", `g("b", Y) :- b1("b", Y)`, func(b, a bridge.SourceStats) bool { return a.Generalizations == b.Generalizations+1 }},
	} {
		before := cms.Stats()
		st, err := s.QueryText(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.took(before, cms.Stats()) {
			t.Fatalf("%s: %s did not take its path: %+v", tc.kind, tc.query, cms.Stats())
		}
		want, err := caql.Eval(caql.MustParse(tc.query), src)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() < 2 {
			t.Fatalf("%s: %d answers, too few to leave any unread", tc.kind, want.Len())
		}
		a := &open{query: tc.query, st: st}
		for len(a.kept) < want.Len()/2 {
			tu, ok := st.Next()
			if !ok {
				t.Fatalf("%s: stream ended after %d of %d tuples", tc.kind, len(a.kept), want.Len())
			}
			a.kept, a.copies = append(a.kept, tu), append(a.copies, slices.Clone(tu))
		}
		answers = append(answers, a)
	}

	// Hits that reuse the prepared block (ranges included), the derivation
	// block, the index rows and the closed streams and blocks; the second is
	// lazy, and the last an exact hit with no head constant. The others are
	// materialized, and block and capacity follow the one the last of them
	// was served in: a block Materialize makes has the capacity of its
	// answer, and goes to the next materialized hit once its stream is closed.
	remote := cms.Stats().RemoteRequests
	var closed, closedCopies [][]relation.Tuple
	var block *relation.Value
	var blockCap, reused, fresh int
	for i := 0; i < 200; i++ {
		k, y := i%8, string(rune('a'+i%4))
		var q string
		switch i % 5 {
		case 0:
			q = fmt.Sprintf(`di(%d, Z) :- b3(%d, "a", Z)`, k, k)
		case 1:
			q = fmt.Sprintf(`dg(X, "%s", Z) :- b3(X, "%s", Z)`, y, y)
		case 2:
			q = fmt.Sprintf(`r(X, Z) :- b3(X, "%s", Z) & Z > %d & X <= %d`, y, k, 7-k)
		case 3:
			q = fmt.Sprintf(`g("%s", Y) :- b1("%s", Y)`, y, y)
		default:
			q = "dx(X, Y) :- b2(X, Y)"
		}
		want, err := caql.Eval(caql.MustParse(q), src)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.QueryText(q)
		if err != nil {
			t.Fatal(err)
		}
		got := st.Drain("out")
		if !got.EqualAsBag(want) {
			t.Fatalf("query %d, %s: got %v, want %v", i, q, got.Tuples(), want.Tuples())
		}
		if i%5 == 1 || i%5 == 4 {
			copies := make([]relation.Tuple, got.Len())
			for j, tu := range got.Tuples() {
				copies[j] = slices.Clone(tu)
			}
			closed, closedCopies = append(closed, got.Tuples()), append(closedCopies, copies)
		} else if size := got.Len() * got.Schema().Arity(); size > 0 {
			first := &got.Tuple(0)[0]
			switch {
			case size <= blockCap && first != block:
				t.Fatalf("query %d, %s: %d values fit the %d-value block closed before, but were served in another", i, q, size, blockCap)
			case size > blockCap && first == block:
				t.Fatalf("query %d, %s: %d values served in a closed block of %d", i, q, size, blockCap)
			case first == block:
				reused++
			default:
				block, blockCap = first, size
				fresh++
			}
		}
		st.Close()
	}
	if reused == 0 || fresh == 0 {
		t.Fatalf("materialized hits: %d served in a closed block, %d in a new one; want both", reused, fresh)
	}
	t.Logf("materialized hits: %d served in a closed block, %d in a new one", reused, fresh)

	for i, rows := range closed {
		for j, tu := range rows {
			if !tu.Equal(closedCopies[i][j]) {
				t.Fatalf("further identity or lazy answer %d: tuple %d read before Close is %v, was %v", i, j, tu, closedCopies[i][j])
			}
		}
	}
	for _, a := range answers {
		for i, tu := range a.kept {
			if !tu.Equal(a.copies[i]) {
				t.Fatalf("%s: kept tuple %d is %v, was %v", a.query, i, tu, a.copies[i])
			}
		}
		got := relation.FromTuples("out", a.st.Schema(), append(a.kept, a.st.Drain("rest").Tuples()...))
		if err := a.st.Err(); err != nil {
			t.Fatal(err)
		}
		want, err := caql.Eval(caql.MustParse(a.query), src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) {
			t.Fatalf("%s: kept and drained %v, want %v", a.query, got.Tuples(), want.Tuples())
		}
	}
	if n := cms.Stats().RemoteRequests - remote; n != 0 {
		t.Fatalf("%d of the further queries went to the remote; all should be hits", n)
	}
}

// TestIdentityAnswersSurviveEvictionAndReload: an identity hit hands out its
// element's own rows, so a kept tuple must outlive the element. An exact
// eager and a lazy identity answer are half read, with a copy of each tuple
// taken as it is handed out; then, under a budget half the size of what the
// test caches, later misses evict both elements, and both base tables are
// replaced through LoadTable and read again. Every kept tuple must still
// equal its copy, and kept plus drained must be the answer caql.Eval gives
// over the tables the two queries were asked of.
func TestIdentityAnswersSurviveEvictionAndReload(t *testing.T) {
	e, src := fixtureEngine(t, 21, 60)
	adv := advice.MustParse(`view lz(X^, Y^) :- b2(X, Y).`)
	const eager, lazy = "ex(X, Y) :- b1(X, Y)", "lz(X, Y) :- b2(X, Y)"
	fillers := []string{"p1(X, Y) :- b3(X, Y, Z)", "p2(Y, Z) :- b3(X, Y, Z)"}
	fill := func(cms *CMS) {
		s := cms.BeginSession(adv).(*Session)
		defer s.End()
		for _, q := range append([]string{eager, lazy}, fillers...) {
			drainQ(t, s, q)
		}
	}
	budget := halfOfFill(t, e, fill)
	cms := newCMS(t, e, Options{Features: AllFeatures(), CacheBytes: budget})
	s := cms.BeginSession(adv).(*Session)
	defer s.End()

	type open struct {
		query        string
		st           *bridge.Stream
		kept, copies []relation.Tuple
	}
	var answers []*open
	var elements []*Element
	for _, q := range []string{eager, lazy} {
		drainQ(t, s, q)
		el := cms.Manager().ExactMatch(caql.MustParse(q))
		hits := cms.Stats().ExactHits
		st, err := s.QueryText(q)
		if err != nil {
			t.Fatal(err)
		}
		if el == nil || cms.Stats().ExactHits != hits+1 || st.Lazy() != (q == lazy) {
			t.Fatalf("%s: not an exact hit of the kind it names under a %d-byte budget: %+v", q, budget, cms.Stats())
		}
		want, err := caql.Eval(caql.MustParse(q), src)
		if err != nil {
			t.Fatal(err)
		}
		a := &open{query: q, st: st}
		for len(a.kept) < want.Len()/2 {
			tu, ok := st.Next()
			if !ok || &tu[0] != &el.Extension().Tuples()[len(a.kept)][0] {
				t.Fatalf("%s: tuple %d is not the element's own", q, len(a.kept))
			}
			a.kept, a.copies = append(a.kept, tu), append(a.copies, slices.Clone(tu))
		}
		answers, elements = append(answers, a), append(elements, el)
	}

	for _, q := range fillers {
		drainQ(t, s, q)
	}
	for i, el := range elements {
		if cms.Manager().ExactMatch(el.Def) != nil {
			t.Fatalf("%s: still cached after the fill; want it evicted (budget %d, %d resident)",
				answers[i].query, budget, cms.Manager().SizeBytes())
		}
	}
	if cms.Stats().Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget", budget)
	}
	next := caql.MapSource{"b3": src["b3"]}
	for _, name := range []string{"b1", "b2"} {
		old := src[name]
		r := relation.New(name, old.Schema())
		for _, tu := range old.Tuples()[:old.Len()/2] {
			r.MustAppend(relation.Tuple{tu[0], relation.Int(tu[1].AsInt() + 100)})
		}
		e.LoadTable(r)
		next[name] = r
	}
	for _, q := range []string{eager, lazy} {
		want, err := caql.Eval(caql.MustParse(q), next)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainQ(t, s, q); !got.EqualAsBag(want) {
			t.Fatalf("%s over the replaced table: got %v, want %v", q, got.Tuples(), want.Tuples())
		}
	}

	for _, a := range answers {
		for i, tu := range a.kept {
			if !tu.Equal(a.copies[i]) {
				t.Fatalf("%s: kept tuple %d is %v, was %v", a.query, i, tu, a.copies[i])
			}
		}
		got := relation.FromTuples("out", a.st.Schema(), append(a.kept, a.st.Drain("rest").Tuples()...))
		want, err := caql.Eval(caql.MustParse(a.query), src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) {
			t.Fatalf("%s: kept and drained %v, want %v", a.query, got.Tuples(), want.Tuples())
		}
	}
}

// TestHitSchemaParity: a hit's output schema comes from its derivation and
// the element, not from the catalog, and is the schema caql's OutputSchema
// gives the query — names, kinds and order — on every kind of hit: exact,
// subsumed, indexed eager and lazy, with repeated head variables, head
// constants, an int column joined with a float one, and more shapes from one
// element than it remembers. A shape asked twice in a row is served the
// schema it was served before.
func TestHitSchemaParity(t *testing.T) {
	e, src := fixtureEngine(t, 21, 60)
	fl := relation.New("fl", relation.NewSchema(
		relation.Attr{Name: "f", Kind: relation.KindFloat}, relation.Attr{Name: "g", Kind: relation.KindInt}))
	for i := 0; i < 8; i++ {
		fl.MustAppend(relation.Tuple{relation.Float(float64(i)), relation.Int(int64(10 * i))})
	}
	e.LoadTable(fl)
	src["fl"] = fl
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()

	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)")
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")
	drainQ(t, s, "j(X, Y, G) :- b2(X, Y) & fl(Y, G)")
	remote := cms.Stats().RemoteRequests

	corpus := []string{
		"dx(X, Y) :- b2(X, Y)", // exact
		"dx(A, B) :- b2(A, B)", // exact, other names
		`i(X, Z) :- b3(X, "a", Z)`,
		`di(3, Z) :- b3(3, "a", Z)`,      // indexed eager from its third ask on
		`dg(X, "a", Z) :- b3(X, "a", Z)`, // lazy
		"h(X, X_, X) :- b2(X, X_)",       // X, X_, X__
		"h(Y, X, Y, X) :- b2(X, Y)",      // Y, X, Y_, X_
		"dx(Y, X_) :- b2(Y, X_)",         // Y, X_ ...
		"dx(Y, X) :- b2(Y, X)",           // ... which does not fit Y, X
		`k(3, Z, "a") :- b3(3, "a", Z)`,  // c0, Z, c2
		`m(X) :- b3(X, "c", Z)`,          // X is an int ...
		`m(X) :- b3(Z, X, 3)`,            // ... and here a string
		"j(X, Y, G) :- b2(X, Y) & fl(Y, G)",
		"jy(Y, G) :- b2(X, Y) & fl(Y, G)",
	}
	// Six namings of one shape from dg: more than the element remembers.
	for _, v := range []string{"A", "B", "C", "D", "E", "F"} {
		corpus = append(corpus, fmt.Sprintf(`n(%s1, %s2) :- b3(%s1, "b", %s2)`, v, v, v, v))
	}
	for round := 0; round < 3; round++ {
		for _, text := range corpus {
			q := caql.MustParse(text)
			hits := cms.Stats().CacheHits
			st, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got := st.Drain("out")
			if cms.Stats().CacheHits != hits+1 {
				t.Fatalf("%s: not a hit", text)
			}
			want, err := q.OutputSchema(cms)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(st.Schema().Attrs(), want.Attrs()) {
				t.Fatalf("%s: served schema %v, OutputSchema %v", text, st.Schema().Attrs(), want.Attrs())
			}
			wantRows, err := caql.Eval(q, src)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualAsBag(wantRows) {
				t.Fatalf("%s: got %v, want %v", text, got.Tuples(), wantRows.Tuples())
			}
			again, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if again.Schema() != st.Schema() {
				t.Fatalf("%s: asked twice in a row, served two schemas", text)
			}
			again.Drain("out")
		}
	}
	if st := cms.Stats(); st.RemoteRequests != remote || st.ExactHits == 0 || st.LazyAnswers == 0 || st.IndexBuilds == 0 {
		t.Fatalf("the corpus did not take the paths it names: %+v", st)
	}

	// The one place the two rules part: a join variable typed by its first
	// occurrence, which is an int column in the element and a float one in
	// the query. The hit types it by the column its values are read from.
	q := caql.MustParse("jr(X, Y, G) :- fl(Y, G) & b2(X, Y)")
	st, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if k := st.Schema().Attr(1).Kind; k != relation.KindInt {
		t.Fatalf("Y served as %v, want int, the kind of the element column", k)
	}
	for _, tu := range st.Drain("out").Tuples() {
		if tu[1].Kind() != relation.KindInt {
			t.Fatalf("Y holds %v, of kind %v", tu[1], tu[1].Kind())
		}
	}
}

// TestNegativeZeroIndexedHit: −0.0 and 0 are Equal, so a subsumed hit that
// reads an element through an attribute index must return the rows holding
// −0.0 for the constant 0, as caql.Eval does.
func TestNegativeZeroIndexedHit(t *testing.T) {
	fz := relation.New("fz", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindFloat},
		relation.Attr{Name: "y", Kind: relation.KindInt}))
	fz.MustAppend(relation.Tuple{relation.Float(math.Copysign(0, -1)), relation.Int(1)})
	fz.MustAppend(relation.Tuple{relation.Float(0), relation.Int(2)})
	fz.MustAppend(relation.Tuple{relation.Float(1), relation.Int(3)})
	e := remotedb.NewEngine()
	e.LoadTable(fz)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(nil).(*Session)
	defer s.End()

	drainQ(t, s, "all(X, Y) :- fz(X, Y)")
	q := "zero(Y) :- fz(0, Y)"
	want, err := caql.Eval(caql.MustParse(q), caql.MapSource{"fz": fz})
	if err != nil {
		t.Fatal(err)
	}
	// The third equality selection on the column earns it an index.
	for i := 0; i < 3; i++ {
		if got := drainQ(t, s, q); !got.EqualAsBag(want) {
			t.Fatalf("query %d: got %v, want %v", i+1, got.Tuples(), want.Tuples())
		}
	}
	if st := cms.Stats(); st.IndexBuilds != 1 || st.RemoteRequests != 1 {
		t.Fatalf("want one index build and every query after the first a hit: %+v", st)
	}
}

// TestIdentityHitSharesRows: a hit whose derivation is the identity hands
// out the element's own tuples, in order, eager or lazy; every other hit
// hands out values of its own, none of them inside the element.
func TestIdentityHitSharesRows(t *testing.T) {
	e, src := fixtureEngine(t, 21, 60)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()

	const dg, dx = "dg(X, Y, Z) :- b3(X, Y, Z)", "dx(X, Y) :- b2(X, Y)"
	drainQ(t, s, dg)
	drainQ(t, s, dx)
	for i := 0; i < 3; i++ { // the third equality selection earns di its index
		drainQ(t, s, `di(3, Z) :- b3(3, "a", Z)`)
	}
	for _, tc := range []struct {
		kind, query, element string
		lazy, shared         bool
	}{
		{"exact eager", dx, dx, false, true},
		{"exact, other names", "dx(A, B) :- b2(A, B)", dx, false, true},
		{"lazy identity", dg, dg, true, true},
		{"head constant", "c(X, Y, 7) :- b2(X, Y)", dx, false, false},
		{"repeated head variable", "h(X, Y, X) :- b2(X, Y)", dx, false, false},
		{"permutation", "p(Y, X) :- b2(X, Y)", dx, false, false},
		{"subset", "s(X) :- b2(X, Y)", dx, false, false},
		{"narrowed", "n(X, Y) :- b2(X, Y) & X < 3", dx, false, false},
		{"indexed eager", `di(3, Z) :- b3(3, "a", Z)`, dg, false, false},
		{"subsumed lazy", `dg(X, "a", Z) :- b3(X, "a", Z)`, dg, true, false},
	} {
		el := cms.Manager().ExactMatch(caql.MustParse(tc.element))
		if el == nil {
			t.Fatalf("%s: %s is not cached", tc.kind, tc.element)
		}
		ext := el.Extension().Tuples()
		inside := map[*relation.Value]bool{}
		for _, row := range ext {
			for j := range row {
				inside[&row[j]] = true
			}
		}
		before := cms.Stats()
		st, err := s.QueryText(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if after := cms.Stats(); after.CacheHits != before.CacheHits+1 || st.Lazy() != tc.lazy {
			t.Fatalf("%s: %s is not a hit of the kind it names (lazy %v): %+v", tc.kind, tc.query, st.Lazy(), after)
		}
		var got []relation.Tuple
		for tu, ok := st.Next(); ok; tu, ok = st.Next() {
			got = append(got, tu)
		}
		want, err := caql.Eval(caql.MustParse(tc.query), src)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.FromTuples("out", st.Schema(), got).EqualAsBag(want) || len(got) == 0 {
			t.Fatalf("%s: got %v, want %v", tc.kind, got, want.Tuples())
		}
		for i, tu := range got {
			if tc.shared && (len(got) != len(ext) || &tu[0] != &ext[i][0]) {
				t.Fatalf("%s: tuple %d is not the element's tuple %d", tc.kind, i, i)
			}
			for j := range tu {
				if !tc.shared && inside[&tu[j]] {
					t.Fatalf("%s: value %d of tuple %d is the element's, not a copy", tc.kind, j, i)
				}
			}
		}
	}
}

// TestStreamPoolHandsOutOnce: a session recycles an eager hit's stream when
// its consumer closes it, and hands it out again only after that. With k
// streams open at once over 50 queries, no two open streams are one object,
// each answers as caql.Eval does, and the session needs no more than k+1
// streams. A closed materialized hit's block of values comes back cleared.
// A stream closed twice in a row goes back to the pool once, so the next two
// hits get two streams. Close on a lazy or an unpooled stream
// leaves it as it was, readable to its end, and puts nothing in the pool.
func TestStreamPoolHandsOutOnce(t *testing.T) {
	e, src := fixtureEngine(t, 21, 60)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()
	drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)")
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")

	eager := []string{"dx(X, Y) :- b2(X, Y)", `di(3, Z) :- b3(3, "a", Z)`, `di(5, Z) :- b3(5, "a", Z)`}
	ask := func(q string, lazy bool) *bridge.Stream {
		t.Helper()
		st, err := s.QueryText(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Lazy() != lazy {
			t.Fatalf("%s: answer lazy = %v, want %v", q, st.Lazy(), lazy)
		}
		return st
	}
	// check drains st and compares kept plus drained with q's answer.
	check := func(st *bridge.Stream, q string, kept []relation.Tuple) {
		t.Helper()
		want, err := caql.Eval(caql.MustParse(q), src)
		if err != nil {
			t.Fatal(err)
		}
		got := relation.FromTuples("out", st.Schema(), append(kept, st.Drain("rest").Tuples()...))
		if !got.EqualAsBag(want) {
			t.Fatalf("%s: got %v, want %v", q, got.Tuples(), want.Tuples())
		}
	}

	for _, k := range []int{1, 2, 3, 5} {
		type open struct {
			q  string
			st *bridge.Stream
		}
		var opened []open
		seen := map[*bridge.Stream]bool{}
		for i := 0; i < 50; i++ {
			q := eager[i%len(eager)]
			st := ask(q, false)
			for _, o := range opened {
				if o.st == st {
					t.Fatalf("k=%d, query %d: the stream handed out is still open for %s", k, i, o.q)
				}
			}
			seen[st] = true
			opened = append(opened, open{q, st})
			if len(opened) > k {
				check(opened[0].st, opened[0].q, nil)
				opened[0].st.Close()
				opened = opened[1:]
			}
		}
		for _, o := range opened {
			check(o.st, o.q, nil)
			o.st.Close()
		}
		if len(seen) > k+1 {
			t.Errorf("k=%d: %d streams for 50 queries with %d open at once; closed streams are not reused", k, len(seen), k)
		}
	}

	blk := ask(eager[1], false)
	check(blk, eager[1], nil)
	blk.Close()
	if vals := s.streams.Values(); cap(vals) == 0 {
		t.Fatal("a closed materialized hit gave no block back")
	} else {
		for i, v := range vals[:cap(vals)] {
			if !v.IsNull() {
				t.Fatalf("value %d of a closed block is %v; the pool keeps no value of an answer", i, v)
			}
		}
	}

	twice := ask(eager[0], false)
	twice.Close()
	twice.Close()
	a, b := ask(eager[0], false), ask(eager[1], false)
	if a == b {
		t.Fatal("a stream closed twice was handed out twice")
	}
	check(a, eager[0], nil)
	check(b, eager[1], nil)
	a.Close()
	b.Close()

	lq := `dg(X, "a", Z) :- b3(X, "a", Z)`
	lazy := ask(lq, true)
	kept := lazy.Take(1)
	lazy.Close()
	c, d := ask(eager[0], false), ask(eager[1], false)
	if c == lazy || d == lazy {
		t.Fatal("a closed lazy stream was handed out again")
	}
	check(lazy, lq, kept)
	c.Close()
	d.Close()

	rel := drainQ(t, s, eager[1])
	unpooled := bridge.NewEagerStream(rel)
	kept = unpooled.Take(1)
	unpooled.Close()
	unpooled.Close()
	check(unpooled, eager[1], kept)
}

// TestClosingAnEndedStreamIsFree: the IE closes every segment stream it has
// read to its end, lazy remote answers included. Over the in-process client
// and a PoolClient, closing a drained lazy remote answer, once or twice,
// cancels no remote stream, sends no frame and advances the session clock
// by nothing, where closing one half read cancels its stream.
func TestClosingAnEndedStreamIsFree(t *testing.T) {
	overBothTransports(t, func(t *testing.T, e *remotedb.Engine, client remotedb.Client) {
		cms := New(client, Options{Features: Features{Lazy: true}, Costs: remotedb.DefaultCosts()})
		s := cms.BeginSession(nil).(*Session)
		defer s.End()
		st, err := s.QueryText(viewOverS)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Lazy() {
			t.Fatal("the answer is not a lazy remote stream")
		}
		rows, err := st.DrainErr("out")
		if err != nil || rows.Len() != 10 {
			t.Fatalf("drained %d rows (err %v), want 10", rows.Len(), err)
		}
		before, clock := cms.Stats(), s.simNow
		st.Close()
		st.Close()
		after := cms.Stats()
		if after.StreamsCanceled != before.StreamsCanceled || after.FramesSent != before.FramesSent || s.simNow != clock {
			t.Fatalf("closing a drained stream canceled %d streams, sent %d frames and charged %.4f ms",
				after.StreamsCanceled-before.StreamsCanceled, after.FramesSent-before.FramesSent, s.simNow-clock)
		}
		// Over the pool, the counters do see a Close that abandons a stream.
		if _, ok := client.(*remotedb.PoolClient); ok {
			st, err = s.QueryText(viewOverS)
			if err != nil {
				t.Fatal(err)
			}
			st.Take(1)
			st.Close()
			if cms.Stats().StreamsCanceled != after.StreamsCanceled+1 {
				t.Fatalf("closing a half-read stream canceled %d streams, want 1", cms.Stats().StreamsCanceled-after.StreamsCanceled)
			}
		}
	})
}
