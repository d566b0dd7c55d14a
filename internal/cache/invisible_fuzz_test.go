package cache

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// FuzzCacheInvisible is the paper's cache contract as a fuzz target
// (INVARIANTS rows 6 and 9). An input decodes into a cache budget, the
// features switched off, an engine DOP, the transport (an InProcClient or a
// PoolClient over TCP), the tables, whether the session has advice, and a
// script of up to 32 steps: a point, range or join query; a repeat or
// narrowing of an earlier query; a text of several clauses; a view of the
// advice; an INSERT, alone or while a query drains; an outage toggle; a
// cancel mid-stream; or a LoadTable that replaces a table's schema.
//
// Every answer must equal caql.Eval's over the tables as they were at some
// moment of the query (a program's, caql.RunProgram over caql.Eval), as a
// bag and with Eval's schema; a head variable the body reads from an int
// column and a float one may take either kind. While the remote is down a
// query may instead fail as unavailable, and a canceled one as canceled.
// Each query moves exactly the answer-kind counters its verdict names.
// With a budget the script runs twice: unbounded, then under ¼, ½ or 1× the
// first run's peak fill. testdata/fuzz/FuzzCacheInvisible holds the failures
// it found, minimised, each file named for its cause.
func FuzzCacheInvisible(f *testing.F) {
	for _, s := range invisibleSeeds {
		f.Add(s.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runInvisible(t, decodeInvisible(data))
	})
}

// TestCacheInvisibleSeedsReachEveryKind: FuzzCacheInvisible's seeds reach
// every verdict the planner makes (remote, exact, subsumed, generalized,
// covered, partial), each seen moving its counters, and the counters of the
// answers a verdict qualifies (prefetched, degraded, lazy), evictions and
// stale-view invalidations. One seed pins the typing of a join variable read
// from an int and a float column: a hit types it by the element's column,
// which caql.Eval does not (TestHitSchemaParity's jr).
func TestCacheInvisibleSeedsReachEveryKind(t *testing.T) {
	verdicts := map[string]int{}
	var total bridge.SourceStats
	mixed := 0
	for _, s := range invisibleSeeds {
		for _, st := range runInvisible(t, decodeInvisible(s.encode())) {
			for k, n := range st.verdicts {
				verdicts[k] += n
			}
			total.PrefetchHits += st.stats.PrefetchHits
			total.DegradedHits += st.stats.DegradedHits
			total.LazyAnswers += st.stats.LazyAnswers
			total.Evictions += st.stats.Evictions
			total.EpochInvalidations += st.stats.EpochInvalidations
			mixed += st.mixedKind
		}
	}
	for _, k := range kindNames {
		if verdicts[k] == 0 {
			t.Errorf("no seed reaches a %s answer (verdicts %v)", k, verdicts)
		}
	}
	for name, n := range map[string]int64{
		"PrefetchHits": total.PrefetchHits, "DegradedHits": total.DegradedHits, "LazyAnswers": total.LazyAnswers,
		"Evictions": total.Evictions, "EpochInvalidations": total.EpochInvalidations,
	} {
		if n == 0 {
			t.Errorf("no seed moves %s", name)
		}
	}
	if mixed == 0 {
		t.Error("no seed answers a variable read from an int and a float column with the hit's kind")
	}
}

// invisibleCase is a decoded FuzzCacheInvisible input.
type invisibleCase struct {
	budget int    // 0: unbounded; 1–3: ¼, ½ or 1× the unbounded run's peak fill
	pool   bool   // a PoolClient over TCP, not an InProcClient
	setB   bool   // tables b2 and fl, not b1, b2 and b3
	advice bool   // the session has example1Advice
	dop    int    // the engine's parallelism
	seed   int64  // the tables' data
	off    uint16 // features switched off, one bit each, in the order features lists them
	steps  [][4]byte
	// memo holds every shape memo hit to a fresh plan (FuzzShapeMemo); it
	// is not read from the input.
	memo bool
}

// invisibleHeader is the number of input bytes before the steps: flags,
// the features switched off (two bytes) and the data seed.
const invisibleHeader = 4

// decodeInvisible reads an input: its first byte holds the budget (bits
// 0–1), the transport (2), the table set (3), the advice (4) and the DOP
// (bits 5–6: 1, 2, 4, 1); then two bytes of features switched off and a data
// seed; then steps of four bytes each (an op and three operands), at most
// 32, a trailing part of a step dropped.
func decodeInvisible(data []byte) invisibleCase {
	var h [invisibleHeader]byte
	copy(h[:], data)
	c := invisibleCase{
		budget: int(h[0] & 3),
		pool:   h[0]&4 != 0,
		setB:   h[0]&8 != 0,
		advice: h[0]&16 != 0,
		dop:    []int{1, 2, 4, 1}[h[0]>>5&3],
		off:    uint16(h[1]) | uint16(h[2])<<8,
		seed:   int64(h[3]),
	}
	for rest := data[min(len(data), invisibleHeader):]; len(rest) >= 4 && len(c.steps) < 32; rest = rest[4:] {
		c.steps = append(c.steps, [4]byte(rest[:4]))
	}
	return c
}

// features is AllFeatures less the ones c switches off.
func (c invisibleCase) features() Features {
	f := AllFeatures()
	for i, p := range []*bool{&f.Subsumption, &f.ExactMatch, &f.ResultCaching, &f.Generalization, &f.Prefetch,
		&f.Lazy, &f.Indexing, &f.Parallel, &f.AdviceReplacement} {
		if c.off>>i&1 != 0 {
			*p = false
		}
	}
	return f
}

// The step ops: the first byte of a step, modulo opCount.
const (
	opPoint = iota
	opRange
	opJoin
	opRepeat
	opNarrow
	opProgram
	opInsert
	opOutage
	opCancel
	opReplace
	opView
	opInsertDuringDrain
	opCount
)

// invisibleSeed is a committed input, written as its fields.
type invisibleSeed struct {
	name  string
	flags byte
	off   uint16
	seed  byte
	steps [][4]byte
}

func (s invisibleSeed) encode() []byte {
	out := []byte{s.flags, byte(s.off), byte(s.off >> 8), s.seed}
	for _, st := range s.steps {
		out = append(out, st[:]...)
	}
	return out
}

// Seed flags.
const (
	seedPool   = 4
	seedSetB   = 8
	seedAdvice = 16
	seedDOP4   = 2 << 5
)

// invisibleSeeds reach every answer kind between them
// (TestCacheInvisibleSeedsReachEveryKind).
var invisibleSeeds = []invisibleSeed{
	{name: "remote, exact, subsumed, covered, partial", steps: [][4]byte{
		{opPoint, 1, 0, 0xf2},    // q0 = b2(2, Y): remote
		{opRepeat, 0, 0, 0},      // exact
		{opRepeat, 0, 1, 0},      // exact, renamed
		{opPoint, 1, 0x80, 0xf0}, // q3 = all of b2
		{opJoin, 0x21, 1, 0xf0},  // b2 ⋈ b3: partial
		{opPoint, 2, 1, 0xf0},    // q5 = b3(X, "a", Z)
		{opNarrow, 5, 0, 0},      // a constant for a head variable: subsumed
		{opNarrow, 5, 1, 0x05},   // a comparison: subsumed
		{opRange, 1, 0, 0x12},    // a range of b2: subsumed
		{opPoint, 2, 0x80, 0xf0}, // all of b3
		{opJoin, 0x21, 2, 0xf0},  // b2 ⋈ b3: covered
		{opJoin, 0x11, 0, 0xf1},  // b2 ⋈ b2: covered
	}},
	{name: "advice: generalized, prefetched, then replaced", flags: seedAdvice, steps: [][4]byte{
		{opView, 0, 0, 0},       // d1("a")
		{opView, 1, 3, 0},       // d2(X, 3): generalized
		{opView, 3, 3, 0},       // p(X) from the prefetched d3
		{opView, 1, 5, 0},       // d2(X, 5): from the generalized element
		{opInsert, 1, 2, 7},     // b2 moves
		{opView, 1, 3, 0},       // refetched
		{opReplace, 2, 0x05, 3}, // b3 renamed, a column flipped to float
		{opView, 1, 3, 0},       // over the new b3
		{opRepeat, 2, 0, 0},
	}},
	{name: "degraded: hits while down, the residual fails, recovery", flags: seedPool, steps: [][4]byte{
		{opPoint, 1, 0x80, 0xf0}, // q0 = all of b2
		{opPoint, 2, 0x80, 0xf0}, // all of b3
		{opOutage, 0, 0, 0},
		{opPoint, 0, 0, 0xf0},   // b1: unavailable, and the breaker opens
		{opPoint, 1, 0, 0xf3},   // b2(3, Y): degraded subsumed
		{opRepeat, 0, 0, 0},     // degraded exact
		{opInsert, 1, 0, 1},     // refused
		{opJoin, 0x01, 1, 0xf0}, // b1 ⋈ b2: its residual fails
		{opOutage, 0, 0, 0},
		{opInsert, 1, 1, 2},
		{opRepeat, 0, 0, 0},     // refetched
		{opJoin, 0x21, 2, 0xf0}, // covered
	}},
	{name: "lazy and parallel, canceled and written while draining", flags: seedPool | seedDOP4, off: 1 << 2, steps: [][4]byte{
		{opPoint, 2, 0x80, 0xf0},
		{opCancel, 0, 1, 0},
		{opInsertDuringDrain, 0, 2, 4},
		{opRange, 2, 1, 0x31},
		{opJoin, 0x21, 2, 0xf0},
		{opProgram, 0, 0, 0},
	}},
	{name: "programs, a budget and evictions", flags: 2 | seedDOP4, steps: [][4]byte{
		{opPoint, 1, 0x80, 0xf0},
		{opProgram, 0, 0, 0}, // the closure of b2
		{opPoint, 2, 1, 0xf1},
		{opProgram, 0, 1, 1}, // b2 ∪ b3's (X, Z)
		{opJoin, 0x21, 1, 0xf0},
		{opPoint, 0, 0x80, 0xf2},
		{opRepeat, 0, 0, 0},
		{opReplace, 1, 0x11, 5},
		{opRepeat, 0, 0, 0},
		{opProgram, 0, 0, 0},
	}},
	{
		// The join variable reads b2's int column and fl's float one: a hit
		// types it by the element's column (TestHitSchemaParity's jr).
		name: "an int and a float join variable", flags: seedSetB, steps: [][4]byte{
			{opJoin, 0x10, 2, 0xf0}, // q(L0, L1, R1) :- b2(L0, L1) & fl(L1, R1)
			{opJoin, 0x01, 1, 0xf0}, // q(L0, L1, R0) :- fl(L0, L1) & b2(R0, L0): L0 an int on the hit
			{opRepeat, 1, 0, 0},
			{opInsert, 1, 1, 3},
			{opRepeat, 1, 0, 0},
		},
	},
}

// invisibleRun is what one run of a script saw.
type invisibleRun struct {
	verdicts map[string]int
	stats    bridge.SourceStats
	peak     int64 // the cache's largest footprint after a step
	// mixedKind counts the answers whose schema took the latitude
	// schemaAgrees grants a variable read from an int and a float column.
	mixedKind int
	// memo is what the run's shape memo met, when the case watches it.
	memo memoReach
}

// runInvisible runs c's script, unbounded and then, with a budget, under it,
// failing t on the first answer that breaks the contract.
func runInvisible(t *testing.T, c invisibleCase) []invisibleRun {
	t.Helper()
	runs := []invisibleRun{runInvisibleWorld(t, c, 0)}
	if c.budget > 0 && runs[0].peak > 0 {
		runs = append(runs, runInvisibleWorld(t, c, runs[0].peak*int64(c.budget)/4))
	}
	return runs
}

// invisibleWorld is one run of a script: the engine, the reference copy of
// its tables, the client stack, the CMS and its session.
type invisibleWorld struct {
	t      *testing.T
	c      invisibleCase
	e      *remotedb.Engine
	tables caql.MapSource // each table as the engine holds it
	names  []string
	fc     *remotedb.FaultClient
	rc     *remotedb.ResilientClient
	clock  atomic.Int64 // the breaker's clock, in nanoseconds
	cms    *CMS
	tracer *obs.Tracer
	s      *Session
	down   bool
	hist   []*caql.Query // the queries asked, in order
	rng    *rand.Rand
	res    invisibleRun
	memo   *memoWatch // nil unless the case watches the shape memo
}

// breakerCooldown is how long the breaker stays open after the remote
// fails; an outage's end moves the clock past it.
const breakerCooldown = time.Minute

// runInvisibleWorld runs c's script once, on a world of its own under a
// cache of cacheBytes (<= 0: unbounded).
func runInvisibleWorld(t *testing.T, c invisibleCase, cacheBytes int64) invisibleRun {
	t.Helper()
	w := &invisibleWorld{t: t, c: c, e: remotedb.NewEngine(), tables: caql.MapSource{}, rng: rand.New(rand.NewSource(c.seed))}
	w.e.SetParallelism(c.dop)
	w.e.SetParallelMinRows(1)
	w.e.SetMorselSize(4)
	for _, r := range w.genTables() {
		w.e.LoadTable(r.Clone())
		w.tables[r.Name] = r
		w.names = append(w.names, r.Name)
	}
	costs := remotedb.DefaultCosts()
	var inner remotedb.Client = remotedb.NewInProcClient(w.e, costs)
	if c.pool {
		srv := remotedb.NewServer(w.e)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 2, Costs: costs})
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		defer srv.Close()
		defer p.Close()
		inner = p
	}
	w.fc = remotedb.NewFaultClient(inner, remotedb.FaultConfig{Seed: 1})
	w.rc = remotedb.NewResilientClient(w.fc, remotedb.Resilience{
		MaxRetries:      -1,
		BreakerFailures: 1,
		BreakerCooldown: breakerCooldown,
		Sleep:           func(time.Duration) {},
		Now:             func() time.Time { return time.Unix(0, w.clock.Load()) },
	})
	w.tracer = obs.NewTracer(1, 256)
	w.cms = New(w.rc, Options{Features: c.features(), Costs: costs, CacheBytes: cacheBytes, ThinkTimeMS: 1000, Tracer: w.tracer})
	var adv *advice.Advice
	if c.advice && !c.setB {
		adv = advice.MustParse(example1Advice)
	}
	w.s = w.cms.BeginSession(adv).(*Session)
	defer w.s.End()
	if c.memo {
		w.memo = &memoWatch{w: w, last: map[string]memoMark{}}
		w.cms.recalled = w.memo.recalled
	}
	w.res.verdicts = map[string]int{}
	for i, st := range c.steps {
		w.step(i, st)
		w.res.peak = max(w.res.peak, w.cms.mgr.SizeBytes())
	}
	w.res.stats = w.cms.Stats()
	return w.res
}

// genTables makes the case's tables: b1(x string, y int), b2(x int, y int)
// and b3(x int, y string, z int), or b2 and fl(f float, g int), whose f
// holds b2's ints as floats.
func (w *invisibleWorld) genTables() []*relation.Relation {
	kinds := map[string][]relation.Kind{
		"b1": {relation.KindString, relation.KindInt},
		"b2": {relation.KindInt, relation.KindInt},
		"b3": {relation.KindInt, relation.KindString, relation.KindInt},
		"fl": {relation.KindFloat, relation.KindInt},
	}
	names := []string{"b1", "b2", "b3"}
	if w.c.setB {
		names = []string{"b2", "fl"}
	}
	var out []*relation.Relation
	for _, n := range names {
		attrs := make([]relation.Attr, len(kinds[n]))
		for i, k := range kinds[n] {
			attrs[i] = relation.Attr{Name: string(rune('x' + i)), Kind: k}
		}
		r := relation.New(n, relation.NewSchema(attrs...))
		for i, rows := 0, 6+w.rng.Intn(8); i < rows; i++ {
			r.MustAppend(w.row(r.Schema(), w.rng.Int()))
		}
		out = append(out, r)
	}
	return out
}

// row is a row of the schema's kinds drawn from seed: ints 0–7, strings
// "a"–"d", floats 0–7 in halves.
func (w *invisibleWorld) row(sch *relation.Schema, seed int) relation.Tuple {
	r := rand.New(rand.NewSource(int64(seed)))
	tu := make(relation.Tuple, sch.Arity())
	for i := range tu {
		tu[i] = domainValue(sch.Attr(i).Kind, r.Intn(16))
	}
	return tu
}

// domainValue is the n-th value of a kind's domain.
func domainValue(k relation.Kind, n int) relation.Value {
	switch k {
	case relation.KindString:
		return relation.Str(string(rune('a' + n%4)))
	case relation.KindFloat:
		return relation.Float(float64(n%16) / 2)
	default:
		return relation.Int(int64(n % 8))
	}
}

func numeric(k relation.Kind) bool { return k == relation.KindInt || k == relation.KindFloat }

// step runs one step of the script.
func (w *invisibleWorld) step(i int, st [4]byte) {
	a, b, c := st[1], st[2], st[3]
	w.t.Logf("step %d: op %d (%d, %d, %d)", i, st[0]%opCount, a, b, c)
	var q *caql.Query
	switch st[0] % opCount {
	case opPoint:
		q = w.point(a, b, c)
	case opRange:
		q = w.rangeQuery(a, b, c)
	case opJoin:
		q = w.join(a, b, c)
	case opRepeat:
		if q = w.earlier(a); q != nil && b&1 != 0 {
			q = rename(q)
		}
	case opNarrow:
		q = w.narrow(a, b, c)
	case opView:
		if q = w.view(a, b); q == nil {
			q = w.point(a, b, c)
		}
	case opProgram:
		w.program(a, b, c)
	case opInsert:
		if err := w.insert(a, b, c); err != nil {
			w.t.Fatal(err)
		}
	case opOutage:
		w.down = !w.down
		w.fc.SetDown(w.down)
		if !w.down {
			// The server is back. Past the breaker's cooldown the first read
			// succeeds: it is the half-open probe, or it waits for the
			// verdict of a prefetch's probe, which closes the breaker.
			w.clock.Add(int64(2 * breakerCooldown))
			if _, err := w.rc.Exec("SELECT * FROM " + w.names[0]); err != nil {
				w.t.Fatalf("the first read after the outage: %v", err)
			}
		}
	case opCancel:
		if q := w.earlier(a); q != nil {
			w.ask(q, int(b%3), nil)
		}
	case opReplace:
		w.replace(a, b, c)
	case opInsertDuringDrain:
		if q := w.earlier(a); q != nil && !w.down {
			w.ask(q, -1, func() error { return w.insert(b, c, a) })
		}
	}
	if q != nil {
		w.hist = append(w.hist, q)
		w.ask(q, -1, nil)
	}
}

// earlier is one of the queries asked before, or nil.
func (w *invisibleWorld) earlier(a byte) *caql.Query {
	if len(w.hist) == 0 {
		return nil
	}
	return w.hist[int(a)%len(w.hist)]
}

// fresh is an atom over table name with a variable of prefix for each
// column.
func (w *invisibleWorld) fresh(name, prefix string) logic.Atom {
	args := make([]logic.Term, w.tables[name].Schema().Arity())
	for i := range args {
		args[i] = logic.V(fmt.Sprintf("%s%d", prefix, i))
	}
	return logic.A(name, args...)
}

// genQuery is a query named q over rels and cmps whose head holds the body's
// variables that mask keeps (all of them when it keeps none), or nil when
// it would be no valid query.
func genQuery(rels, cmps []logic.Atom, mask byte) *caql.Query {
	var vars, kept []logic.Term
	for _, a := range rels {
		for _, t := range a.Args {
			if t.IsVar() && !slices.ContainsFunc(vars, t.Equal) {
				vars = append(vars, t)
			}
		}
	}
	for i, v := range vars {
		if i < 8 && mask>>i&1 != 0 {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		kept = vars
	}
	if len(kept) == 0 {
		return nil
	}
	q := caql.NewQuery(logic.A("q", kept...), append(slices.Clip(rels), cmps...))
	if q.Validate() != nil {
		return nil
	}
	return q
}

// point binds column b of table a to the constant c&15 names.
func (w *invisibleWorld) point(a, b, c byte) *caql.Query {
	name := w.names[int(a)%len(w.names)]
	atom := w.fresh(name, "X")
	sch := w.tables[name].Schema()
	if b < 128 { // a byte from 128 up binds no column
		pos := int(b) % sch.Arity()
		atom.Args[pos] = logic.C(domainValue(sch.Attr(pos).Kind, int(c&15)))
	}
	return genQuery([]logic.Atom{atom}, nil, c>>4)
}

// rangeQuery selects lo <= V < lo+width on numeric column b of table a.
func (w *invisibleWorld) rangeQuery(a, b, c byte) *caql.Query {
	name := w.names[int(a)%len(w.names)]
	sch := w.tables[name].Schema()
	var cols []int
	for i, at := range sch.Attrs() {
		if numeric(at.Kind) {
			cols = append(cols, i)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	col := cols[int(b)%len(cols)]
	atom := w.fresh(name, "X")
	k := sch.Attr(col).Kind
	lo, width := int(c%8), 1+int(c>>3)%4
	v := atom.Args[col]
	cmps := []logic.Atom{
		logic.A(relation.OpGe.String(), v, logic.C(numberOf(k, lo))),
		logic.A(relation.OpLt.String(), v, logic.C(numberOf(k, lo+width))),
	}
	return genQuery([]logic.Atom{atom}, cmps, c>>5|1)
}

// numberOf is n as a value of numeric kind k.
func numberOf(k relation.Kind, n int) relation.Value {
	if k == relation.KindFloat {
		return relation.Float(float64(n))
	}
	return relation.Int(int64(n))
}

// join joins table a&15 to table a>>4 on the b-th pair of columns whose
// kinds agree (two numeric kinds agree), with a constant for another column
// of the right table when c is odd.
func (w *invisibleWorld) join(a, b, c byte) *caql.Query {
	ln, rn := w.names[int(a&15)%len(w.names)], w.names[int(a>>4)%len(w.names)]
	ls, rs := w.tables[ln].Schema(), w.tables[rn].Schema()
	var pairs [][2]int
	for i, la := range ls.Attrs() {
		for j, ra := range rs.Attrs() {
			if la.Kind == ra.Kind || numeric(la.Kind) && numeric(ra.Kind) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	p := pairs[int(b)%len(pairs)]
	left, right := w.fresh(ln, "L"), w.fresh(rn, "R")
	right.Args[p[1]] = left.Args[p[0]]
	if c&1 != 0 {
		if pos := int(c>>1) % rs.Arity(); pos != p[1] {
			right.Args[pos] = logic.C(domainValue(rs.Attr(pos).Kind, int(c>>1)))
		}
	}
	return genQuery([]logic.Atom{left, right}, nil, c>>4)
}

// rename is q under other variable names and another head name: the same
// query to the cache.
func rename(q *caql.Query) *caql.Query {
	sub := logic.Subst{}
	for v := range q.VarSet() {
		sub[v] = logic.V("N" + v)
	}
	r := q.ApplySubst(sub)
	r.Head.Pred = "n"
	return r
}

// narrow binds head variable b of an earlier query to a constant (c even)
// or compares it with one (c odd).
func (w *invisibleWorld) narrow(a, b, c byte) *caql.Query {
	q := w.earlier(a)
	if q == nil {
		return nil
	}
	var vars []string
	for _, t := range q.Head.Args {
		if t.IsVar() && !slices.Contains(vars, t.Var) {
			vars = append(vars, t.Var)
		}
	}
	if len(vars) == 0 {
		return nil
	}
	v := vars[int(b)%len(vars)]
	kinds := varKinds(q, w.tables)[v]
	if len(kinds) == 0 {
		return nil
	}
	val := domainValue(kinds[0], int(c>>1))
	if c&1 == 0 {
		return q.Instantiate(map[string]relation.Value{v: val})
	}
	n := caql.NewQuery(q.Head, append(slices.Clip(q.Body()), logic.A(relation.OpGe.String(), logic.V(v), logic.C(val))))
	if n.Validate() != nil {
		return nil
	}
	return n
}

// varKinds is the kinds of the columns each variable of q's body reads.
func varKinds(q *caql.Query, tables caql.MapSource) map[string][]relation.Kind {
	out := map[string][]relation.Kind{}
	for _, a := range q.Rels {
		r := tables[a.Pred]
		if r == nil || r.Schema().Arity() != len(a.Args) {
			continue
		}
		for i, t := range a.Args {
			if k := r.Schema().Attr(i).Kind; t.IsVar() && !slices.Contains(out[t.Var], k) {
				out[t.Var] = append(out[t.Var], k)
			}
		}
	}
	return out
}

// view asks a view of example1Advice: d1 with a string, d2 or d3 with an
// int, or p, which the prefetched d3 answers. It is nil when the session
// has no advice.
func (w *invisibleWorld) view(a, b byte) *caql.Query {
	if w.s.adv == nil {
		return nil
	}
	n := int(b % 8)
	src := []string{
		fmt.Sprintf(`d1(Y) :- b1(%q, Y)`, string(rune('a'+n%4))),
		fmt.Sprintf(`d2(X, %d) :- b2(X, Z) & b3(Z, "a", %d)`, n, n),
		fmt.Sprintf(`d3(X, %d) :- b3(X, "b", Z) & b1(Z, %d)`, n, n),
		fmt.Sprintf(`p(X) :- b3(X, "b", Z) & b1(Z, %d)`, n),
	}[int(a)%4]
	q, err := caql.Parse(src)
	if err != nil {
		return nil // a replaced table no longer fits the view
	}
	return q
}

// ask asks q, checks the answer against the reference and the counters
// against the verdict. With pull >= 0 it pulls that many rows, cancels the
// query's context, and accepts a canceled stream. With write, it pulls a
// row, then runs write beside the rest of the drain; the answer may hold
// the tables as they were before the write or after it.
func (w *invisibleWorld) ask(q *caql.Query, pull int, write func() error) {
	w.t.Helper()
	before := maps.Clone(w.tables)
	want, werr := caql.Eval(q, before)
	counts := readAnswerCounts(w.cms)
	w.tracer.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.memo.before()
	st, err := w.s.QueryCtx(ctx, q)
	w.memo.after(q)
	if err != nil {
		w.failed(q, err, werr, pull >= 0)
		w.checkCounts(q, counts)
		return
	}
	defer st.Close()
	var got []relation.Tuple
	if write != nil || pull > 0 {
		got = st.Take(max(pull, 1))
		for i, tu := range got {
			got[i] = slices.Clone(tu)
		}
	}
	if pull >= 0 {
		cancel()
	}
	done := make(chan error, 1)
	if write != nil {
		go func() { done <- write() }()
	}
	rest, derr := st.DrainErr("got")
	if write != nil {
		if err := <-done; err != nil {
			w.t.Fatal(err)
		}
	}
	w.checkCounts(q, counts)
	if derr != nil {
		w.failed(q, derr, werr, pull >= 0)
		return
	}
	if werr != nil {
		w.t.Fatalf("%s: answered, but caql.Eval fails: %v", q, werr)
	}
	ans := relation.FromTuples("got", st.Schema(), append(got, rest.Tuples()...))
	agrees, mixed := schemaAgrees(q, st.Schema(), want.Schema(), before)
	if !agrees {
		w.t.Fatalf("%s: schema %v, caql.Eval's %v", q, st.Schema().Attrs(), want.Schema().Attrs())
	}
	if mixed {
		w.res.mixedKind++
	}
	if ans.EqualAsBag(want) {
		return
	}
	if write != nil {
		if after, err := caql.Eval(q, w.tables); err == nil && ans.EqualAsBag(after) {
			return
		}
	}
	w.t.Fatalf("%s: %d rows %v, caql.Eval's %d %v", q, ans.Len(), ans.Tuples(), want.Len(), want.Tuples())
}

// failed checks a query's error: an answer caql.Eval fails too, or one the
// remote's outage or a cancel explains.
func (w *invisibleWorld) failed(q fmt.Stringer, err, werr error, canceled bool) {
	w.t.Helper()
	switch {
	case werr != nil:
	case w.down && errors.Is(err, remotedb.ErrRemoteUnavailable):
	case canceled && errors.Is(err, bridge.ErrCanceled):
	default:
		w.t.Fatalf("%s: %v (remote down %v, canceled %v)", q, err, w.down, canceled)
	}
}

// checkCounts holds the answer-kind counters' move since counts to the
// verdicts of the queries the step dispatched, and adds those to verdicts.
func (w *invisibleWorld) checkCounts(q fmt.Stringer, counts answerCounts) {
	w.t.Helper()
	var want answerCounts
	for _, sp := range w.tracer.Spans() {
		var kind string
		failed := false
		for _, at := range sp.Attrs {
			switch at.Key {
			case "answer":
				kind = at.Val
			case "error":
				failed = true
			}
		}
		if sp.Name != "cms.query" || kind == "" || failed {
			continue
		}
		w.t.Logf("\t%s: %s", q, kind)
		w.res.verdicts[kind]++
		switch kind {
		case "exact":
			want.exact++
			want.hits++
		case "subsumed", "covered":
			want.hits++
		case "generalized":
			want.generalized++
		case "partial":
			want.partial++
		}
	}
	now := readAnswerCounts(w.cms)
	got := answerCounts{
		hits: now.hits - counts.hits, exact: now.exact - counts.exact, prefetch: now.prefetch - counts.prefetch,
		degraded: now.degraded - counts.degraded, generalized: now.generalized - counts.generalized,
		partial: now.partial - counts.partial,
	}
	if got.hits != want.hits || got.exact != want.exact || got.generalized != want.generalized || got.partial != want.partial ||
		got.prefetch > got.hits || got.degraded > got.hits || got.degraded > 0 && !w.down {
		w.t.Fatalf("%s: counters moved by %+v; the verdicts want %+v (remote down %v)", q, got, want, w.down)
	}
}

// schemaAgrees reports whether an answer's schema is the reference's: the
// same names, and the same kinds but for one latitude (INVARIANTS row 6): a
// head variable the body reads from an int column and a float one may take
// either kind. mixed reports that the schemas took it.
func schemaAgrees(q *caql.Query, got, want *relation.Schema, tables caql.MapSource) (agrees, mixed bool) {
	if got.Arity() != want.Arity() {
		return false, false
	}
	kinds := varKinds(q, tables)
	for i := range got.Attrs() {
		g, w := got.Attr(i), want.Attr(i)
		if g.Name != w.Name {
			return false, false
		}
		if g.Kind == w.Kind {
			continue
		}
		t := q.Head.Args[i]
		if !t.IsVar() || !numeric(g.Kind) || !numeric(w.Kind) ||
			!slices.Contains(kinds[t.Var], relation.KindInt) || !slices.Contains(kinds[t.Var], relation.KindFloat) {
			return false, false
		}
		mixed = true
	}
	return true, mixed
}

// program asks a text of several clauses over an earlier query's first two
// head variables: their closure, or with b odd their union with another
// earlier query's. The reference is caql.RunProgram over caql.Eval.
func (w *invisibleWorld) program(a, b, c byte) {
	w.t.Helper()
	base := func(pick byte, name string) string {
		q := w.earlier(pick)
		if q == nil {
			return ""
		}
		var vars []logic.Term
		for _, t := range q.Head.Args {
			if t.IsVar() && !slices.ContainsFunc(vars, t.Equal) {
				vars = append(vars, t)
			}
		}
		for _, at := range q.Body() {
			for _, t := range at.Args {
				if t.IsConst() && t.Const.Kind() == relation.KindFloat {
					return "" // printed, an integral float reads back as an int
				}
			}
		}
		if len(vars) < 2 {
			return ""
		}
		return caql.NewQuery(logic.A(name, vars[0], vars[1]), q.Body()).String() + "\n"
	}
	e := base(a, "e")
	if e == "" {
		return
	}
	text := e + "r(X, Y) :- e(X, Y).\nr(X, Y) :- r(X, Z) & e(Z, Y)."
	if f := base(c, "f"); b&1 != 0 && f != "" {
		text = e + f + "u(X, Y) :- e(X, Y).\nu(X, Y) :- f(X, Y)."
	}
	prog, err := caql.ParseProgram(text)
	if err != nil {
		w.t.Fatalf("%q: %v", text, err)
	}
	src := maps.Clone(w.tables)
	want, _, werr := caql.RunProgram(context.Background(), prog, func(q *caql.Query) (*relation.Relation, error) {
		return caql.Eval(q, src)
	})
	counts := readAnswerCounts(w.cms)
	w.tracer.Reset()
	st, err := w.s.QueryText(text)
	w.checkCounts(stringer(text), counts)
	if err != nil {
		w.failed(stringer(text), err, werr, false)
		return
	}
	defer st.Close()
	got := st.Drain("got")
	if werr != nil {
		w.t.Fatalf("%q: answered, but caql.RunProgram fails: %v", text, werr)
	}
	if !got.EqualAsBag(want) || !slices.EqualFunc(got.Schema().Attrs(), want.Schema().Attrs(),
		func(g, w relation.Attr) bool { return g.Name == w.Name }) {
		w.t.Fatalf("%q: %v %v, caql.RunProgram's %v %v", text, got.Schema().Attrs(), got.Tuples(), want.Schema().Attrs(), want.Tuples())
	}
}

type stringer string

func (s stringer) String() string { return string(s) }

// insert inserts 1–3 rows drawn from c into table a through the CMS's own
// client, so its transport observes the new version. While the remote is
// down the insert must fail as unavailable and change nothing. It reports
// what broke that.
func (w *invisibleWorld) insert(a, b, c byte) error {
	name := w.names[int(a)%len(w.names)]
	sch := w.tables[name].Schema()
	rows := make([]relation.Tuple, 1+int(b%3))
	vals := make([]string, len(rows))
	for i := range rows {
		rows[i] = w.row(sch, int(c)*4+i)
		lits := make([]string, len(rows[i]))
		for j, v := range rows[i] {
			lits[j] = sqlLit(v)
		}
		vals[i] = "(" + strings.Join(lits, ", ") + ")"
	}
	_, err := w.rc.Exec("INSERT INTO " + name + " VALUES " + strings.Join(vals, ", "))
	switch {
	case w.down && !errors.Is(err, remotedb.ErrRemoteUnavailable):
		return fmt.Errorf("an insert into %s while the remote is down: %v", name, err)
	case w.down:
		return nil
	case err != nil:
		return fmt.Errorf("insert into %s: %w", name, err)
	}
	r := w.tables[name]
	w.tables[name] = relation.FromTuples(name, sch, append(slices.Clip(r.Tuples()), rows...))
	return nil
}

// sqlLit is v as a SQL literal: a float always with a point.
func sqlLit(v relation.Value) string {
	switch v.Kind() {
	case relation.KindString:
		return "'" + v.AsString() + "'"
	case relation.KindFloat:
		s := strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// replace loads a new table a: its columns renamed, column b>>4 flipped
// between int and float when numeric, and new rows drawn from c. The CMS's
// client then reads the table, as any client of the server may, so its
// transport observes the new version. The server is down for nobody's DDL
// while it is down: the step does nothing then.
func (w *invisibleWorld) replace(a, b, c byte) {
	if w.down {
		return
	}
	name := w.names[int(a)%len(w.names)]
	attrs := slices.Clone(w.tables[name].Schema().Attrs())
	flip := int(b>>4) % len(attrs)
	for i := range attrs {
		attrs[i].Name = fmt.Sprintf("%s%d", attrs[i].Name[:1], b%10)
		if i == flip && numeric(attrs[i].Kind) {
			attrs[i].Kind = map[relation.Kind]relation.Kind{relation.KindInt: relation.KindFloat, relation.KindFloat: relation.KindInt}[attrs[i].Kind]
		}
	}
	r := relation.New(name, relation.NewSchema(attrs...))
	for i := 0; i < 4+int(c%8); i++ {
		r.MustAppend(w.row(r.Schema(), int(c)*16+i))
	}
	w.e.LoadTable(r.Clone())
	w.tables[name] = r
	if _, err := w.rc.Exec("SELECT * FROM " + name); err != nil {
		w.t.Fatalf("reading the new %s: %v", name, err)
	}
}
