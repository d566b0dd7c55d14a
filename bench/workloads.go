package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/caql"
	"repro/internal/core"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
	gen "repro/internal/workload"
)

// sizes fixes how much work one pass of each workload is. Work is a fixed
// number of ops, never a duration and never calibrated at run time: fullSizes
// makes a pass take about two seconds on the two-core sandbox the benchmark
// was written on, and the determinism tests use tinySizes.
type sizes struct {
	people                 int // ie_ask: one ask per person and question form
	suppliers, caqlOps     int // caql_cold
	cacheBytes             int64
	factRows, dimRows      int // bulk_scan
	bulkCycles             int
	writeSuppliers         int // write_mix
	writeCycles, batchRows int
	segmentBytes           int64
}

var fullSizes = sizes{
	people:    120,
	suppliers: 2000, caqlOps: 1500, cacheBytes: 1 << 20,
	factRows: 100_000, dimRows: 5000, bulkCycles: 10,
	writeSuppliers: 2000, writeCycles: 800, batchRows: 25,
	segmentBytes: 2 << 20,
}

var tinySizes = sizes{
	people:    12,
	suppliers: 60, caqlOps: 60, cacheBytes: 16 << 10,
	factRows: 3000, dimRows: 50, bulkCycles: 1,
	writeSuppliers: 60, writeCycles: 4, batchRows: 10,
	segmentBytes: 64 << 10,
}

var workloadNames = []string{"ie_ask", "caql_cold", "bulk_scan", "write_mix"}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "ie_ask":
		return newIEAsk(seed, sz), nil
	case "caql_cold":
		return newCAQLCold(seed, sz), nil
	case "bulk_scan":
		return newBulkScan(seed, sz), nil
	case "write_mix":
		return newWriteMix(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// hashInputs hashes the generated inputs: table contents and op texts.
func hashInputs(tables []*relation.Relation, texts []string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, t := range tables {
		h.Write([]byte(t.Name))
		for _, tu := range t.Tuples() {
			v := tu.Hash64()
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	for _, s := range texts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// tupleSource is what bridge.Stream and remotedb.TupleStream share.
type tupleSource interface {
	Next() (relation.Tuple, bool)
	Err() error
}

// drain drains a result issued at start, fingerprinting it; firstNS is the
// time to the first tuple (or to the end of an empty result).
func drain(st tupleSource, start time.Time, sum bool) (fp fingerprint, firstNS int64, err error) {
	for {
		t, ok := st.Next()
		if fp.rows == 0 {
			firstNS = int64(time.Since(start))
		}
		if !ok {
			return fp, firstNS, st.Err()
		}
		fp.rows++
		if sum {
			fp.sum += t.Hash64()
		}
	}
}

func fingerprintRel(r *relation.Relation) fingerprint {
	fp := fingerprint{rows: r.Len()}
	for _, t := range r.Tuples() {
		fp.sum += t.Hash64()
	}
	return fp
}

// base is what every workload does the same way: it owns the stack, brackets
// a pass with nothing, and writes to no table.
type base struct{ st *stack }

func (b *base) stk() *stack              { return b.st }
func (b *base) close() error             { return b.st.close() }
func (b *base) beginPass() error         { return nil }
func (b *base) endPass()                 {}
func (b *base) durable() (string, int64) { return "", 0 }

// ---- ie_ask ---------------------------------------------------------------

// ieAsk is the paper's headline case: tuple-at-a-time inference over a
// recursive knowledge base, made feasible by the cache. The whole database
// fits in the (unbounded) cache, so after the warm-up pass almost every one
// of the few hundred CAQL queries behind an ask is a cache hit, and the IE
// and the CMS's hit path do nearly all the work.
type ieAsk struct {
	w         *gen.Workload
	questions []string
	kinds     []int

	base
	sys     *core.System
	eng     *ie.Engine
	oracle  *core.System
	refMemo map[string]fingerprint
}

var ieAskPreds = []struct{ pred, form string }{
	{"uncle", "uncle(X, %s)?"},
	{"cousin", "cousin(%s, Y)?"},
	{"anc", "anc(%s, Y)?"},
	{"grandfather", "grandfather(X, %s)?"},
	{"brother", "brother(X, %s)?"},
	{"sibling", "sibling(%s, Y)?"},
	{"grandparent", "grandparent(%s, Y)?"},
}

// kinshipSeed generates ie_ask's family forest. It is a constant, and the
// run's seed only orders the questions, because a forest this small is a
// different amount of work from one seed to the next (asks allocate 23 k to
// 29 k objects each over seeds 1-6), which is more than any bound here: a
// pass asks every question form of every person once, so every seed's pass
// is the same multiset of asks in another order.
const kinshipSeed = 1

// Every pass starts with the same ask, brother(X, p001)?: person 1, the
// fifth question form.
const ieAskFirstPerson, ieAskFirstForm = 1, 4

func newIEAsk(seed int64, sz sizes) *ieAsk {
	w := &ieAsk{w: gen.Kinship(kinshipSeed, sz.people), refMemo: map[string]fingerprint{}}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(sz.people * len(ieAskPreds))
	// What the unbounded cache ends up holding depends on what it was asked
	// first: a query that arrives before the relation it needs is resident is
	// cached as an element of its own, stays for ever, and is one more
	// candidate every later probe has to look at (18.3 k or 19.7 k objects
	// per ask against 16.9 k). So every seed's pass starts with the same ask,
	// one that makes the CMS fetch parent and male whole.
	for i, j := range order {
		if j == ieAskFirstPerson*len(ieAskPreds)+ieAskFirstForm {
			order[0], order[i] = order[i], order[0]
		}
	}
	for _, j := range order {
		k, person := j%len(ieAskPreds), j/len(ieAskPreds)
		w.questions = append(w.questions, fmt.Sprintf(ieAskPreds[k].form, fmt.Sprintf("p%03d", person)))
		w.kinds = append(w.kinds, k)
	}
	return w
}

func (w *ieAsk) name() string { return "ie_ask" }
func (w *ieAsk) classes() []string {
	out := make([]string, len(ieAskPreds))
	for i, p := range ieAskPreds {
		out[i] = p.pred
	}
	return out
}
func (w *ieAsk) class(i int) int      { return w.kinds[i] }
func (w *ieAsk) ops() int             { return len(w.questions) }
func (w *ieAsk) seqHash() uint64      { return hashInputs(w.w.Tables, w.questions) }
func (w *ieAsk) counters() counters   { return readCounters(w.sys.DS, w.st) }
func (w *ieAsk) probe() relationProbe { return kinshipProbe(w.w) }
func (w *ieAsk) innards() innards {
	return innards{cms: w.sys.CMS(), eng: w.eng, questions: w.questions}
}

func (w *ieAsk) open(dir string) (err error) {
	w.st, err = openStack(dir, 0, w.w.Tables, nil)
	return err
}

func (w *ieAsk) attach(tr *tracer) (err error) {
	cfg := core.DefaultConfig()
	var client remotedb.Client = w.st.pool
	if tr != nil {
		client = &tracedClient{inner: w.st.pool, tr: tr}
	}
	if w.sys, err = core.NewSystem(w.w.KB, client, cfg); err != nil {
		return err
	}
	w.eng = w.sys.Engine
	if tr != nil {
		w.eng = ie.New(w.w.KB, &tracedSource{inner: w.sys.DS, tr: tr}, cfg.IE)
	}
	return nil
}

// ask runs one question on an engine and fingerprints its solutions.
func ask(eng *ie.Engine, q string, sum bool) (fingerprint, int64, error) {
	start := time.Now()
	sol, err := eng.AskText(q)
	if err != nil {
		return fingerprint{}, 0, err
	}
	vars := sol.Vars()
	var fp fingerprint
	var first int64
	for {
		sub, ok := sol.Next()
		if fp.rows == 0 {
			first = int64(time.Since(start))
		}
		if !ok {
			break
		}
		fp.rows++
		if sum {
			var h uint64 = 14695981039346656037
			for _, v := range vars {
				h = h*1099511628211 ^ sub.Walk(logic.V(v)).Const.Hash()
			}
			fp.sum += h
		}
	}
	return fp, first, sol.Err()
}

func (w *ieAsk) do(i int, sum bool) (fingerprint, int64, error) {
	return ask(w.eng, w.questions[i], sum)
}

// reference asks the same question of a loosely coupled system (no cache,
// every CAQL query goes to a database) over an in-process engine: the cache
// must be invisible.
func (w *ieAsk) reference(i int) (fingerprint, error) {
	q := w.questions[i]
	if fp, ok := w.refMemo[q]; ok {
		return fp, nil
	}
	if w.oracle == nil {
		cfg := core.DefaultConfig()
		cfg.Comparator = core.ComparatorLoose
		var err error
		w.oracle, err = core.NewSystem(w.w.KB, remotedb.NewInProcClient(w.w.Engine(), remotedb.DefaultCosts()), cfg)
		if err != nil {
			return fingerprint{}, err
		}
	}
	fp, _, err := ask(w.oracle.Engine, q, true)
	w.refMemo[q] = fp
	return fp, err
}

// ---- caql_cold ------------------------------------------------------------

// caqlCold is the miss path end to end. The cache is a fresh 1 MiB CMS per
// pass, far below the working set, and the statements differ only in their
// constants, so nearly every query is parsed, probed, translated, shipped,
// parsed again as SQL, planned, executed, framed, decoded, inserted and —
// soon — evicted.
type caqlCold struct {
	w       *gen.Workload
	src     caql.MapSource
	texts   []string
	kinds   []int
	opts    cache.Options
	indexes []indexSpec

	base
	tr     *tracer
	client remotedb.Client
	cms    *cache.CMS
	ds     bridge.DataSource
	sess   bridge.Session
}

var caqlClasses = []string{"point", "range", "join", "repeat"}

// Of every caqlBlock ops the first caqlFresh are queries not seen before and
// the rest repeat an earlier one.
const caqlBlock, caqlFresh = 10, 8

// caqlPoolSeed generates caql_cold's tables and its queries: their constants,
// which of them are repeated and how. It is a constant, and the run's seed
// only orders the eight fresh queries of every ten ops, because allocations
// per op are gated at 2 % and anything more the seed decides costs more than
// that. A supplier has 1 to 20 shipments, so with 600 suppliers drawn afresh
// by every seed allocs_per_op ranged over 3.3 % on seeds 501-510; with the
// constants fixed and dealt out in another order by every seed, so that the
// repeats fell on other queries, it still ranged over 1.9 % on seeds 601-610.
// Every seed's pass is the same queries and the same repeats, each repeat
// within fifty ops of its original.
const caqlPoolSeed = 1

func newCAQLCold(seed int64, sz sizes) *caqlCold {
	w := &caqlCold{
		w: gen.Suppliers(caqlPoolSeed, sz.suppliers),
		opts: cache.Options{
			Features:   cache.AllFeatures(),
			Costs:      remotedb.DefaultCosts(),
			CacheBytes: sz.cacheBytes,
		},
		indexes: []indexSpec{{"shipment", []int{0}}, {"part", []int{0}}},
	}
	w.src = w.w.Source()
	pool := rand.New(rand.NewSource(caqlPoolSeed ^ 0xca))
	nS, nP := sz.suppliers, 2*sz.suppliers
	// Point and join constants are drawn without replacement while they last,
	// so each is fresh; repeats then reuse them on purpose.
	sids, pids := pool.Perm(nS), pool.Perm(nP)
	nextS, nextP := 0, 0
	type made struct {
		text string
		kind int
		a, b int
	}
	var hist []made
	add := func(text string, kind int) {
		w.texts = append(w.texts, text)
		w.kinds = append(w.kinds, kind)
	}
	for i := 0; i < sz.caqlOps; i++ {
		switch r := i % caqlBlock; {
		case r < 4: // point selection, fresh constant
			var m made
			if r%2 == 0 {
				s := sids[nextS%nS]
				nextS++
				m = made{fmt.Sprintf("q%d(P, Q) :- shipment(%d, P, Q)", i, s), 0, s, 0}
			} else {
				p := pids[nextP%nP]
				nextP++
				m = made{fmt.Sprintf("q%d(C, W) :- part(%d, C, W)", i, p), 0, p, 1}
			}
			hist = append(hist, m)
			add(m.text, 0)
		case r < 6: // range selection over a window of suppliers
			lo := pool.Intn(nS)
			span := 2 + pool.Intn(6)
			qty := 300 + pool.Intn(150)
			m := made{fmt.Sprintf("q%d(S, P, Q) :- shipment(S, P, Q) & S >= %d & S < %d & Q >= %d", i, lo, lo+span, qty), 1, lo, span}
			hist = append(hist, m)
			add(m.text, 1)
		case r < caqlFresh: // two-relation join, one supplier's shipments with their parts
			s := sids[nextS%nS]
			nextS++
			m := made{fmt.Sprintf("q%d(P, Q, C, W) :- shipment(%d, P, Q) & part(P, C, W)", i, s), 2, s, 0}
			hist = append(hist, m)
			add(m.text, 2)
		default: // an earlier query again, as it was or narrowed
			// Recent queries are the likelier ones to be resident still.
			back := 1 + pool.Intn(min(len(hist), 40))
			m := hist[len(hist)-back]
			text := m.text
			if pool.Intn(2) == 0 {
				switch m.kind {
				case 0:
					if m.b == 0 {
						text = fmt.Sprintf("n%d(P, Q) :- shipment(%d, P, Q) & Q >= 250", i, m.a)
					} else {
						text = fmt.Sprintf("n%d(C, W) :- part(%d, C, W) & W >= 50.0", i, m.a)
					}
				case 1:
					text = fmt.Sprintf("n%d(S, P, Q) :- shipment(S, P, Q) & S >= %d & S < %d & Q >= 460", i, m.a, m.a+m.b)
				case 2:
					text = fmt.Sprintf("n%d(P, Q, C, W) :- shipment(%d, P, Q) & part(P, C, W) & W >= 50.0", i, m.a)
				}
			}
			add(text, 3)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xca))
	for b := 0; b+caqlFresh <= len(w.texts); b += caqlBlock {
		rng.Shuffle(caqlFresh, func(i, j int) {
			w.texts[b+i], w.texts[b+j] = w.texts[b+j], w.texts[b+i]
			w.kinds[b+i], w.kinds[b+j] = w.kinds[b+j], w.kinds[b+i]
		})
	}
	return w
}

func (w *caqlCold) name() string         { return "caql_cold" }
func (w *caqlCold) classes() []string    { return caqlClasses }
func (w *caqlCold) class(i int) int      { return w.kinds[i] }
func (w *caqlCold) ops() int             { return len(w.texts) }
func (w *caqlCold) seqHash() uint64      { return hashInputs(w.w.Tables, w.texts) }
func (w *caqlCold) probe() relationProbe { return suppliersProbe(w.w) }
func (w *caqlCold) innards() innards     { return innards{cms: w.cms, caql: w.texts} }

func (w *caqlCold) open(dir string) (err error) {
	w.st, err = openStack(dir, 0, w.w.Tables, w.indexes)
	return err
}

func (w *caqlCold) attach(tr *tracer) error {
	w.tr = tr
	w.client = w.st.pool
	if tr != nil {
		w.client = &tracedClient{inner: w.st.pool, tr: tr}
	}
	return nil
}

func (w *caqlCold) beginPass() error {
	w.cms = cache.New(w.client, w.opts)
	w.ds = w.cms
	if w.tr != nil {
		w.ds = &tracedSource{inner: w.cms, tr: w.tr}
	}
	w.sess = w.ds.BeginSession(nil)
	return nil
}

func (w *caqlCold) endPass() { w.sess.End() }

func (w *caqlCold) counters() counters { return readCounters(w.cms, w.st) }

func (w *caqlCold) do(i int, sum bool) (fingerprint, int64, error) {
	start := time.Now()
	st, err := w.sess.QueryTextCtx(context.Background(), w.texts[i])
	if err != nil {
		return fingerprint{}, 0, err
	}
	return drain(st, start, sum)
}

// reference evaluates the query over the generated tables themselves.
func (w *caqlCold) reference(i int) (fingerprint, error) {
	return caqlReference(w.texts[i], w.src)
}

func caqlReference(text string, src caql.MapSource) (fingerprint, error) {
	q, err := caql.Parse(text)
	if err != nil {
		return fingerprint{}, err
	}
	rel, err := caql.Eval(q, src)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprintRel(rel), nil
}

// ---- bulk_scan ------------------------------------------------------------

// bulkScan is the per-tuple cost of the lower half of the chain with the
// per-statement overhead amortised away: statements go straight to the
// PoolClient (no IE, no CMS) and each returns or examines the whole of a
// large table.
type bulkScan struct {
	fact, dim *relation.Relation
	sql       []string
	kinds     []int

	base
	client remotedb.StreamClient
}

var bulkClasses = []string{"scan", "filter", "agg", "join"}

func newBulkScan(seed int64, sz sizes) *bulkScan {
	rng := rand.New(rand.NewSource(seed ^ 0xb5))
	w := &bulkScan{
		fact: relation.New("fact", relation.NewSchema(
			relation.Attr{Name: "k", Kind: relation.KindInt},
			relation.Attr{Name: "g", Kind: relation.KindString},
			relation.Attr{Name: "v", Kind: relation.KindFloat})),
		dim: relation.New("dim", relation.NewSchema(
			relation.Attr{Name: "g", Kind: relation.KindString},
			relation.Attr{Name: "w", Kind: relation.KindInt})),
	}
	group := func(i int) string { return fmt.Sprintf("g%05d", i) }
	for i := 0; i < sz.dimRows; i++ {
		w.dim.MustAppend(relation.Tuple{relation.Str(group(i)), relation.Int(int64(rng.Intn(1000)))})
	}
	w.fact.Grow(sz.factRows)
	for i := 0; i < sz.factRows; i++ {
		w.fact.MustAppend(relation.Tuple{
			relation.Int(int64(rng.Intn(1_000_000))),
			relation.Str(group(rng.Intn(sz.dimRows))),
			relation.Float(float64(rng.Intn(100_000)) / 100)})
	}
	add := func(kind int, sql string) {
		w.sql = append(w.sql, sql)
		w.kinds = append(w.kinds, kind)
	}
	for c := 0; c < sz.bulkCycles; c++ {
		// Each filter keeps a tenth of the table; where the window sits
		// comes from the seed.
		lo := rng.Intn(900)
		klo := rng.Intn(900_000)
		add(0, "SELECT k, g, v FROM fact")
		add(1, fmt.Sprintf("SELECT k, g, v FROM fact WHERE v >= %d.0 AND v < %d.0", lo, lo+100))
		add(1, fmt.Sprintf("SELECT k, v FROM fact WHERE k >= %d AND k < %d", klo, klo+100_000))
		add(2, "SELECT g, COUNT(*), SUM(k), MAX(v) FROM fact GROUP BY g")
		add(3, "SELECT fact.k, fact.v, dim.w FROM fact, dim WHERE fact.g = dim.g")
	}
	return w
}

func (w *bulkScan) name() string      { return "bulk_scan" }
func (w *bulkScan) classes() []string { return bulkClasses }
func (w *bulkScan) class(i int) int   { return w.kinds[i] }
func (w *bulkScan) ops() int          { return len(w.sql) }
func (w *bulkScan) seqHash() uint64 {
	return hashInputs([]*relation.Relation{w.fact, w.dim}, w.sql)
}
func (w *bulkScan) counters() counters { return readCounters(nil, w.st) }
func (w *bulkScan) innards() innards   { return innards{} }
func (w *bulkScan) probe() relationProbe {
	return relationProbe{fact: w.fact, dim: w.dim, factCol: 1, dimCol: 0, groupCol: 1, aggCol: 2,
		sel: relation.ColConst(2, relation.OpLt, relation.Float(100))}
}

func (w *bulkScan) open(dir string) (err error) {
	w.st, err = openStack(dir, 0, []*relation.Relation{w.fact, w.dim}, nil)
	return err
}

func (w *bulkScan) attach(tr *tracer) error {
	w.client = w.st.pool
	if tr != nil {
		w.client = &tracedClient{inner: w.st.pool, tr: tr}
	}
	return nil
}

func (w *bulkScan) do(i int, sum bool) (fingerprint, int64, error) {
	start := time.Now()
	st, err := w.client.ExecStream(context.Background(), w.sql[i])
	if err != nil {
		return fingerprint{}, 0, err
	}
	return drain(st, start, sum)
}

// reference runs the statement on the engine directly, through the
// materialising executor, with no wire in between.
func (w *bulkScan) reference(i int) (fingerprint, error) {
	rel, _, err := w.st.eng.ExecuteSQL(w.sql[i])
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprintRel(rel), nil
}

// ---- write_mix ------------------------------------------------------------

// writeMix uses the same layers differently: writes beside reads. Every
// cycle appends a batch to a log table through the CMS's own client, then
// reads two views over tables the insert never touched, twice each. The
// engine has one catalog epoch, so each insert makes the CMS drop and fetch
// both views again: the first read of each is a refetch, the second a hit.
type writeMix struct {
	w       *gen.Workload
	src     caql.MapSource
	sz      sizes
	inserts []string // one per cycle
	views   [2]string
	indexes []indexSpec

	base
	client remotedb.Client
	cms    *cache.CMS
	ds     bridge.DataSource
	sess   bridge.Session
	acked  int // rows of shipment_log acknowledged so far
}

var writeClasses = []string{"write", "read_refetch", "read_hit"}

const writeCycleOps = 5

func newWriteMix(seed int64, sz sizes) *writeMix {
	w := &writeMix{w: gen.Suppliers(seed, sz.writeSuppliers), sz: sz}
	w.src = w.w.Source()
	w.indexes = []indexSpec{{"shipment", []int{0}}, {"part", []int{0}}}
	rng := rand.New(rand.NewSource(seed ^ 0x3717))
	// Each view is a window of consecutive keys: where it sits comes from
	// the seed, how many rows it holds does not.
	nS, nP := sz.writeSuppliers, 2*sz.writeSuppliers
	lo := rng.Intn(nS - nS/4)
	w.views[0] = fmt.Sprintf("va(S, N, C) :- supplier(S, N, C) & S >= %d & S < %d", lo, lo+nS/4)
	lo = rng.Intn(nP - nP/4)
	w.views[1] = fmt.Sprintf("vb(P, C, W) :- part(P, C, W) & P >= %d & P < %d", lo, lo+nP/4)
	for c := 0; c < sz.writeCycles; c++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO shipment_log VALUES ")
		for r := 0; r < sz.batchRows; r++ {
			if r > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,%d,'n%06d')", rng.Intn(sz.writeSuppliers), rng.Intn(2*sz.writeSuppliers), rng.Intn(500), rng.Intn(1_000_000))
		}
		w.inserts = append(w.inserts, sb.String())
	}
	return w
}

func (w *writeMix) name() string      { return "write_mix" }
func (w *writeMix) classes() []string { return writeClasses }
func (w *writeMix) class(i int) int {
	switch i % writeCycleOps {
	case 0:
		return 0
	case 1, 2:
		return 1
	}
	return 2
}
func (w *writeMix) ops() int { return len(w.inserts) * writeCycleOps }
func (w *writeMix) seqHash() uint64 {
	return hashInputs(w.w.Tables, append(append([]string(nil), w.views[:]...), w.inserts...))
}
func (w *writeMix) durable() (string, int64) { return "shipment_log", int64(w.acked) }
func (w *writeMix) counters() counters       { return readCounters(w.cms, w.st) }
func (w *writeMix) probe() relationProbe     { return suppliersProbe(w.w) }
func (w *writeMix) innards() innards {
	return innards{cms: w.cms, caql: w.views[:], rowsWritten: len(w.inserts) * w.sz.batchRows}
}

func (w *writeMix) open(dir string) (err error) {
	if w.st, err = openStack(dir, w.sz.segmentBytes, w.w.Tables, w.indexes); err != nil {
		return err
	}
	w.acked = 0
	_, err = w.st.pool.Exec("CREATE TABLE shipment_log (sid INT, pid INT, qty INT, note TEXT)")
	return err
}

func (w *writeMix) attach(tr *tracer) error {
	w.client = w.st.pool
	if tr != nil {
		w.client = &tracedClient{inner: w.st.pool, tr: tr}
	}
	w.cms = cache.New(w.client, cache.Options{Features: cache.AllFeatures(), Costs: remotedb.DefaultCosts()})
	w.ds = w.cms
	if tr != nil {
		w.ds = &tracedSource{inner: w.cms, tr: tr}
	}
	return nil
}

func (w *writeMix) beginPass() error {
	w.sess = w.ds.BeginSession(nil)
	return nil
}

func (w *writeMix) endPass() { w.sess.End() }

func (w *writeMix) do(i int, sum bool) (fingerprint, int64, error) {
	start := time.Now()
	cycle, slot := i/writeCycleOps, i%writeCycleOps
	if slot == 0 {
		_, err := w.client.Exec(w.inserts[cycle])
		d := int64(time.Since(start))
		if err != nil {
			return fingerprint{}, d, err
		}
		w.acked += w.sz.batchRows
		return fingerprint{rows: w.sz.batchRows}, d, nil
	}
	st, err := w.sess.QueryTextCtx(context.Background(), w.views[(slot-1)%2])
	if err != nil {
		return fingerprint{}, 0, err
	}
	return drain(st, start, sum)
}

func (w *writeMix) reference(i int) (fingerprint, error) {
	slot := i % writeCycleOps
	if slot == 0 {
		return fingerprint{rows: w.sz.batchRows}, nil
	}
	return caqlReference(w.views[(slot-1)%2], w.src)
}

// ---- relation-layer probes ------------------------------------------------

// relationProbe names two of a workload's own tables and how to join, group
// and select them, for the probes of the relation package's operators.
type relationProbe struct {
	fact, dim        *relation.Relation
	factCol, dimCol  int // equi-join fact.factCol = dim.dimCol
	groupCol, aggCol int // GROUP BY fact.groupCol, SUM(fact.aggCol)
	sel              relation.Cond
}

func tableNamed(w *gen.Workload, name string) *relation.Relation {
	for _, t := range w.Tables {
		if t.Name == name {
			return t
		}
	}
	panic("bench: workload has no table " + name)
}

func kinshipProbe(w *gen.Workload) relationProbe {
	// parent(p, c) joined with age(x, a) on the child; grouped by parent.
	return relationProbe{fact: tableNamed(w, "parent"), dim: tableNamed(w, "age"), factCol: 1, dimCol: 0, groupCol: 0, aggCol: 1,
		sel: relation.ColConst(0, relation.OpLt, relation.Str("p050"))}
}

func suppliersProbe(w *gen.Workload) relationProbe {
	// shipment(sid, pid, qty) joined with part(pid, ...) ; grouped by sid.
	return relationProbe{fact: tableNamed(w, "shipment"), dim: tableNamed(w, "part"), factCol: 1, dimCol: 0, groupCol: 0, aggCol: 2,
		sel: relation.ColConst(2, relation.OpGe, relation.Int(400))}
}
