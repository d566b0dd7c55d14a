package remotedb

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
)

// The golden parity corpus: a table-driven suite asserting that the
// cost-based planner (and its streamed execution path) returns results
// identical to the reference evaluator (reference_test.go) — the same schema,
// the same bag always, and the same order where an ORDER BY key makes the
// order deterministic. The whole corpus runs twice, with and without indexes,
// so both access paths are held to the same oracle.

type parityCase struct {
	sql string
	// ordered marks statements whose ORDER BY key is unique per row, so the
	// full tuple order (not just the bag) must match.
	ordered bool
	// unlimited, when set, is the statement without its LIMIT clause: a LIMIT
	// with no ORDER BY over a join returns an executor-dependent subset, so
	// parity means "N rows, each drawn (with multiplicity) from the full
	// result", not bag equality.
	unlimited string
}

var parityCorpus = []parityCase{
	// Single table: scans, predicates, projection, distinct, order, limit.
	{sql: "SELECT * FROM po"},
	{sql: "SELECT id, amt FROM po WHERE grp = 3"},
	{sql: "SELECT id FROM po WHERE amt > 500.0 AND grp != 2"},
	{sql: "SELECT DISTINCT grp FROM po"},
	{sql: "SELECT id, grp FROM po ORDER BY id", ordered: true},
	{sql: "SELECT id FROM po ORDER BY id LIMIT 7", ordered: true},
	{sql: "SELECT id, grp FROM po LIMIT 5"},
	{sql: "SELECT grp FROM po WHERE cust = 4"},
	// ORDER BY on a non-projected column (satellite fix): sort runs wide.
	{sql: "SELECT grp FROM po ORDER BY id", ordered: false},
	{sql: "SELECT grp, amt FROM po ORDER BY id LIMIT 9", ordered: false},
	// Two-table equi-joins, both directions, with pushdown-able predicates.
	{sql: "SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id"},
	{sql: "SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id AND cu.tier = 1"},
	{sql: "SELECT cu.cname, po.amt FROM cu, po WHERE cu.id = po.cust AND po.grp = 2"},
	{sql: "SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id ORDER BY po.id", ordered: true},
	{sql: "SELECT po.id FROM po, cu WHERE po.cust = cu.id AND cu.tier = 0 ORDER BY po.id LIMIT 6", ordered: true},
	// Three-table chain (join reordering has real choices here).
	{sql: "SELECT po.id, cu.cname, re.rname FROM po, cu, re WHERE po.cust = cu.id AND cu.region = re.id"},
	{sql: "SELECT po.id FROM po, cu, re WHERE po.cust = cu.id AND cu.region = re.id AND re.rname = 'north' ORDER BY po.id", ordered: true},
	// Theta join and cross product.
	{sql: "SELECT a.id, b.id FROM cu a, cu b WHERE a.tier > b.tier AND a.region = b.region"},
	{sql: "SELECT po.id, re.id FROM po, re WHERE po.grp = 1"},
	// Output names are a function of the statement: SELECT * over a join comes
	// out in FROM order whichever side the planner builds (po.id = 3 makes po
	// the small side), and a repeated base name takes its _2 in output order.
	{sql: "SELECT * FROM po, cu WHERE po.cust = cu.id AND po.id = 3"},
	{sql: "SELECT * FROM cu, po WHERE po.cust = cu.id AND po.id = 3"},
	{sql: "SELECT * FROM po, cu WHERE po.cust = cu.id"},
	{sql: "SELECT po.id, cu.id FROM po, cu WHERE po.cust = cu.id"},
	{sql: "SELECT cu.id, po.id FROM po, cu WHERE po.cust = cu.id ORDER BY id_2", ordered: true},
	{sql: "SELECT po.grp, cu.id, COUNT(*) FROM cu, po WHERE po.cust = cu.id AND cu.id = po.grp GROUP BY po.grp, cu.id"},
	// Aggregates: grouped, global, joined, ordered, limited.
	{sql: "SELECT grp, COUNT(*), SUM(amt) FROM po GROUP BY grp ORDER BY grp", ordered: true},
	{sql: "SELECT COUNT(*), MIN(amt), MAX(amt), AVG(amt) FROM po"},
	{sql: "SELECT cust, COUNT(*) FROM po GROUP BY cust ORDER BY cust LIMIT 4", ordered: true},
	{sql: "SELECT cu.region, COUNT(*) FROM po, cu WHERE po.cust = cu.id GROUP BY cu.region ORDER BY region", ordered: true},
	{sql: "SELECT grp, MAX(amt) FROM po WHERE amt < 800.0 GROUP BY grp ORDER BY grp", ordered: true},
	// A projection over a join is written by the join: select lists that
	// reorder columns across the two sides, over an equi-join, a theta join
	// and a 3-way join; and an aggregate over a join, which reads the
	// concatenated row, so nothing fuses.
	{sql: "SELECT cu.cname, po.amt, cu.id, po.id FROM po, cu WHERE po.cust = cu.id"},
	{sql: "SELECT b.cname, a.tier FROM cu a, cu b WHERE a.tier < b.tier AND a.region != b.region"},
	{sql: "SELECT re.rname, po.amt, cu.cname FROM po, cu, re WHERE po.cust = cu.id AND cu.region = re.id AND po.grp = 1"},
	{sql: "SELECT cu.tier, SUM(po.amt), MAX(cu.cname) FROM po, cu WHERE po.cust = cu.id GROUP BY cu.tier ORDER BY tier", ordered: true},
	// DISTINCT interactions.
	{sql: "SELECT DISTINCT cu.region FROM po, cu WHERE po.cust = cu.id"},
	{sql: "SELECT DISTINCT grp FROM po ORDER BY grp LIMIT 3", ordered: true},
	// LIMIT without ORDER BY over a join (short-circuit pipelines).
	{sql: "SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id LIMIT 5",
		unlimited: "SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id"},
	{sql: "SELECT * FROM po WHERE grp = 0 LIMIT 2"},
	// Indexed-equality shapes (exercise index access under the indexed run).
	{sql: "SELECT id, amt FROM po WHERE cust = 7"},
	{sql: "SELECT po.id FROM po, cu WHERE po.cust = cu.id AND po.cust = 7"},
	// Each consumer that keeps rows reads a writer: a join or a projection,
	// which writes into one reused row for a consumer that keeps none. The
	// sort, TopN, DISTINCT and the nested-loop join's inner side must get
	// rows that outlive the next pull; the group table copies its keys.
	{sql: "SELECT cu.cname, po.amt, po.id FROM po, cu WHERE po.cust = cu.id ORDER BY po.amt, po.id", ordered: true},
	{sql: "SELECT cu.cname, po.amt FROM po, cu WHERE po.cust = cu.id ORDER BY po.id"},
	{sql: "SELECT cu.cname, po.id FROM po, cu WHERE po.cust = cu.id ORDER BY po.id LIMIT 25", ordered: true},
	{sql: "SELECT DISTINCT cu.cname, po.grp FROM po, cu WHERE po.cust = cu.id"},
	{sql: "SELECT DISTINCT grp, cust FROM po WHERE amt > 100.0"},
	{sql: "SELECT amt, id FROM po WHERE grp != 1 ORDER BY amt, id", ordered: true},
	{sql: "SELECT cu.cname, po.grp, COUNT(*), SUM(po.amt) FROM po, cu WHERE po.cust = cu.id GROUP BY cu.cname, po.grp"},
	{sql: "SELECT a.id, b.cname, b.tier FROM cu a, cu b WHERE a.tier < b.tier ORDER BY a.id, b.cname", ordered: true},
	{sql: "SELECT po.id, re.rname FROM po, cu, re WHERE po.cust = cu.id AND cu.region > re.id ORDER BY po.id, re.rname", ordered: true},
	// Ranges on an indexed column (po.cust, cu.id under the indexed run):
	// two-sided, one-sided, inclusive and exclusive, beside another
	// conjunct, a point written as a range, and under a LIMIT.
	{sql: "SELECT id, amt FROM po WHERE cust >= 3 AND cust < 6"},
	{sql: "SELECT id FROM po WHERE cust > 17"},
	{sql: "SELECT id, grp FROM po WHERE cust <= 2 AND grp = 1"},
	{sql: "SELECT id FROM po WHERE cust >= 4 AND cust <= 4 AND amt > 300.0"},
	{sql: "SELECT cname, tier FROM cu WHERE id > 12 AND id <= 16"},
	{sql: "SELECT id, cust FROM po WHERE cust < 5 LIMIT 4", unlimited: "SELECT id, cust FROM po WHERE cust < 5"},
	// Index joins: a small side drives one probe a row into po's index on
	// cust or cu's on id; the inner scan's conjuncts, and an equi-join
	// conjunct past the index's columns, filter what the probe finds.
	{sql: "SELECT cu.cname, po.id, po.amt FROM cu, po WHERE cu.id = po.cust AND cu.region = 2"},
	{sql: "SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id AND po.id < 12 AND cu.tier = 2"},
	{sql: "SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id AND po.grp = cu.tier AND cu.region = 1"},
	{sql: "SELECT re.rname, cu.cname, po.id FROM re, cu, po WHERE re.id = cu.region AND cu.id = po.cust AND re.rname = 'east'"},
	{sql: "SELECT cu.tier, COUNT(*) FROM cu, po WHERE cu.id = po.cust AND cu.region = 3 GROUP BY cu.tier ORDER BY tier", ordered: true},
	{sql: "SELECT cu.cname, po.id FROM cu, po WHERE cu.id = po.cust AND cu.tier = 1 LIMIT 3",
		unlimited: "SELECT cu.cname, po.id FROM cu, po WHERE cu.id = po.cust AND cu.tier = 1"},
}

// newParityEngine loads a deterministic three-table workload: po (orders,
// 300 rows) -> cu (customers, 20) -> re (regions, 4).
func newParityEngine(t *testing.T, indexed bool) *Engine {
	t.Helper()
	return loadParityEngine(t, indexed, 300)
}

// loadParityEngine is newParityEngine with poRows orders; order i is the
// same whatever poRows is.
func loadParityEngine(t *testing.T, indexed bool, poRows int) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec := func(sql string) {
		t.Helper()
		if _, _, err := e.ExecuteSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE re (id INT, rname TEXT)")
	mustExec("INSERT INTO re VALUES (0,'north'),(1,'south'),(2,'east'),(3,'west')")
	mustExec("CREATE TABLE cu (id INT, cname TEXT, region INT, tier INT)")
	var cu []string
	for i := 0; i < 20; i++ {
		cu = append(cu, fmt.Sprintf("(%d,'c%02d',%d,%d)", i, i, i%4, i%3))
	}
	mustExec("INSERT INTO cu VALUES " + strings.Join(cu, ","))
	mustExec("CREATE TABLE po (id INT, cust INT, grp INT, amt FLOAT)")
	var po []string
	rng := uint64(42)
	for i := 0; i < poRows; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		cust := int(rng>>33) % 20
		grp := int(rng>>21) % 5
		amt := float64(int(rng>>11)%1000) + 0.5
		po = append(po, fmt.Sprintf("(%d,%d,%d,%g)", i, cust, grp, amt))
	}
	// Indexed, the last of po's rows arrive after its index: a key lookup, a
	// range and an index join also read the rows appended since a build.
	tail := poRows / 16
	mustExec("INSERT INTO po VALUES " + strings.Join(po[:poRows-tail], ","))
	if indexed {
		if err := e.CreateIndex("po", []int{1}); err != nil { // po.cust
			t.Fatal(err)
		}
		if err := e.CreateIndex("cu", []int{0}); err != nil { // cu.id
			t.Fatal(err)
		}
	}
	if tail > 0 {
		mustExec("INSERT INTO po VALUES " + strings.Join(po[poRows-tail:], ","))
	}
	return e
}

// parityWire is the wire leg of a parity run: pools dialed to a server over
// the engine, one asking for 3-tuple frames and one taking the default 512.
// At 512-row frames over 128-row exchange batches, one frame spans several
// batches.
type parityWire []*PoolClient

// serveParity serves e and dials the wire leg's pools; the test's cleanup
// closes them.
func serveParity(t *testing.T, e *Engine) parityWire {
	t.Helper()
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return parityWire{dialTestPool(t, addr, PoolOptions{FrameTuples: 3}), dialTestPool(t, addr, PoolOptions{})}
}

// checkParity holds one corpus statement to the reference on every path the
// engine offers it — materialized, streamed, over the wire, EXPLAIN, EXPLAIN
// ANALYZE — at the engine's current settings, and returns the materialized
// run's ops.
func checkParity(t *testing.T, e *Engine, wire parityWire, tc parityCase) int64 {
	t.Helper()
	sel := mustParseSelect(t, tc.sql)
	want, _, err := e.referenceSelect(sel)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	var full *relation.Relation
	if tc.unlimited != "" {
		if full, _, err = e.referenceSelect(mustParseSelect(t, tc.unlimited)); err != nil {
			t.Fatalf("reference unlimited: %v", err)
		}
	}
	check := func(label string, res *relation.Relation) {
		t.Helper()
		if full != nil {
			assertSubsetOf(t, label, res, full, want)
			return
		}
		assertSameResult(t, label, want, res, tc.ordered)
	}
	got, ops, err := e.ExecuteSQL(tc.sql)
	if err != nil {
		t.Fatalf("planned: %v", err)
	}
	check("planned", got)

	// The streamed path must agree too, drain clean (Close joins any worker
	// pool), and carry a resume token on exactly the single-table
	// non-aggregate statements.
	st, ok := e.ExecuteSQLPipelineCtx(context.Background(), tc.sql)
	if !ok {
		t.Fatalf("pipeline declined %q", tc.sql)
	}
	streamed := relation.Drain(st.Name(), st.Schema(), st)
	if err := st.Err(); err != nil {
		t.Fatalf("streamed: %v", err)
	}
	st.Close()
	check("streamed", streamed)
	resumable := len(sel.From) == 1 && !sel.Distinct && len(sel.GroupBy) == 0 && len(sel.OrderBy) == 0
	for _, it := range sel.Items {
		resumable = resumable && !it.IsAgg
	}
	if got := st.ResumeToken().Table != ""; got != resumable {
		t.Fatalf("streamed: resume token present = %v, want %v", got, resumable)
	}

	// The server's frame writer reads the stream in place: every row it
	// ships must still be the reference's.
	for _, p := range wire {
		label := fmt.Sprintf("wire, %d-tuple frames", clampFrameTuples(p.opts.FrameTuples, DefaultFrameTuples))
		res, err := p.Exec(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label, res.Rel)
	}

	// EXPLAIN must render for every corpus statement, and EXPLAIN ANALYZE must
	// report the ops of the run it made: the same as the materialized run's.
	plan, _, err := e.ExecuteSQL("EXPLAIN " + tc.sql)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if plan.Len() < 2 {
		t.Fatalf("explain produced %d lines", plan.Len())
	}
	plan, analyzeOps, err := e.ExecuteSQL("EXPLAIN ANALYZE " + tc.sql)
	if err != nil {
		t.Fatalf("explain analyze: %v", err)
	}
	if plan.Len() < 2 {
		t.Fatalf("explain analyze produced %d lines", plan.Len())
	}
	header := plan.Tuple(0)[0].AsString()
	if analyzeOps != ops || !strings.Contains(header, fmt.Sprintf("| ops %d |", ops)) {
		t.Errorf("explain analyze ops = %d, planned run ops = %d; header %q", analyzeOps, ops, header)
	}
	assertLimitShortCircuits(t, e, tc, ops)
	return ops
}

// assertLimitShortCircuits: a LIMIT stops the pipeline once it has its rows,
// so a case with an unlimited form charges strictly fewer ops than it.
func assertLimitShortCircuits(t *testing.T, e *Engine, tc parityCase, ops int64) {
	t.Helper()
	if tc.unlimited == "" {
		return
	}
	_, fullOps, err := e.ExecuteSQL(tc.unlimited)
	if err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	if ops >= fullOps {
		t.Errorf("LIMIT charged %d ops, the unlimited statement %d: no short-circuit", ops, fullOps)
	}
}

func runParity(t *testing.T, indexed bool) {
	e := newParityEngine(t, indexed)
	wire := serveParity(t, e)
	for _, tc := range parityCorpus {
		t.Run(tc.sql, func(t *testing.T) { checkParity(t, e, wire, tc) })
	}
}

func mustParseSelect(t testing.TB, sql string) *SelectStmt {
	t.Helper()
	st, err := ParseSQL(sql)
	if err != nil || st.Select == nil {
		t.Fatalf("%q: not a SELECT (%v)", sql, err)
	}
	return st.Select
}

func TestParityCorpus(t *testing.T)        { runParity(t, false) }
func TestParityCorpusIndexed(t *testing.T) { runParity(t, true) }

// TestParityCorpusParallel runs the whole corpus with morsel-parallel
// execution forced on (row threshold 1, 32-tuple morsels, so the 300-row po
// splits into ~10 morsels and a dop-4 pool gets real concurrency) at DOP 1
// and 4. Every statement must match the reference on the planned, streamed,
// wire and EXPLAIN ANALYZE paths, report no stream error, and charge exactly the
// serial planned run's op count — the parallel agg merge and the partitioned
// join build are the high-risk paths this pins down.
func TestParityCorpusParallel(t *testing.T) { runParityParallel(t, false) }

// TestParityCorpusParallelIndexed is TestParityCorpusParallel over the
// indexed engine: range drivers split into morsels of their candidates, and
// index joins whose workers probe the stored index.
func TestParityCorpusParallelIndexed(t *testing.T) { runParityParallel(t, true) }

func runParityParallel(t *testing.T, indexed bool) {
	for _, dop := range []int{1, 4} {
		t.Run(fmt.Sprintf("dop%d", dop), func(t *testing.T) {
			e := newParityEngine(t, indexed)
			e.SetParallelMinRows(1)
			e.SetMorselSize(32)
			wire := serveParity(t, e)
			for _, tc := range parityCorpus {
				t.Run(tc.sql, func(t *testing.T) {
					e.SetParallelism(1)
					_, serialOps, err := e.ExecuteSQL(tc.sql)
					if err != nil {
						t.Fatalf("serial planned: %v", err)
					}
					e.SetParallelism(dop)
					if parOps := checkParity(t, e, wire, tc); parOps != serialOps {
						t.Errorf("ops diverge: parallel %d, serial %d", parOps, serialOps)
					}
				})
			}
		})
	}
}

func assertSameResult(t *testing.T, label string, want, got *relation.Relation, ordered bool) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema = %s, want %s", label, got.Schema(), want.Schema())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: rows = %d, want %d", label, got.Len(), want.Len())
	}
	if !got.EqualAsBag(want) {
		t.Fatalf("%s: bag mismatch:\n got %v\nwant %v", label, got.Tuples(), want.Tuples())
	}
	if ordered {
		for i := range want.Tuples() {
			if !got.Tuple(i).Equal(want.Tuple(i)) {
				t.Fatalf("%s: order mismatch at row %d: got %v want %v", label, i, got.Tuple(i), want.Tuple(i))
			}
		}
	}
}

// assertSubsetOf checks a LIMIT-without-ORDER result: same schema and row
// count as the oracle's, and every tuple drawn (with multiplicity) from the
// full result.
func assertSubsetOf(t *testing.T, label string, got, full, want *relation.Relation) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema = %s, want %s", label, got.Schema(), want.Schema())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: rows = %d, want %d", label, got.Len(), want.Len())
	}
	avail := make(map[string]int, full.Len())
	for _, tu := range full.Tuples() {
		avail[tu.Key()]++
	}
	for _, tu := range got.Tuples() {
		k := tu.Key()
		if avail[k] == 0 {
			t.Fatalf("%s: tuple %v not in (or over-drawn from) the full result", label, tu)
		}
		avail[k]--
	}
}

// The parser must accept EXPLAIN only before SELECT.
func TestExplainParse(t *testing.T) {
	if _, err := ParseSQL("EXPLAIN SELECT * FROM t"); err != nil {
		t.Fatalf("EXPLAIN SELECT: %v", err)
	}
	if st, _ := ParseSQL("EXPLAIN SELECT * FROM t"); !st.Explain || st.Select == nil {
		t.Fatal("EXPLAIN flag not set")
	}
	if _, err := ParseSQL("EXPLAIN CREATE TABLE t (a INT)"); err == nil {
		t.Fatal("EXPLAIN CREATE accepted")
	}
}

// EXPLAIN output reflects the optimizer's choices: index access paths, key
// and range, hash joins with small build sides, index joins driven by a
// small side into a stored index, pushed-down predicates, TopN fusing.
func TestExplainShowsPlanChoices(t *testing.T) {
	e := newParityEngine(t, true)
	explain := func(sql string) string {
		t.Helper()
		r, _, err := e.ExecuteSQL("EXPLAIN " + sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var b strings.Builder
		for _, tu := range r.Tuples() {
			b.WriteString(tu[0].AsString())
			b.WriteByte('\n')
		}
		return b.String()
	}

	out := explain("SELECT id FROM po WHERE cust = 7")
	if !strings.Contains(out, "via index(cust)") {
		t.Fatalf("no index access path:\n%s", out)
	}
	out = explain("SELECT id FROM po WHERE cust >= 7 AND cust < 9")
	if !strings.Contains(out, "via index(cust) range") {
		t.Fatalf("no range access path:\n%s", out)
	}
	out = explain("SELECT po.id, cu.cname FROM po, cu WHERE po.grp = cu.tier AND cu.tier = 1")
	if !strings.Contains(out, "hash join") {
		t.Fatalf("no hash join:\n%s", out)
	}
	if !strings.Contains(out, "(build cu, probe streams)") {
		t.Fatalf("build side should be the small filtered cu:\n%s", out)
	}
	if !strings.Contains(out, "where [tier = 1]") {
		t.Fatalf("predicate not pushed into the cu scan:\n%s", out)
	}
	// The filtered cu drives one probe of po's index on cust a row, which
	// reads about 15 po rows; building either side would read all of po.
	out = explain("SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id AND cu.tier = 1")
	if !strings.Contains(out, "index join [po.cust = cu.id] (probe po via index(cust), outer streams)") {
		t.Fatalf("no index join into po:\n%s", out)
	}
	if !strings.Contains(out, "scan cu where [tier = 1]") {
		t.Fatalf("predicate not pushed into the cu scan:\n%s", out)
	}
	out = explain("SELECT id FROM po ORDER BY id LIMIT 7")
	if !strings.Contains(out, "topn") {
		t.Fatalf("LIMIT not fused into TopN:\n%s", out)
	}
	out = explain("SELECT po.id, cu.cname FROM po, cu WHERE po.grp = cu.tier")
	if !strings.Contains(out, "prune po to (id, grp)") {
		t.Fatalf("po not column-pruned:\n%s", out)
	}
}

// The plan cache: repeated statements hit, any catalog mutation invalidates,
// capacity is bounded with LRU eviction.
func TestPlanCache(t *testing.T) {
	e := newParityEngine(t, false)
	base := e.PlanCacheStats()
	const sql = "SELECT grp, COUNT(*) FROM po GROUP BY grp ORDER BY grp"
	for i := 0; i < 10; i++ {
		if _, _, err := e.ExecuteSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	st := e.PlanCacheStats()
	if misses := st.Misses - base.Misses; misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if hits := st.Hits - base.Hits; hits != 9 {
		t.Fatalf("hits = %d, want 9", hits)
	}

	// A data change to a table the plan reads, or any DDL, forces a replan.
	if err := e.Insert("po", []relation.Tuple{{relation.Int(300), relation.Int(1), relation.Int(2), relation.Float(9.5)}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ExecuteSQL(sql); err != nil {
		t.Fatal(err)
	}
	st2 := e.PlanCacheStats()
	if st2.Misses != st.Misses+1 {
		t.Fatalf("insert did not invalidate: misses %d -> %d", st.Misses, st2.Misses)
	}
	if err := e.CreateIndex("po", []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ExecuteSQL(sql); err != nil {
		t.Fatal(err)
	}
	if st3 := e.PlanCacheStats(); st3.Misses != st2.Misses+1 {
		t.Fatalf("create index did not invalidate: misses %d -> %d", st2.Misses, st3.Misses)
	}

	// Statements that differ only in a literal share one plan: one miss, then
	// hits.
	st3 := e.PlanCacheStats()
	for i := 0; i < planCacheCap+20; i++ {
		if _, _, err := e.ExecuteSQL(fmt.Sprintf("SELECT id FROM po WHERE id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st4 := e.PlanCacheStats()
	if misses, hits := st4.Misses-st3.Misses, st4.Hits-st3.Hits; misses != 1 || hits != planCacheCap+19 {
		t.Fatalf("%d bindings of one shape: %d misses, %d hits; want 1 and %d", planCacheCap+20, misses, hits, planCacheCap+19)
	}

	// LRU: the cache never exceeds its capacity. LIMIT's count is part of
	// the shape, so these are planCacheCap+20 shapes.
	for i := 0; i < planCacheCap+20; i++ {
		if _, _, err := e.ExecuteSQL(fmt.Sprintf("SELECT id FROM po LIMIT %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st5 := e.PlanCacheStats()
	if misses := st5.Misses - st4.Misses; misses != planCacheCap+20 {
		t.Fatalf("%d shapes: %d misses", planCacheCap+20, misses)
	}
	if st5.Entries > planCacheCap {
		t.Fatalf("cache entries = %d > cap %d", st5.Entries, planCacheCap)
	}
}

// TestPlanCacheSurvivesInsertElsewhere: a cached plan depends on the versions
// of the tables it reads and on the last DDL, nothing else. An insert into s
// leaves the plan over p cached; an insert into p drops it; CreateIndex on p
// drops it again, and the replan uses the rebuilt index.
func TestPlanCacheSurvivesInsertElsewhere(t *testing.T) {
	e := NewEngine()
	for _, sql := range []string{
		"CREATE TABLE s (sid INT, name TEXT)",
		"INSERT INTO s VALUES (1,'a'),(2,'b')",
		"CREATE TABLE p (pid INT, sid INT, w INT)",
		"INSERT INTO p VALUES (10,1,5),(11,2,6),(12,1,7),(13,2,8)",
	} {
		if _, _, err := e.ExecuteSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := e.CreateIndex("p", []int{1}); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT pid, w FROM p WHERE sid = 1"
	run := func() int {
		t.Helper()
		rel, _, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		return rel.Len()
	}
	hits := func() int64 { return e.PlanCacheStats().Hits }
	run()
	run()
	if h := hits(); h != 1 {
		t.Fatalf("repeat: hits = %d, want 1", h)
	}

	if err := e.Insert("s", []relation.Tuple{{relation.Int(3), relation.Str("c")}}); err != nil {
		t.Fatal(err)
	}
	run()
	if h := hits(); h != 2 {
		t.Fatalf("after an insert into s: hits = %d, want 2 (the plan over p must survive)", h)
	}

	if err := e.Insert("p", []relation.Tuple{{relation.Int(14), relation.Int(1), relation.Int(9)}}); err != nil {
		t.Fatal(err)
	}
	if n := run(); n != 3 {
		t.Fatalf("after an insert into p: %d rows, want 3", n)
	}
	if h := hits(); h != 2 {
		t.Fatalf("after an insert into p: hits = %d, want 2 (the plan over p must miss)", h)
	}

	if err := e.CreateIndex("p", []int{1}); err != nil {
		t.Fatal(err)
	}
	run()
	if h := hits(); h != 2 {
		t.Fatalf("after CreateIndex on p: hits = %d, want 2 (DDL must force a replan)", h)
	}
	rel, _, err := e.ExecuteSQL("EXPLAIN " + sql)
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, tu := range rel.Tuples() {
		plan.WriteString(tu[0].AsString() + "\n")
	}
	if !strings.Contains(plan.String(), "via index(sid)") {
		t.Fatalf("replan after CreateIndex does not use the index:\n%s", plan.String())
	}
}

// The cache key is a 64-bit hash of client-supplied statements: a statement
// of another shape that collides with a cached one must miss, not be served
// the other's plan, while one of the same shape with other literals is served
// it.
func TestPlanCacheKeyCollision(t *testing.T) {
	c := newPlanCache(4)
	const key = 42
	a := &Plan{epoch: 1, stmt: mustParseSelect(t, "SELECT a FROM t WHERE a = 1")}
	b := &Plan{epoch: 1, stmt: mustParseSelect(t, "SELECT b FROM t WHERE a = 1")}
	usable := func(*Plan) bool { return true }
	c.put(key, a)
	if got := c.get(key, mustParseSelect(t, "SELECT a FROM t WHERE a = 2"), usable); got != a {
		t.Fatalf("same shape, same key: got %p, want the cached plan", got)
	}
	if got := c.get(key, b.stmt, usable); got != nil {
		t.Fatal("a different shape under the same key was served the cached plan")
	}
	c.put(key, b) // the miss's put replaces the entry
	if c.get(key, b.stmt, usable) != b || c.get(key, a.stmt, usable) != nil || c.size() != 1 {
		t.Fatal("colliding put did not replace the entry")
	}
}

// Shapes that differ in any part but a literal's value — the literal's kind,
// LIMIT's count, an alias, a qualifier, an operator, a literal against a
// column, DISTINCT, the order of items — have different shape keys, and
// forced onto one key they never serve each other's plan.
func TestPlanCacheShapeKeyCollision(t *testing.T) {
	shapes := []string{
		"SELECT a FROM t WHERE a = 1",
		"SELECT a FROM t WHERE a = 1.5",
		"SELECT a FROM t WHERE a = '1'",
		"SELECT a FROM t WHERE a = NULL",
		"SELECT a FROM t WHERE a = TRUE",
		"SELECT a FROM t WHERE a = b",
		"SELECT a FROM t WHERE a < 1",
		"SELECT a FROM t WHERE t.a = 1",
		"SELECT a FROM t WHERE a = 1 LIMIT 3",
		"SELECT a FROM t WHERE a = 1 LIMIT 4",
		"SELECT a FROM t AS u WHERE a = 1",
		"SELECT DISTINCT a FROM t WHERE a = 1",
		"SELECT a, b FROM t WHERE a = 1",
		"SELECT b, a FROM t WHERE a = 1",
		"SELECT a FROM t WHERE a = 1 AND b = 1",
		"SELECT a FROM t WHERE a = 1 ORDER BY a",
		"SELECT a, COUNT(*) FROM t WHERE a = 1 GROUP BY a",
		"SELECT a, COUNT(a) FROM t WHERE a = 1 GROUP BY a",
		"SELECT ab FROM t WHERE a = 1",
		"SELECT a FROM tb WHERE a = 1",
	}
	keys := make(map[uint64]string)
	for _, sql := range shapes {
		k := mustParseSelect(t, sql).shapeKey()
		if prev, dup := keys[k]; dup {
			t.Fatalf("%q and %q share the shape key %x", prev, sql, k)
		}
		keys[k] = sql
	}
	usable := func(*Plan) bool { return true }
	for i, si := range shapes {
		c := newPlanCache(4)
		p := &Plan{stmt: mustParseSelect(t, si)}
		c.put(7, p)
		for j, sj := range shapes {
			got := c.get(7, mustParseSelect(t, sj), usable)
			if i == j && got != p {
				t.Fatalf("%q was not served its own plan", si)
			}
			if i != j && got != nil {
				t.Fatalf("%q was served the plan of %q", sj, si)
			}
		}
	}
}

// Ops accounting: the planner's single-table op counts match the reference's
// conventions exactly (the streaming suite already pins streamed to Execute;
// this pins planned to the reference).
func TestPlannedOpsMatchNaiveSingleTable(t *testing.T) {
	e := newParityEngine(t, false)
	for _, sql := range []string{
		"SELECT * FROM po",
		"SELECT id, amt FROM po WHERE grp = 3",
		"SELECT id FROM po ORDER BY id",
		"SELECT grp, COUNT(*) FROM po GROUP BY grp",
		"SELECT DISTINCT grp FROM po",
	} {
		_, refOps, err := e.referenceSelect(mustParseSelect(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		_, planOps, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if refOps != planOps {
			t.Errorf("%s: planned ops %d != reference ops %d", sql, planOps, refOps)
		}
	}
}

// Error parity: the planner reports the same resolution errors as the
// reference.
func TestPlannedErrorParity(t *testing.T) {
	e := newParityEngine(t, false)
	for _, sql := range []string{
		"SELECT nosuch FROM po",
		"SELECT po.nosuch FROM po",
		"SELECT x.id FROM po",
		"SELECT id FROM po, cu",                                  // ambiguous
		"SELECT id, * FROM po",                                   // star not alone
		"SELECT grp, COUNT(*) FROM po GROUP BY grp ORDER BY amt", // not in result
		"SELECT id FROM nosuch",
		// One column twice in the output: this used to panic the planner in
		// relation.NewSchema.
		"SELECT id, id FROM po",
		"SELECT po.id, cu.cname, po.id FROM po, cu WHERE po.cust = cu.id",
		"SELECT grp, COUNT(*) FROM po GROUP BY grp, po.grp",
	} {
		_, _, refErr := e.referenceSelect(mustParseSelect(t, sql))
		_, _, planErr := e.ExecuteSQL(sql)
		if refErr == nil || planErr == nil {
			t.Fatalf("%s: expected errors, reference=%v planned=%v", sql, refErr, planErr)
		}
		if refErr.Error() != planErr.Error() {
			t.Errorf("%s: error mismatch:\n reference %v\n planned   %v", sql, refErr, planErr)
		}
	}
	if _, _, err := e.ExecuteSQL("SELECT id, id FROM po"); err.Error() != "remotedb: duplicate output column id" {
		t.Errorf("duplicate output column: %v", err)
	}
}
