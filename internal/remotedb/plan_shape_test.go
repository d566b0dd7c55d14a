package remotedb

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/caql"
	"repro/internal/relation"
)

// Tests for plans by shape (plancache.go, optimizer.go): a statement that
// differs from a cached one only in its WHERE literals runs the cached plan
// with its own literals bound, which is safe by one invariant — the plan a
// binding runs is the plan that binding compiles on a fresh engine.

// shapeExtra are statements beside the corpora whose literals move the join
// order: a range or an equality that empties po makes it the build side.
var shapeExtra = []string{
	"SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id AND po.amt < 600.5",
	"SELECT po.id, cu.cname, re.rname FROM po, cu, re WHERE po.cust = cu.id AND cu.region = re.id AND po.grp = 2 AND re.rname = 'north'",
	"SELECT cu.cname, COUNT(*) FROM po, cu WHERE po.cust = cu.id AND cu.tier >= 1 AND po.amt > 250.5 GROUP BY cu.cname",
}

// withLiterals keeps the statements that have a WHERE literal.
func withLiterals(t testing.TB, stmts []string) []string {
	var out []string
	for _, sql := range stmts {
		for _, c := range mustParseSelect(t, sql).Where {
			if !c.RightIsCol {
				out = append(out, sql)
				break
			}
		}
	}
	return out
}

// rebind is sel with its w-th WHERE conjunct's literal replaced by v.
func rebind(sel *SelectStmt, w int, v relation.Value) *SelectStmt {
	c := *sel
	c.Where = append([]SQLCond(nil), sel.Where...)
	c.Where[w].RightVal = v
	return &c
}

// bindings are sel and, for each of its WHERE literals, sel with that literal
// bound inside its column's range, at the column's min and max, and outside
// them (where an equality's selectivity is 0), each of the literal's kind.
func bindings(t *testing.T, e *Engine, sel *SelectStmt) []*SelectStmt {
	t.Helper()
	e.mu.RLock()
	scope, err := e.analyzeSelect(sel)
	e.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	out := []*SelectStmt{sel}
	for w, c := range sel.Where {
		if c.RightIsCol {
			continue
		}
		p, col, err := scope.resolve(c.Left)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.ColStats(scope.tables[p].Name)
		if err != nil {
			t.Fatal(err)
		}
		st := stats[col]
		if !st.HasMinMax {
			continue
		}
		var vs []relation.Value
		switch c.RightVal.Kind() {
		case relation.KindInt:
			lo, hi := int64(math.Floor(st.Min.AsFloat())), int64(math.Ceil(st.Max.AsFloat()))
			vs = []relation.Value{relation.Int(lo), relation.Int(hi), relation.Int((lo + hi) / 2), relation.Int(lo + 1), relation.Int(lo - 7), relation.Int(hi + 7)}
		case relation.KindFloat:
			lo, hi := st.Min.AsFloat(), st.Max.AsFloat()
			vs = []relation.Value{relation.Float(lo), relation.Float(hi), relation.Float((lo + hi) / 2), relation.Float(lo + (hi-lo)/10), relation.Float(lo - 7.5), relation.Float(hi + 7.5)}
		case relation.KindString:
			vs = []relation.Value{st.Min, st.Max, relation.Str(""), relation.Str("~")}
		}
		for _, v := range vs {
			out = append(out, rebind(sel, w, v))
		}
	}
	return out
}

// shapeRun is what one execution of a binding shows.
type shapeRun struct {
	rows *relation.Relation
	ops  int64
	dop  int
	hit  bool
	// tree is the plan the run executed, rendered with the binding's literals
	// and without estimates, which are those of the statement that compiled
	// it; explain is what EXPLAIN reports for the binding.
	tree, explain []string
}

func runBinding(t *testing.T, e *Engine, sel *SelectStmt) shapeRun {
	t.Helper()
	ps, err := e.openPlan(context.Background(), sel, false, false)
	if err != nil {
		t.Fatalf("%s: %v", sel, err)
	}
	defer ps.Close()
	rows := relation.Drain("result", ps.Schema(), ps)
	if err := ps.Err(); err != nil {
		t.Fatalf("%s: %v", sel, err)
	}
	tree := Plan{root: ps.plan.root, scans: ps.plan.scans, stmt: sel}
	rel, _, err := e.explainSelect(sel)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sel, err)
	}
	var explain []string
	for _, tu := range rel.Tuples() {
		explain = append(explain, tu[0].AsString())
	}
	return shapeRun{rows: rows, ops: ps.Ops(), dop: ps.DOP(), hit: ps.cached, tree: tree.Explain(), explain: explain}
}

// checkSameRun holds a run on a warmed engine to the same binding's run on a
// fresh one.
func checkSameRun(t *testing.T, sel *SelectStmt, warm, fresh shapeRun) {
	t.Helper()
	label := sel.String()
	assertSameResult(t, label, fresh.rows, warm.rows, false)
	if warm.ops != fresh.ops || warm.dop != fresh.dop {
		t.Fatalf("%s: warm ops %d dop %d, fresh ops %d dop %d", label, warm.ops, warm.dop, fresh.ops, fresh.dop)
	}
	if w, f := strings.Join(warm.tree, "\n"), strings.Join(fresh.tree, "\n"); w != f {
		t.Fatalf("%s: the warm engine ran\n%s\na fresh engine compiles\n%s", label, w, f)
	}
	if w, f := strings.Join(warm.explain, "\n"), strings.Join(fresh.explain, "\n"); w != f {
		t.Fatalf("%s: EXPLAIN on the warm engine\n%s\non a fresh one\n%s", label, w, f)
	}
}

// TestPlanByShapeMatchesFreshCompile: every parity- and parallel-corpus
// statement with a WHERE literal, re-bound in range, at min/max and outside
// them, runs on an engine warmed by another binding of its shape exactly as
// on a fresh engine: the same rows, ops, DOP, plan tree and EXPLAIN. Some
// bindings must hit the warm plan and some must flip its join order, or the
// test would not reach both paths.
func TestPlanByShapeMatchesFreshCompile(t *testing.T) {
	var parity []string
	for _, tc := range parityCorpus {
		parity = append(parity, tc.sql)
	}
	parity = withLiterals(t, append(parity, shapeExtra...))
	parallel := withLiterals(t, parallelCorpus)
	hits, flips := 0, 0
	for _, cfg := range []struct {
		name  string
		stmts []string
		load  func() *Engine
		dop   int
	}{
		{"parity", parity, func() *Engine { return newParityEngine(t, false) }, 1},
		{"parity indexed", parity, func() *Engine { return newParityEngine(t, true) }, 1},
		{"parity dop4", parity, func() *Engine { return newParityEngine(t, false) }, 4},
		{"parallel dop4", parallel, func() *Engine { return newParallelEngine(t, 1000) }, 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			warm, fresh := cfg.load(), cfg.load()
			for _, e := range []*Engine{warm, fresh} {
				e.SetParallelism(cfg.dop)
				e.SetParallelMinRows(1)
				e.SetMorselSize(32)
			}
			for _, sql := range cfg.stmts {
				bs := bindings(t, warm, mustParseSelect(t, sql))
				for i, sel := range bs {
					runBinding(t, warm, bs[(i+1)%len(bs)])
					w := runBinding(t, warm, sel)
					fresh.plans = newPlanCache(planCacheCap)
					checkSameRun(t, sel, w, runBinding(t, fresh, sel))
					if w.hit {
						hits++
					} else if len(bs) > 1 {
						flips++
					}
				}
			}
		})
	}
	if hits == 0 || flips == 0 {
		t.Fatalf("%d warm hits and %d join-order flips: both paths must run", hits, flips)
	}
}

// FuzzPlanByShape: a statement with a WHERE literal, warmed with one binding
// of that literal and run with another, at either dop and with or without
// indexes, runs as it would on a fresh engine. Indexed, a range's bounds
// move its scan between the range path and the full scan, and an index
// join's filters move it to a hash join.
func FuzzPlanByShape(f *testing.F) {
	var all []string
	for _, tc := range parityCorpus {
		all = append(all, tc.sql)
	}
	shapes := func(t testing.TB) []string {
		return withLiterals(t, append(append([]string(nil), all...), shapeExtra...))
	}
	for _, seed := range []struct {
		stmt, lit uint8
		a, b      int16
		indexed   bool
		dop       uint8
	}{
		{0, 0, 3, 9, false, 0},
		{1, 1, 4000, 2, false, 0},  // a range bound past max, then inside
		{4, 0, 7, -3, true, 0},     // an index key below min
		{5, 0, 3, 3000, false, 1},  // a join side emptied: the order flips
		{8, 0, -40, 4800, true, 1}, // a range that flips the join order
		{9, 1, 1, 2, false, 1},     // a string literal
		{10, 1, 0, 5, true, 0},     // three conjuncts, two of them literals
	} {
		f.Add(seed.stmt, seed.lit, seed.a, seed.b, seed.indexed, seed.dop)
	}
	stmts := shapes(f)
	for _, seed := range []struct {
		sql  string
		lit  uint8
		a, b int16
		dop  uint8
	}{
		{"SELECT id, amt FROM po WHERE cust >= 3 AND cust < 6", 1, 4, 40, 0},                                      // a range narrowed, then widened to most of po
		{"SELECT id FROM po WHERE cust > 17", 0, -5, 12, 1},                                                       // a range from below min to inside
		{"SELECT cname, tier FROM cu WHERE id > 12 AND id <= 16", 0, 16, 2, 0},                                    // an empty range, then a wide one
		{"SELECT cu.cname, po.id, po.amt FROM cu, po WHERE cu.id = po.cust AND cu.region = 2", 0, 9, 1, 1},        // an index join driven by no rows, then by five
		{"SELECT po.id, cu.cname FROM po, cu WHERE po.cust = cu.id AND po.id < 12 AND cu.tier = 2", 0, 400, 3, 0}, // a filter that moves the join
	} {
		if i := slices.Index(stmts, seed.sql); i >= 0 {
			f.Add(uint8(i), seed.lit, seed.a, seed.b, true, seed.dop)
		}
	}
	f.Fuzz(func(t *testing.T, stmt, lit uint8, a, b int16, indexed bool, dopIn uint8) {
		stmts := shapes(t)
		sel := mustParseSelect(t, stmts[int(stmt)%len(stmts)])
		var lits []int
		for w, c := range sel.Where {
			if !c.RightIsCol {
				lits = append(lits, w)
			}
		}
		w := lits[int(lit)%len(lits)]
		value := func(x int16) relation.Value {
			switch sel.Where[w].RightVal.Kind() {
			case relation.KindFloat:
				return relation.Float(float64(x) / 8)
			case relation.KindString:
				return relation.Str([]string{"north", "south", "c07", "", "~", "c19"}[int(uint16(x))%6])
			case relation.KindBool:
				return relation.Bool(x&1 == 1)
			}
			return relation.Int(int64(x))
		}
		warm, fresh := newParityEngine(t, indexed), newParityEngine(t, indexed)
		for _, e := range []*Engine{warm, fresh} {
			e.SetParallelism(1 + 3*int(dopIn%2))
			e.SetParallelMinRows(1)
			e.SetMorselSize(32)
		}
		first, second := rebind(sel, w, value(a)), rebind(sel, w, value(b))
		runBinding(t, warm, first)
		checkSameRun(t, second, runBinding(t, warm, second), runBinding(t, fresh, second))
	})
}

// newSuppliersEngine loads the shipment and part tables of the suppliers
// workload, indexed as its benchmark indexes them: shipment on sid, part on
// pid.
func newSuppliersEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	part := relation.New("part", relation.NewSchema(
		relation.Attr{Name: "pid", Kind: relation.KindInt},
		relation.Attr{Name: "color", Kind: relation.KindString},
		relation.Attr{Name: "weight", Kind: relation.KindFloat}))
	shipment := relation.New("shipment", relation.NewSchema(
		relation.Attr{Name: "sid", Kind: relation.KindInt},
		relation.Attr{Name: "pid", Kind: relation.KindInt},
		relation.Attr{Name: "qty", Kind: relation.KindInt}))
	for p := 0; p < 120; p++ {
		part.MustAppend(relation.Tuple{relation.Int(int64(p)), relation.Str([]string{"red", "green", "blue"}[p%3]), relation.Float(float64(p%97) + 0.5)})
	}
	for s := 0; s < 60; s++ {
		for k := 0; k < 1+s%20; k++ {
			shipment.MustAppend(relation.Tuple{relation.Int(int64(s)), relation.Int(int64((s*7 + k*13) % 120)), relation.Int(int64(100 + (s*31+k*17)%400))})
		}
	}
	e.LoadTable(part)
	e.LoadTable(shipment)
	for _, ix := range []struct {
		table string
		cols  []int
	}{{"shipment", []int{0}}, {"part", []int{0}}} {
		if err := e.CreateIndex(ix.table, ix.cols); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// hitShapes are the statement shapes of the suppliers workload's cache
// misses — a point query on shipment, one on part, the range query and the
// shipment ⋈ part join — as CAQL with the one constant that varies left as %d.
var hitShapes = []string{
	"q(P, Q) :- shipment(%d, P, Q)",
	"q(C, W) :- part(%d, C, W)",
	"q(S, P, Q) :- shipment(S, P, Q) & S >= %d & S < 14 & Q >= 300",
	"q(P, Q, C, W) :- shipment(%d, P, Q) & part(P, C, W)",
}

// translateShape is the SQL the CMS sends for shape with k as its constant.
func translateShape(t *testing.T, e *Engine, shape string, k int) string {
	t.Helper()
	q, err := caql.Parse(fmt.Sprintf(shape, k))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TranslateCAQL(q, NewInProcClient(e, DefaultCosts()))
	if err != nil {
		t.Fatal(err)
	}
	return tr.SQL
}

// TestPlanHitAllocs: for each of hitShapes, translated from CAQL as the CMS
// translates them, a statement whose shape is cached finds its plan and
// binds its literals in at most three allocations (the parse excluded).
func TestPlanHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	e := newSuppliersEngine(t)
	for _, shape := range hitShapes {
		if _, _, err := e.ExecuteSQL(translateShape(t, e, shape, 7)); err != nil {
			t.Fatal(err)
		}
		sel := mustParseSelect(t, translateShape(t, e, shape, 11))
		hit := true
		allocs := testing.AllocsPerRun(100, func() {
			e.mu.RLock()
			p, h, err := e.planForLocked(context.Background(), sel)
			if err == nil {
				run := p.getRun()
				run.bind(e, sel.Where)
				p.putRun(run)
			}
			e.mu.RUnlock()
			hit = hit && h && err == nil
		})
		if !hit {
			t.Fatalf("%s: not a plan-cache hit", sel)
		}
		if allocs > 3 {
			t.Fatalf("%s: a hit finds and binds its plan in %.0f allocations, want at most 3", sel, allocs)
		}
		t.Logf("%.0f allocations: %s", allocs, sel)
	}
}
