package remotedb

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec := func(sql string) {
		t.Helper()
		if _, _, err := e.ExecuteSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE emp (id INT, name TEXT, dept INT, salary FLOAT)")
	mustExec("CREATE TABLE dept (id INT, dname TEXT)")
	mustExec("INSERT INTO emp VALUES (1,'alice',10,100.0),(2,'bob',10,80.0),(3,'carol',20,120.0),(4,'dave',30,60.0)")
	mustExec("INSERT INTO dept VALUES (10,'eng'),(20,'ops'),(30,'hr')")
	return e
}

func TestEngineSelectProjectWhere(t *testing.T) {
	e := newTestEngine(t)
	r, _, err := e.ExecuteSQL("SELECT name FROM emp WHERE dept = 10")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("rows = %d, want 2", r.Len())
	}
}

func TestEngineJoin(t *testing.T) {
	e := newTestEngine(t)
	r, _, err := e.ExecuteSQL("SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id AND d.dname = 'eng'")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("join rows = %d, want 2: %v", r.Len(), r)
	}
	for _, tu := range r.Tuples() {
		if tu[1].AsString() != "eng" {
			t.Fatalf("bad join row %v", tu)
		}
	}
}

func TestEngineThetaJoin(t *testing.T) {
	e := newTestEngine(t)
	r, _, err := e.ExecuteSQL("SELECT e.id, f.id FROM emp e, emp f WHERE e.salary > f.salary AND e.dept = f.dept")
	if err != nil {
		t.Fatal(err)
	}
	// Within dept 10: alice(100) > bob(80). Only one pair.
	if r.Len() != 1 || r.Tuple(0)[0].AsInt() != 1 || r.Tuple(0)[1].AsInt() != 2 {
		t.Fatalf("theta join wrong: %v", r)
	}
}

func TestEngineCrossProduct(t *testing.T) {
	e := newTestEngine(t)
	r, _, err := e.ExecuteSQL("SELECT e.id, d.id FROM emp e, dept d")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 12 {
		t.Fatalf("cross rows = %d, want 12", r.Len())
	}
}

func TestEngineAggregates(t *testing.T) {
	e := newTestEngine(t)
	r, _, err := e.ExecuteSQL("SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept ORDER BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("groups = %d", r.Len())
	}
	first := r.Tuple(0)
	if first[0].AsInt() != 10 || first[1].AsInt() != 2 || first[2].AsFloat() != 90 {
		t.Fatalf("group row wrong: %v", first)
	}
	// Global aggregate.
	g, _, err := e.ExecuteSQL("SELECT COUNT(*), MAX(salary) FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.Tuple(0)[0].AsInt() != 4 || g.Tuple(0)[1].AsFloat() != 120 {
		t.Fatalf("global agg wrong: %v", g)
	}
}

func TestEngineDistinctOrderLimit(t *testing.T) {
	e := newTestEngine(t)
	r, _, err := e.ExecuteSQL("SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Tuple(0)[0].AsInt() != 10 || r.Tuple(1)[0].AsInt() != 20 {
		t.Fatalf("distinct/order/limit wrong: %v", r)
	}
}

func TestEngineStar(t *testing.T) {
	e := newTestEngine(t)
	r, _, err := e.ExecuteSQL("SELECT * FROM dept ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.Schema().Arity() != 2 {
		t.Fatalf("star wrong: %v", r)
	}
}

func TestEngineErrors(t *testing.T) {
	e := newTestEngine(t)
	for _, sql := range []string{
		"SELECT * FROM nosuch",
		"SELECT nosuchcol FROM emp",
		"SELECT id FROM emp, dept",           // ambiguous
		"SELECT e.nosuch FROM emp e",         //
		"SELECT * FROM emp e, emp e",         // duplicate alias
		"INSERT INTO emp VALUES (1,2)",       // arity
		"INSERT INTO emp VALUES ('x',1,2,3)", // kind
		"CREATE TABLE emp (x INT)",           // duplicate table
		"SELECT x.y FROM emp e WHERE x.y = 1",
	} {
		if _, _, err := e.ExecuteSQL(sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func TestEngineIndexUse(t *testing.T) {
	e := NewEngine()
	if _, _, err := e.ExecuteSQL("CREATE TABLE big (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]relation.Tuple, 0, 1000)
	for i := 0; i < 1000; i++ {
		rows = append(rows, relation.Tuple{relation.Int(int64(i % 100)), relation.Int(int64(i))})
	}
	if err := e.Insert("big", rows); err != nil {
		t.Fatal(err)
	}
	_, opsScan, err := e.ExecuteSQL("SELECT v FROM big WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("big", []int{0}); err != nil {
		t.Fatal(err)
	}
	r, opsIdx, err := e.ExecuteSQL("SELECT v FROM big WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 10 {
		t.Fatalf("indexed rows = %d, want 10", r.Len())
	}
	if opsIdx >= opsScan {
		t.Fatalf("index should reduce ops: scan=%d idx=%d", opsScan, opsIdx)
	}
	// The index survives an insert, which it answers from its tail.
	if err := e.Insert("big", []relation.Tuple{{relation.Int(7), relation.Int(9999)}}); err != nil {
		t.Fatal(err)
	}
	r2, _, err := e.ExecuteSQL("SELECT v FROM big WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 11 {
		t.Fatalf("post-insert rows = %d, want 11", r2.Len())
	}
}

func TestEngineStats(t *testing.T) {
	e := newTestEngine(t)
	st, err := e.Stats("emp")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 4 || st.Distinct[2] != 3 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if _, err := e.Stats("nosuch"); err == nil {
		t.Error("stats of unknown table should error")
	}
}

func TestInProcClientCostAccounting(t *testing.T) {
	e := newTestEngine(t)
	costs := DefaultCosts()
	c := NewInProcClient(e, costs)
	res, err := c.Exec("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 4 {
		t.Fatalf("rows = %d", res.Rel.Len())
	}
	st := c.Stats()
	if st.Requests != 1 || st.TuplesReturned != 4 {
		t.Fatalf("stats = %+v", st)
	}
	wantSim := costs.RequestCost(4, st.ServerOps)
	if st.SimMS != wantSim || res.SimMS != wantSim {
		t.Fatalf("sim time = %v, want %v", st.SimMS, wantSim)
	}
	if _, err := c.RelationSchema("emp", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RelationSchema("emp", 2); err == nil {
		t.Error("arity mismatch should error")
	}
	tables, err := c.Tables()
	if err != nil || len(tables) != 2 {
		t.Fatalf("tables = %v, %v", tables, err)
	}
}

// Differential test: the engine's SQL execution against caql.Eval on random
// conjunctive queries routed through TranslateCAQL.
func TestEngineAgainstCAQLEval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		e := NewEngine()
		src := caql.MapSource{}
		for _, name := range []string{"r", "s"} {
			rel := relation.New(name, relation.NewSchema(
				relation.Attr{Name: "a", Kind: relation.KindInt},
				relation.Attr{Name: "b", Kind: relation.KindInt}))
			for i := 0; i < 2+rng.Intn(12); i++ {
				rel.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(4))), relation.Int(int64(rng.Intn(4)))})
			}
			e.LoadTable(rel)
			src[name] = rel
		}
		varsPool := []string{"X", "Y", "Z"}
		term := func() logic.Term {
			if rng.Intn(4) == 0 {
				return logic.CInt(int64(rng.Intn(4)))
			}
			return logic.V(varsPool[rng.Intn(len(varsPool))])
		}
		var body []logic.Atom
		for i := 0; i < 1+rng.Intn(3); i++ {
			name := "r"
			if rng.Intn(2) == 0 {
				name = "s"
			}
			body = append(body, logic.A(name, term(), term()))
		}
		// Optional comparison.
		varSet := logic.VarsOf(body)
		var varList []string
		for _, v := range varsPool {
			if varSet[v] {
				varList = append(varList, v)
			}
		}
		if len(varList) == 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			ops := []relation.CmpOp{relation.OpLt, relation.OpLe, relation.OpNe, relation.OpGe}
			v := logic.V(varList[rng.Intn(len(varList))])
			body = append(body, logic.A(ops[rng.Intn(len(ops))].String(), v, logic.CInt(int64(rng.Intn(4)))))
		}
		var head []logic.Term
		for _, v := range varList {
			head = append(head, logic.V(v))
		}
		if rng.Intn(3) == 0 {
			head = append(head, logic.CInt(7)) // constant head position
		}
		q := caql.NewQuery(logic.A("q", head...), body)
		if q.Validate() != nil {
			continue
		}

		want, err := caql.Eval(q, src)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := TranslateCAQL(q, src)
		if err != nil {
			t.Fatalf("translate %s: %v", q, err)
		}
		sqlRes, _, err := e.ExecuteSQL(tr.SQL)
		if err != nil {
			t.Fatalf("execute %q: %v", tr.SQL, err)
		}
		got := reassemble(t, tr, "q", want.Schema(), sqlRes)
		if !got.EqualAsBag(want) {
			t.Fatalf("trial %d: SQL path disagrees with CAQL eval\nquery: %s\nsql: %s\ngot: %v\nwant: %v",
				trial, q, tr.SQL, got, want)
		}
	}
}

// reassemble rebuilds a CAQL extension from a SQL result row by row, as the
// CMS's fetch stream does.
func reassemble(t *testing.T, tr *Translation, name string, schema *relation.Schema, rows *relation.Relation) *relation.Relation {
	t.Helper()
	out := relation.New(name, schema)
	for _, row := range rows.Tuples() {
		tu, err := tr.ReassembleTuple(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestTranslateConstOnlyHead(t *testing.T) {
	e := newTestEngine(t)
	src := caql.MapSource{}
	for _, n := range []string{"emp", "dept"} {
		sch, _ := e.Schema(n)
		src[n] = relation.New(n, sch)
	}
	q := caql.MustParse("d(1) :- dept(X, Y)")
	tr, err := TranslateCAQL(q, src)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.ExecuteSQL(tr.SQL)
	if err != nil {
		t.Fatal(err)
	}
	out := reassemble(t, tr, "d", relation.NewSchema(relation.Attr{Name: "c0", Kind: relation.KindInt}), res)
	if out.Len() != 3 {
		t.Fatalf("const head rows = %d, want 3", out.Len())
	}
	for _, tu := range out.Tuples() {
		if tu[0].AsInt() != 1 {
			t.Fatalf("const head value wrong: %v", tu)
		}
	}
}

func TestTranslateStaticallyFalse(t *testing.T) {
	e := newTestEngine(t)
	src := caql.MapSource{}
	sch, _ := e.Schema("dept")
	src["dept"] = relation.New("dept", sch)
	q := caql.MustParse("d(X) :- dept(X, Y) & 1 > 2")
	tr, err := TranslateCAQL(q, src)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.ExecuteSQL(tr.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("statically false query returned %d rows", res.Len())
	}
}

// TestFloatConstantsOverTheWire: a float constant of a CAQL query reaches the
// server as a literal that parses back to the same float, whatever its
// magnitude — 0.00001 prints as 1e-05 and 1e21 as 1e+21 — and 50.0 stays a
// float rather than coming back as the int 50. Each query's answer over the
// wire equals caql.Eval's. NaN and ±Inf have no SQL literal and are refused
// at translation, as the semantic error they are.
func TestFloatConstantsOverTheWire(t *testing.T) {
	m := relation.New("m", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindInt},
		relation.Attr{Name: "w", Kind: relation.KindFloat}))
	for i, w := range []float64{-1e-05, 0.000005, 0.00001, 0.00002, 50, 50.5, 1e21, 2e21} {
		m.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Float(w)})
	}
	e := NewEngine()
	e.LoadTable(m)
	src := caql.MapSource{"m": m}
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{Size: 1})

	x, w := logic.V("X"), logic.V("W")
	head := logic.A("q", x, w)
	cmp := func(op relation.CmpOp, f float64) []logic.Atom {
		return []logic.Atom{logic.A("m", x, w), logic.A(op.String(), w, logic.C(relation.Float(f)))}
	}
	queries := map[string]*caql.Query{
		"W >= 0.00001": caql.NewQuery(head, cmp(relation.OpGe, 0.00001)),
		"W < 1e21":     caql.NewQuery(head, cmp(relation.OpLt, 1e21)),
		"W = 1e21":     caql.NewQuery(head, cmp(relation.OpEq, 1e21)),
		"W > -1e-05":   caql.NewQuery(head, cmp(relation.OpGt, -1e-05)),
		"m(X, 50.0)":   caql.NewQuery(logic.A("q", x), []logic.Atom{logic.A("m", x, logic.C(relation.Float(50)))}),
		"0.00002 > W":  caql.NewQuery(head, []logic.Atom{logic.A("m", x, w), logic.A(relation.OpGt.String(), logic.C(relation.Float(0.00002)), w)}),
	}
	for name, q := range queries {
		want, err := caql.Eval(q, src)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := TranslateCAQL(q, src)
		if err != nil {
			t.Fatalf("%s: translate: %v", name, err)
		}
		res, err := p.Exec(tr.SQL)
		if err != nil {
			t.Fatalf("%s: %q over the wire: %v", name, tr.SQL, err)
		}
		if got := reassemble(t, tr, "q", want.Schema(), res.Rel); !got.EqualAsBag(want) || want.Len() == 0 {
			t.Fatalf("%s: %q answered %v, caql.Eval %v", name, tr.SQL, got, want)
		}
	}
	st, err := ParseSQL("SELECT x FROM m WHERE w = " + sqlLiteral(relation.Float(50)))
	if err != nil || st.Select.Where[0].RightVal.Kind() != relation.KindFloat {
		t.Fatalf("50.0 reads back as %v, %v; want a float", st.Select.Where[0].RightVal, err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := TranslateCAQL(caql.NewQuery(head, cmp(relation.OpLt, f)), src)
		if err == nil || IsTransient(err) {
			t.Fatalf("a %v constant translated (err %v); want a semantic error", f, err)
		}
	}
}

// TestInsertRowsOwnTheirBytes: a parsed string literal without a doubled
// quote is a substring of the statement, but the rows Insert stores are not:
// their strings share one blob of the batch's own.
func TestInsertRowsOwnTheirBytes(t *testing.T) {
	within := func(s, in string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(in)))
		return p >= lo && p < lo+uintptr(len(in))
	}
	e := NewEngine()
	if _, _, err := e.ExecuteSQL("CREATE TABLE t (k INT, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	src := "INSERT INTO t VALUES (1, 'alpha'), (2, 'it''s'), (3, 'gamma')"
	st, err := ParseSQL(src)
	if err != nil {
		t.Fatal(err)
	}
	rows := st.Insert.Rows
	if !within(rows[0][1].AsString(), src) || within(rows[1][1].AsString(), src) || rows[1][1].AsString() != "it's" {
		t.Fatalf("parsed literals %v: want the plain one a substring of the statement, the doubled-quote one unescaped", rows)
	}
	if err := e.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	stored := e.tables["t"].Tuples()
	blob := unsafe.String(unsafe.StringData(stored[0][1].AsString()), len("alpha")+len("it's")+len("gamma"))
	for _, row := range stored {
		if s := row[1].AsString(); within(s, src) || !within(s, blob) {
			t.Fatalf("stored %q is not in the batch's one blob", s)
		}
	}
}
