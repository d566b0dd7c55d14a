package remotedb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestParseCreate(t *testing.T) {
	st, err := ParseSQL("CREATE TABLE emp (id INT, name VARCHAR(20), salary FLOAT, active BOOL)")
	if err != nil {
		t.Fatal(err)
	}
	c := st.Create
	if c == nil || c.Table != "emp" || c.Schema.Arity() != 4 {
		t.Fatalf("create parse wrong: %+v", st)
	}
	if c.Schema.Attr(0).Kind != relation.KindInt ||
		c.Schema.Attr(1).Kind != relation.KindString ||
		c.Schema.Attr(2).Kind != relation.KindFloat ||
		c.Schema.Attr(3).Kind != relation.KindBool {
		t.Fatalf("kinds wrong: %v", c.Schema)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := ParseSQL("INSERT INTO emp VALUES (1, 'alice', 10.5, TRUE), (2, 'bo''b', 9.0, FALSE)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.Insert
	if ins == nil || len(ins.Rows) != 2 {
		t.Fatalf("insert parse wrong: %+v", st)
	}
	if ins.Rows[1][1].AsString() != "bo'b" {
		t.Fatalf("escaped quote wrong: %v", ins.Rows[1][1])
	}
}

func TestParseSelectFull(t *testing.T) {
	src := "SELECT DISTINCT a.x, b.y FROM emp AS a, dept b WHERE a.id = b.id AND a.x > 3 AND b.name = 'eng' ORDER BY x LIMIT 10"
	st, err := ParseSQL(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.Select
	if sel == nil || !sel.Distinct || len(sel.Items) != 2 || len(sel.From) != 2 || len(sel.Where) != 3 {
		t.Fatalf("select parse wrong: %+v", sel)
	}
	if sel.From[1].Alias != "b" || sel.From[1].Table != "dept" {
		t.Fatalf("implicit alias wrong: %+v", sel.From[1])
	}
	if sel.Limit != 10 || len(sel.OrderBy) != 1 {
		t.Fatalf("order/limit wrong: %+v", sel)
	}
	// Round trip through String.
	st2, err := ParseSQL(sel.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sel.String(), err)
	}
	if st2.Select.String() != sel.String() {
		t.Errorf("string round trip: %q vs %q", sel.String(), st2.Select.String())
	}
}

func TestParseSelectAggregates(t *testing.T) {
	st, err := ParseSQL("SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.Select
	if len(sel.Items) != 3 || sel.Items[0].IsAgg || !sel.Items[1].IsAgg || !sel.Items[1].AggStar || sel.Items[2].Agg != relation.AggSum {
		t.Fatalf("aggregate parse wrong: %+v", sel.Items)
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Column != "dept" {
		t.Fatalf("group by wrong: %+v", sel.GroupBy)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE x",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x ==",
		"CREATE TABLE t (x BLOB)",
		"INSERT INTO t VALUES (1,)",
		"SELECT * FROM t LIMIT -1",
		"SELECT SUM(*) FROM t",
		"SELECT * FROM t WHERE x = 'unterminated",
	}
	for _, src := range bad {
		if _, err := ParseSQL(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestSQLCondString(t *testing.T) {
	c := SQLCond{Left: ColRef{Qualifier: "a", Column: "x"}, Op: relation.OpNe, RightVal: relation.Str("o'k")}
	if got := c.String(); got != "a.x <> 'o''k'" {
		t.Errorf("cond string = %q", got)
	}
	if !strings.Contains((&SelectStmt{Items: []SelectItem{{Star: true}}, From: []TableRef{{Table: "t", Alias: "t"}}, Limit: -1}).String(), "SELECT * FROM t") {
		t.Error("select star string wrong")
	}
}

// TestParseSignedExponents: a number may carry a signed exponent, which is
// how Go prints small and large floats; a sign elsewhere is not part of it.
func TestParseSignedExponents(t *testing.T) {
	for src, want := range map[string]float64{"1e-05": 1e-05, "1e+21": 1e21, "-2.5E-3": -2.5e-3, "3e2": 300} {
		st, err := ParseSQL("SELECT x FROM t WHERE x > " + src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if v := st.Select.Where[0].RightVal; v.Kind() != relation.KindFloat || v.AsFloat() != want {
			t.Fatalf("%s parsed as %v, want the float %v", src, v, want)
		}
	}
	if _, err := ParseSQL("SELECT x FROM t WHERE x > 1+2"); err == nil {
		t.Fatal("a sign outside an exponent was taken into the number")
	}
}

// FuzzParseSQL: any text parses to an error, or to a SELECT whose String()
// parses back to the same String() and the same plan-cache shape, or to an
// INSERT whose rows, rendered as
// literals and parsed again, are the same values of the same kinds — floats
// to the bit. Never a panic.
func FuzzParseSQL(f *testing.F) {
	var rows strings.Builder
	rows.WriteString("INSERT INTO shipment_log VALUES ")
	for r := 0; r < 25; r++ {
		if r > 0 {
			rows.WriteByte(',')
		}
		fmt.Fprintf(&rows, "(%d,%d,%d,'n%06d')", r*37%50, r*11%100, r%500, r*7919)
	}
	for _, seed := range []string{
		rows.String(),
		"INSERT INTO t VALUES (1, 'bo''b', 9.0, FALSE, NULL), (-2, '''', 1e-05, TRUE, 'x')",
		"INSERT INTO t VALUES (0.00001, 1e+21, -0.0, 50.0, 99999999999999999999)",
		"SELECT t0.a, t1.w FROM m AS t0, n AS t1 WHERE t0.w >= 1e-05 AND t1.w < 1e+21 AND t0.w = 50.0",
		"SELECT DISTINCT a.x, COUNT(*), sum(y) FROM emp a WHERE a.x <> 'it''s' GROUP BY a.x ORDER BY x LIMIT 10",
		"EXPLAIN ANALYZE SELECT * FROM t WHERE x != -3 AND y = TRUE AND z = null",
		"CREATE TABLE t (a INT, b VARCHAR(20))",
		"SELECT * FROM t WHERE x = 'unterminated",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := ParseSQL(src)
		if err != nil {
			return
		}
		switch {
		case st.Select != nil:
			text := st.Select.String()
			again, err := ParseSQL(text)
			if err != nil || again.Select == nil {
				t.Fatalf("%q printed as %q, which does not parse back: %v", src, text, err)
			}
			if got := again.Select.String(); got != text {
				t.Fatalf("%q printed as %q, which prints back as %q", src, text, got)
			}
			if again.Select.shapeKey() != st.Select.shapeKey() || !sameShape(again.Select, st.Select) {
				t.Fatalf("%q printed as %q, which parses to another shape", src, text)
			}
		case st.Insert != nil:
			var b strings.Builder
			b.WriteString("INSERT INTO " + st.Insert.Table + " VALUES ")
			for i, row := range st.Insert.Rows {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteByte('(')
				for j, v := range row {
					if j > 0 {
						b.WriteByte(',')
					}
					b.WriteString(sqlLiteral(v))
				}
				b.WriteByte(')')
			}
			again, err := ParseSQL(b.String())
			if err != nil || again.Insert == nil {
				t.Fatalf("%q rendered as %q, which does not parse back: %v", src, b.String(), err)
			}
			if !sameTuples(again.Insert.Rows, st.Insert.Rows) {
				t.Fatalf("%q: rows %v came back as %v", src, st.Insert.Rows, again.Insert.Rows)
			}
		}
	})
}

// TestSQLParseAllocs: ParseSQL collects each list of a SELECT on the stack
// and allocates it once, at its length, so a statement of each of hitShapes
// parses in at most 5 allocations: the statement, the SELECT, and its items,
// FROM and WHERE lists.
func TestSQLParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	e := newSuppliersEngine(t)
	for _, shape := range hitShapes {
		src := translateShape(t, e, shape, 11)
		st, err := ParseSQL(src)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.Select
		if len(sel.Items) != cap(sel.Items) || len(sel.From) != cap(sel.From) || len(sel.Where) != cap(sel.Where) {
			t.Errorf("%s: lists of %d/%d items, %d/%d tables, %d/%d conjuncts: not sized once", src,
				len(sel.Items), cap(sel.Items), len(sel.From), cap(sel.From), len(sel.Where), cap(sel.Where))
		}
		if n := testing.AllocsPerRun(100, func() { ParseSQL(src) }); n > 5 {
			t.Errorf("%s: parses in %.0f allocations, want at most 5", src, n)
		}
	}
	// Lists longer than their stack buffers keep every element, in order.
	var items, from, where []string
	for i := 0; i < 12; i++ {
		items = append(items, fmt.Sprintf("t0.c%d", i))
		from = append(from, fmt.Sprintf("r%d AS t%d", i, i))
		where = append(where, fmt.Sprintf("t%d.c%d = %d", i, i, i))
	}
	src := "SELECT " + strings.Join(items, ", ") + " FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	st, err := ParseSQL(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.Select
	if len(sel.Items) != 12 || len(sel.From) != 12 || len(sel.Where) != 12 ||
		cap(sel.Items) != 12 || cap(sel.From) != 12 || cap(sel.Where) != 12 {
		t.Fatalf("%s: lists of %d/%d items, %d/%d tables, %d/%d conjuncts", src,
			len(sel.Items), cap(sel.Items), len(sel.From), cap(sel.From), len(sel.Where), cap(sel.Where))
	}
	for i := 0; i < 12; i++ {
		if got := fmt.Sprintf("%s %s %s", sel.Items[i].Col, sel.From[i].Alias, sel.Where[i]); got != fmt.Sprintf("t0.c%d t%d %s", i, i, where[i]) {
			t.Errorf("element %d reads %q", i, got)
		}
	}
}
