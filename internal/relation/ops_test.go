package relation

import (
	"math/rand"
	"testing"
)

func testSchemaAB() *Schema {
	return NewSchema(Attr{"a", KindInt}, Attr{"b", KindString})
}

func mkRel(t *testing.T, name string, rows ...[]any) *Relation {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("mkRel needs rows")
	}
	attrs := make([]Attr, len(rows[0]))
	for i, v := range rows[0] {
		switch v.(type) {
		case int:
			attrs[i] = Attr{string(rune('a' + i)), KindInt}
		case string:
			attrs[i] = Attr{string(rune('a' + i)), KindString}
		case float64:
			attrs[i] = Attr{string(rune('a' + i)), KindFloat}
		case bool:
			attrs[i] = Attr{string(rune('a' + i)), KindBool}
		}
	}
	r := New(name, NewSchema(attrs...))
	for _, row := range rows {
		tu := make(Tuple, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case int:
				tu[i] = Int(int64(x))
			case string:
				tu[i] = Str(x)
			case float64:
				tu[i] = Float(x)
			case bool:
				tu[i] = Bool(x)
			}
		}
		r.MustAppend(tu)
	}
	return r
}

func TestSchemaBasics(t *testing.T) {
	s := testSchemaAB()
	if s.Arity() != 2 || s.ColIndex("a") != 0 || s.ColIndex("b") != 1 || s.ColIndex("z") != -1 {
		t.Fatal("schema lookup broken")
	}
	p := s.Project([]int{1})
	if p.Arity() != 1 || p.Attr(0).Name != "b" {
		t.Fatal("project broken")
	}
	r := s.Rename([]string{"x", "y"})
	if r.ColIndex("x") != 0 || r.Attr(1).Kind != KindString {
		t.Fatal("rename broken")
	}
	c := s.Concat(s)
	if c.Arity() != 4 || c.Attr(2).Name == "a" {
		t.Fatalf("concat should disambiguate, got %v", c)
	}
	if !s.Equal(testSchemaAB()) || s.Equal(p) {
		t.Fatal("Equal broken")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate attribute")
		}
	}()
	NewSchema(Attr{"a", KindInt}, Attr{"a", KindInt})
}

func TestSelect(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{2, "y"}, []any{3, "x"})
	got := SelectRel(r, []Cond{ColConst(1, OpEq, Str("x"))})
	if got.Len() != 2 {
		t.Fatalf("select got %d rows, want 2", got.Len())
	}
	got = SelectRel(r, []Cond{ColConst(0, OpGt, Int(1)), ColConst(1, OpEq, Str("x"))})
	if got.Len() != 1 || got.Tuple(0)[0].AsInt() != 3 {
		t.Fatalf("conjunctive select wrong: %v", got)
	}
}

func TestSelectColCol(t *testing.T) {
	r := mkRel(t, "r", []any{1, 1}, []any{2, 3}, []any{4, 4})
	got := SelectRel(r, []Cond{ColCol(0, OpEq, 1)})
	if got.Len() != 2 {
		t.Fatalf("col=col select got %d, want 2", got.Len())
	}
}

func TestProject(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{2, "y"})
	got := ProjectRel(r, []int{1, 0})
	if got.Schema().Attr(0).Name != "b" || got.Tuple(0)[0].AsString() != "x" || got.Tuple(1)[1].AsInt() != 2 {
		t.Fatalf("project wrong: %v", got)
	}
}

func TestDistinct(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{1, "x"}, []any{2, "y"})
	got := DistinctRel(r)
	if got.Len() != 2 {
		t.Fatalf("distinct got %d, want 2", got.Len())
	}
}

func TestLimitLaziness(t *testing.T) {
	produced := 0
	src := IteratorFunc(func() (Tuple, bool) {
		produced++
		return Tuple{Int(int64(produced))}, true // infinite stream
	})
	out := Take(Limit(src, 3), 10)
	if len(out) != 3 {
		t.Fatalf("limit got %d, want 3", len(out))
	}
	if produced != 3 {
		t.Fatalf("limit consumed %d from source, want 3 (lazy)", produced)
	}
}

func TestSelectLaziness(t *testing.T) {
	produced := 0
	src := IteratorFunc(func() (Tuple, bool) {
		produced++
		return Tuple{Int(int64(produced))}, true
	})
	it := Select(src, []Cond{ColConst(0, OpGt, Int(2))})
	tu, ok := it.Next()
	if !ok || tu[0].AsInt() != 3 {
		t.Fatalf("select first = %v", tu)
	}
	if produced != 3 {
		t.Fatalf("select consumed %d, want 3", produced)
	}
}

// TestIterReset: a SelectIter and a LimitIter re-armed over a new input
// answer as a new Select and Limit would, whatever the last input left.
func TestIterReset(t *testing.T) {
	r := mkRel(t, "r", []any{1, "x"}, []any{2, "y"}, []any{3, "x"}, []any{4, "x"})
	var sel SelectIter
	var lim LimitIter
	for _, c := range []struct {
		conds []Cond
		n     int
	}{{[]Cond{ColConst(1, OpEq, Str("x"))}, 2}, {[]Cond{ColConst(0, OpGt, Int(1))}, 5}, {nil, 0}} {
		sel.Reset(r.Iter(), c.conds)
		lim.Reset(&sel, c.n)
		got := Drain("got", r.Schema(), &lim)
		want := Drain("want", r.Schema(), Limit(Select(r.Iter(), c.conds), c.n))
		if !got.EqualAsBag(want) || got.Len() != min(c.n, SelectRel(r, c.conds).Len()) {
			t.Fatalf("re-armed over %v limit %d: %v, want %v", c.conds, c.n, got, want)
		}
	}
	sel.Reset(nil, nil)
	lim.Reset(nil, 0)
	if sel.in != nil || sel.conds != nil || lim != (LimitIter{}) {
		t.Fatalf("reset to nothing: %+v, %+v", sel, lim)
	}
}

func TestHashJoin(t *testing.T) {
	emp := mkRel(t, "emp", []any{1, "alice"}, []any{2, "bob"}, []any{3, "carol"})
	dept := mkRel(t, "dept", []any{1, "eng"}, []any{2, "ops"}, []any{2, "hr"})
	out := JoinRel("j", emp, dept, []JoinCond{{Left: 0, Right: 0}})
	if out.Len() != 3 {
		t.Fatalf("join got %d rows, want 3", out.Len())
	}
	for _, tu := range out.Tuples() {
		if tu[0].Compare(tu[2]) != 0 {
			t.Fatalf("join condition violated: %v", tu)
		}
	}
	if out.Schema().Arity() != 4 {
		t.Fatalf("join schema arity %d, want 4", out.Schema().Arity())
	}
}

func TestNestedLoopJoinMatchesHashJoin(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := New("a", NewSchema(Attr{"x", KindInt}, Attr{"y", KindInt}))
		b := New("b", NewSchema(Attr{"u", KindInt}, Attr{"v", KindInt}))
		for i := 0; i < r.Intn(20); i++ {
			a.MustAppend(Tuple{Int(int64(r.Intn(5))), Int(int64(r.Intn(5)))})
		}
		for i := 0; i < r.Intn(20); i++ {
			b.MustAppend(Tuple{Int(int64(r.Intn(5))), Int(int64(r.Intn(5)))})
		}
		schema := a.Schema().Concat(b.Schema())
		hj := Drain("hj", schema, HashJoin(a.Iter(), b.Iter(), []JoinCond{{Left: 1, Right: 0}}))
		nl := Drain("nl", schema, NestedLoopJoin(a.Iter(), b.Iter(), 2, []Cond{ColCol(1, OpEq, 2)}, nil, new(Arena)))
		if !hj.EqualAsBag(nl) {
			t.Fatalf("trial %d: hash join != nested loop join\n%v\n%v", trial, hj, nl)
		}
	}
}

func TestUnionDifference(t *testing.T) {
	a := mkRel(t, "a", []any{1}, []any{2})
	b := mkRel(t, "b", []any{2}, []any{3})
	u := UnionRel("u", a, b)
	if u.Len() != 4 {
		t.Fatalf("bag union got %d", u.Len())
	}
	d := Drain("d", a.Schema(), Difference(a.Iter(), b.Iter()))
	if d.Len() != 1 || d.Tuple(0)[0].AsInt() != 1 {
		t.Fatalf("difference wrong: %v", d)
	}
}

func TestSortAndEquality(t *testing.T) {
	a := mkRel(t, "a", []any{3, "c"}, []any{1, "a"}, []any{2, "b"})
	a.Sort()
	if a.Tuple(0)[0].AsInt() != 1 || a.Tuple(2)[0].AsInt() != 3 {
		t.Fatalf("sort wrong: %v", a)
	}
	b := mkRel(t, "b", []any{2, "b"}, []any{1, "a"}, []any{3, "c"})
	if !a.EqualAsSet(b) || !a.EqualAsBag(b) {
		t.Fatal("set/bag equality should hold")
	}
	c := mkRel(t, "c", []any{2, "b"}, []any{2, "b"}, []any{1, "a"}, []any{3, "c"})
	if !a.EqualAsSet(c) {
		t.Fatal("set equality should ignore duplicates")
	}
	if a.EqualAsBag(c) {
		t.Fatal("bag equality should notice duplicates")
	}
}

func TestSortBy(t *testing.T) {
	a := mkRel(t, "a", []any{1, "z"}, []any{1, "a"}, []any{0, "m"})
	a.SortBy([]int{0, 1})
	if a.Tuple(0)[1].AsString() != "m" || a.Tuple(1)[1].AsString() != "a" {
		t.Fatalf("sortby wrong: %v", a)
	}
}

func TestChainAndEmpty(t *testing.T) {
	a := mkRel(t, "a", []any{1})
	b := mkRel(t, "b", []any{2})
	got := Take(Chain(a.Iter(), Empty(), b.Iter()), 10)
	if len(got) != 2 || got[1][0].AsInt() != 2 {
		t.Fatalf("chain wrong: %v", got)
	}
}

func TestAppendArityError(t *testing.T) {
	r := New("r", testSchemaAB())
	if err := r.Append(Tuple{Int(1)}); err == nil {
		t.Fatal("expected arity error")
	}
	if err := r.AppendValues(Int(1), Str("x")); err != nil {
		t.Fatalf("AppendValues: %v", err)
	}
}

// Property: select distributes over union; project commutes with select when
// the selected columns survive projection.
func TestAlgebraIdentities(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		a := New("a", NewSchema(Attr{"x", KindInt}, Attr{"y", KindInt}))
		b := New("b", NewSchema(Attr{"x", KindInt}, Attr{"y", KindInt}))
		for i := 0; i < r.Intn(15); i++ {
			a.MustAppend(Tuple{Int(int64(r.Intn(4))), Int(int64(r.Intn(4)))})
		}
		for i := 0; i < r.Intn(15); i++ {
			b.MustAppend(Tuple{Int(int64(r.Intn(4))), Int(int64(r.Intn(4)))})
		}
		cond := []Cond{ColConst(0, OpGe, Int(int64(r.Intn(4))))}

		// sel(a ∪ b) == sel(a) ∪ sel(b)
		lhs := SelectRel(UnionRel("u", a, b), cond)
		rhs := UnionRel("u2", SelectRel(a, cond), SelectRel(b, cond))
		if !lhs.EqualAsBag(rhs) {
			t.Fatalf("selection does not distribute over union")
		}

		// proj_{x}(sel_{x cond}(a)) == sel_{x cond}(proj_{x}(a))
		p1 := ProjectRel(SelectRel(a, cond), []int{0})
		p2 := SelectRel(ProjectRel(a, []int{0}), cond)
		if !p1.EqualAsBag(p2) {
			t.Fatalf("project/select commute failed")
		}
	}
}

func TestCondString(t *testing.T) {
	s := testSchemaAB()
	c := ColConst(0, OpLt, Int(5))
	if c.String(s) != "a < 5" {
		t.Errorf("cond string = %q", c.String(s))
	}
	cc := ColCol(0, OpEq, 1)
	if cc.String(nil) != "$0 = $1" {
		t.Errorf("cond string = %q", cc.String(nil))
	}
}
