package braid

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/caql"
	"repro/internal/relation"
)

func quickstartSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	kb := MustParseKB(`
		:- base(parent/2).
		:- base(male/1).
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
		grandfather(X, Z) :- grandparent(X, Z), male(X).
	`)
	db := NewDB()
	db.MustExec(`CREATE TABLE parent (p TEXT, c TEXT)`)
	db.MustExec(`INSERT INTO parent VALUES ('ann','bob'), ('bob','cal'), ('bob','dee'), ('cal','eve')`)
	db.MustExec(`CREATE TABLE male (x TEXT)`)
	db.MustExec(`INSERT INTO male VALUES ('bob'), ('cal')`)
	sys, err := New(kb, db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIQuickstart(t *testing.T) {
	sys := quickstartSystem(t)
	ans, err := sys.Ask("grandparent(X, Z)?")
	if err != nil {
		t.Fatal(err)
	}
	rows := ans.All()
	if ans.Err() != nil {
		t.Fatal(ans.Err())
	}
	// ann->bob->cal, ann->bob->dee, bob->cal->eve.
	if len(rows) != 3 {
		t.Fatalf("grandparent rows = %d: %v", len(rows), rows)
	}
	found := false
	for _, r := range rows {
		if r["X"] == "ann" && r["Z"] == "cal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing ann/cal: %v", rows)
	}
}

// TestPublicAPIAskCtx: an ask whose context is already canceled answers
// nothing and reports an error that matches context.Canceled, under every
// strategy; the same ask under a live context answers in full.
func TestPublicAPIAskCtx(t *testing.T) {
	for _, strat := range []string{"interpreted", "conjunction", "compiled"} {
		sys := quickstartSystem(t, WithStrategy(strat))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ans, err := sys.AskCtx(ctx, "grandparent(X, Z)?")
		if err != nil {
			t.Fatal(err)
		}
		if rows := ans.All(); len(rows) != 0 || !errors.Is(ans.Err(), context.Canceled) {
			t.Fatalf("%s: a canceled ask answered %v, Err %v", strat, rows, ans.Err())
		}
		ans, err = sys.AskCtx(context.Background(), "grandparent(X, Z)?")
		if err != nil {
			t.Fatal(err)
		}
		if n := ans.Count(); n != 3 || ans.Err() != nil {
			t.Fatalf("%s: the next ask answered %d of 3: %v", strat, n, ans.Err())
		}
	}
}

func TestPublicAPIStrategiesAgree(t *testing.T) {
	var counts []int
	for _, strat := range []string{"interpreted", "conjunction", "compiled"} {
		sys := quickstartSystem(t, WithStrategy(strat))
		ans, err := sys.Ask("grandfather(X, Z)?")
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, ans.Count())
		if ans.Err() != nil {
			t.Fatal(ans.Err())
		}
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("strategies disagree: %v", counts)
	}
	if counts[0] == 0 {
		t.Fatal("expected grandfather answers")
	}
}

func TestPublicAPIAdviceAndStats(t *testing.T) {
	sys := quickstartSystem(t, WithStrategy("conjunction"))
	adv, err := sys.Advice("grandfather(X, Z)?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(adv, "view d1") || !strings.Contains(adv, "path ") {
		t.Fatalf("advice missing pieces:\n%s", adv)
	}
	ans, _ := sys.Ask("grandfather(X, Z)?")
	ans.Count()
	st := sys.Stats()
	if st.Queries == 0 || st.RemoteRequests == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if s := st.String(); !strings.Contains(s, "remote=") {
		t.Errorf("stats string = %q", s)
	}
	cm := sys.CacheModel()
	if !strings.HasPrefix(cm, "cache_model(e_id int, e_def string, size_bytes int, hits int, last_use int, advice_name string)") {
		t.Errorf("cache model rendering:\n%s", cm)
	}
}

func TestPublicAPIComparators(t *testing.T) {
	for _, comp := range []string{"braid", "loose", "exact", "singlerel"} {
		sys := quickstartSystem(t, WithComparator(comp))
		ans, err := sys.Ask("grandparent(X, Z)?")
		if err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		if got := ans.Count(); got != 3 {
			t.Fatalf("%s: rows = %d, want 3", comp, got)
		}
		if ans.Err() != nil {
			t.Fatalf("%s: %v", comp, ans.Err())
		}
	}
	if _, err := New(MustParseKB(":- base(b/1)."), NewDB(), WithComparator("bogus")); err == nil {
		t.Error("bogus comparator should error")
	}
}

func TestPublicAPIFeatureToggles(t *testing.T) {
	sys := quickstartSystem(t, WithFeature("prefetch", false), WithFeature("lazy", false), WithCacheBytes(1<<20), WithThinkTime(50))
	ans, err := sys.Ask("grandparent(X, Z)?")
	if err != nil {
		t.Fatal(err)
	}
	ans.Count()
	if _, err := New(MustParseKB(":- base(b/1)."), NewDB(), WithFeature("warp-drive", true)); err == nil {
		t.Error("unknown feature should error")
	}
	if _, err := New(MustParseKB(":- base(b/1)."), NewDB(), WithStrategy("psychic")); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestPublicAPIOverTCP(t *testing.T) {
	kb := MustParseKB(`
		:- base(parent/2).
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	`)
	db := NewDB()
	db.MustExec(`CREATE TABLE parent (p TEXT, c TEXT)`)
	db.MustExec(`INSERT INTO parent VALUES ('ann','bob'), ('bob','cal')`)
	srv, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sys, err := New(kb, nil, WithRemote(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("grandparent(X, Z)?")
	if err != nil {
		t.Fatal(err)
	}
	rows := ans.All()
	if ans.Err() != nil {
		t.Fatal(ans.Err())
	}
	if len(rows) != 1 || rows[0]["X"] != "ann" || rows[0]["Z"] != "cal" {
		t.Fatalf("tcp rows = %v", rows)
	}
}

// TestAnswersNextAllocs holds Answers.Next to what it adds to the search: the
// map it returns and the values boxed into it. A warm ask of path(X, Y) over
// a chain of 20 edges, 210 answers of two values each, is drained once through
// Next and once through the engine's solutions, and the difference is Next's
// share: 4 an answer, the map (2) and its two values. It made 6 while Next
// copied the query's variables twice for each answer.
func TestAnswersNextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n, budget = 20, 4
	kb := MustParseKB(`
		:- base(e/2).
		path(X, Y) :- e(X, Y).
		path(X, Y) :- e(X, Z), path(Z, Y).
	`)
	db := NewDB()
	db.MustExec(`CREATE TABLE e (a INT, b INT)`)
	for i := 0; i < n; i++ {
		// Values past 255 are boxed in an allocation of their own.
		db.MustExec(fmt.Sprintf("INSERT INTO e VALUES (%d, %d)", 1000+i, 1001+i))
	}
	sys, err := New(kb, db)
	if err != nil {
		t.Fatal(err)
	}
	const answers = n * (n + 1) / 2
	drain := func(next func(*Answers) bool) func() {
		return func() {
			ans, err := sys.Ask("path(X, Y)?")
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for next(ans) {
				got++
			}
			if ans.Err() != nil || got != answers {
				t.Fatalf("path(X, Y) has %d answers (%v), want %d", got, ans.Err(), answers)
			}
		}
	}
	viaNext := drain(func(a *Answers) bool { _, ok := a.Next(); return ok })
	direct := drain(func(a *Answers) bool { _, ok := a.sol.Next(); return ok })
	for i := 0; i < 3; i++ {
		viaNext()
	}
	perAnswer := (testing.AllocsPerRun(20, viaNext) - testing.AllocsPerRun(20, direct)) / answers
	t.Logf("Answers.Next adds %.2f allocations an answer", perAnswer)
	if perAnswer > budget {
		t.Errorf("Answers.Next adds %.2f allocations an answer, budget %d", perAnswer, budget)
	}
}

func TestPublicAPIEarlyClose(t *testing.T) {
	sys := quickstartSystem(t)
	ans, err := sys.Ask("grandparent(X, Z)?")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ans.Next(); !ok {
		t.Fatal("expected at least one answer")
	}
	ans.Close()
	if _, ok := ans.Next(); ok {
		t.Fatal("Next after Close")
	}
}

// TestPublicAPICloseReleasesRemoteStream: Answers.Close cancels the lazy
// remote stream the search still reads, so the next request on a
// one-connection pool is not stuck behind it.
func TestPublicAPICloseReleasesRemoteStream(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE p (a INT, b INT)`)
	for batch := 0; batch < 10; batch++ {
		var sql strings.Builder
		sql.WriteString("INSERT INTO p VALUES ")
		for i := 0; i < 5000; i++ {
			if i > 0 {
				sql.WriteString(", ")
			}
			fmt.Fprintf(&sql, "(%d, %d)", batch*5000+i, i%97)
		}
		db.MustExec(sql.String())
	}
	srv, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	kb := MustParseKB(":- base(p/2).\nq(X, Y) :- p(X, Y).")
	sys, err := New(kb, nil, WithRemote(srv.Addr()), WithPool(1), WithFeature("result-caching", false))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("q(X, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ans.Next(); !ok {
		t.Fatalf("no first answer: %v", ans.Err())
	}
	ans.Close()

	next := make(chan error, 1)
	go func() {
		_, err := sys.QueryCAQL(`r(Y) :- p(7, Y)`)
		next <- err
	}()
	select {
	case err := <-next:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the next request is still waiting after 2 s")
	}
	if got := sys.Stats().StreamsCanceled; got != 1 {
		t.Fatalf("StreamsCanceled = %d, want 1", got)
	}
}

func TestDBErrorsAndIndex(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("SELECT * FROM nothing"); err == nil {
		t.Error("bad SQL should error")
	}
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	db.MustExec("INSERT INTO t VALUES (1, 2)")
	if err := db.CreateIndex("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", 0); err == nil {
		t.Error("0-based index position should error")
	}
	if len(db.Tables()) != 1 {
		t.Error("tables listing wrong")
	}
	out := db.MustExec("SELECT a FROM t")
	if !strings.Contains(out, "1 tuples") {
		t.Errorf("select output = %q", out)
	}
}

func TestPublicAPIExplanations(t *testing.T) {
	sys := quickstartSystem(t, WithExplanations())
	ans, err := sys.Ask("grandfather(X, Z)?")
	if err != nil {
		t.Fatal(err)
	}
	defer ans.Close()
	row, why, ok := ans.NextExplained()
	if !ok {
		t.Fatal("expected a solution")
	}
	if row["X"] == nil || why == "" {
		t.Fatalf("explained answer incomplete: %v / %q", row, why)
	}
	if !strings.Contains(why, "by rule r") {
		t.Errorf("justification missing rule identifiers:\n%s", why)
	}
	// Without the option, explanations are empty.
	sys2 := quickstartSystem(t)
	ans2, _ := sys2.Ask("grandparent(X, Z)?")
	defer ans2.Close()
	if _, why, ok := ans2.NextExplained(); ok && why != "" {
		t.Error("explanations should be empty without WithExplanations")
	}
}

func TestPublicAPIDirectCAQLAndClosure(t *testing.T) {
	kb := MustParseKB(`:- base(edge/2).`)
	db := NewDB()
	db.MustExec(`CREATE TABLE edge (a INT, b INT)`)
	db.MustExec(`INSERT INTO edge VALUES (1,2), (2,3), (3,4)`)
	sys, err := New(kb, db)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sys.QueryCAQL("q(X, Y) :- edge(X, Y) & X < 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("direct CAQL rows = %d, want 2: %v", len(rows), rows)
	}
	closure, err := sys.Closure("r(X, Y) :- edge(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(closure) != 6 {
		t.Fatalf("closure rows = %d, want 6: %v", len(closure), closure)
	}
	// Rows map the view's head variable names, whatever they are; Z, which
	// the closure's own clause uses, too.
	closure, err = sys.Closure("r(A, Z) :- edge(A, Z)")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range closure {
		if _, ok := row["A"]; !ok || len(row) != 2 || row["Z"] == nil {
			t.Fatalf("closure row %v, want keys A and Z", row)
		}
	}
	if len(closure) != 6 {
		t.Fatalf("closure rows = %d, want 6: %v", len(closure), closure)
	}
	if _, err := sys.Closure("r(X) :- edge(X, Y)"); err == nil {
		t.Error("non-binary closure should error")
	}
	if _, err := sys.QueryCAQL("broken("); err == nil {
		t.Error("parse error should propagate")
	}
}

// TestQueryCAQLUnion: a CAQL text of two clauses is their union, answered
// through the CMS as caql.RunProgram answers it over the same rows; a repeat
// is served from the cache.
func TestQueryCAQLUnion(t *testing.T) {
	kb := MustParseKB(`:- base(edge/2).`)
	db := NewDB()
	db.MustExec(`CREATE TABLE edge (a INT, b INT)`)
	db.MustExec(`INSERT INTO edge VALUES (1,2), (2,3), (3,4), (4,1)`)
	sys, err := New(kb, db)
	if err != nil {
		t.Fatal(err)
	}
	const text = `
		q(X, Y) :- edge(X, Y) & X < 3.
		q(X, Y) :- edge(X, Y) & Y > 2.`
	edge := relation.New("edge", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt}, relation.Attr{Name: "b", Kind: relation.KindInt}))
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}} {
		edge.MustAppend(relation.Tuple{relation.Int(e[0]), relation.Int(e[1])})
	}
	prog, err := caql.ParseProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := caql.RunProgram(context.Background(), prog, func(q *caql.Query) (*relation.Relation, error) {
		return caql.Eval(q, caql.MapSource{"edge": edge})
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]bool{}
	for _, tu := range want.Tuples() {
		wantRows[fmt.Sprint(map[string]any{"X": goValue(tu[0]), "Y": goValue(tu[1])})] = true
	}
	for pass := 0; pass < 2; pass++ {
		before := sys.Stats().RemoteRequests
		rows, err := sys.QueryCAQL(text)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, r := range rows {
			got[fmt.Sprint(r)] = true
		}
		if len(rows) != len(wantRows) || len(got) != len(wantRows) {
			t.Fatalf("pass %d: union rows %v, want caql.RunProgram's %v", pass, rows, want.Sort())
		}
		for r := range got {
			if !wantRows[r] {
				t.Fatalf("pass %d: union row %s is not caql.RunProgram's", pass, r)
			}
		}
		if pass == 1 && sys.Stats().RemoteRequests != before {
			t.Fatal("a repeated union should be served from the cache")
		}
	}
}

// TestClosureFollowsInsert: a closure reads its base view as any query does,
// so once a request has observed an insert into the view's table, the next
// closure is computed over the new rows, and every hit it counts is a query.
func TestClosureFollowsInsert(t *testing.T) {
	kb := MustParseKB(`:- base(edge/2). :- base(other/1).`)
	db := NewDB()
	db.MustExec(`CREATE TABLE edge (a INT, b INT)`)
	db.MustExec(`CREATE TABLE other (a INT)`)
	db.MustExec(`INSERT INTO edge VALUES (1,2), (2,3), (3,4)`)
	db.MustExec(`INSERT INTO other VALUES (1)`)
	sys, err := New(kb, db)
	if err != nil {
		t.Fatal(err)
	}
	const view = "r(X, Y) :- edge(X, Y)"
	if closure, err := sys.Closure(view); err != nil || len(closure) != 6 {
		t.Fatalf("first closure: %d rows (%v), want 6", len(closure), err)
	}
	db.MustExec(`INSERT INTO edge VALUES (4,5)`)
	// A miss on another table observes the insert's version.
	if _, err := sys.QueryCAQL("o(X) :- other(X)"); err != nil {
		t.Fatal(err)
	}
	if rows, err := sys.QueryCAQL("q(X, Y) :- edge(X, Y)"); err != nil || len(rows) != 4 {
		t.Fatalf("edge after the insert: %d rows (%v), want 4", len(rows), err)
	}
	closure, err := sys.Closure(view)
	if err != nil {
		t.Fatal(err)
	}
	if len(closure) != 10 {
		t.Fatalf("closure after the insert: %d rows, want 10: %v", len(closure), closure)
	}
	if st := sys.Stats(); st.CacheHits+st.PartialHits > st.Queries {
		t.Fatalf("%d hits and %d partial hits in %d queries", st.CacheHits, st.PartialHits, st.Queries)
	}
}
