package cache

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// statsCountingClient counts the TableStats requests that reach the wrapped
// client, per table. When set, during runs after each fetch, before its
// answer returns: what a request racing the fetch does.
type statsCountingClient struct {
	remotedb.Client
	during func(table string)

	mu    sync.Mutex
	calls map[string]int
}

func (c *statsCountingClient) Inner() remotedb.Client { return c.Client }

func (c *statsCountingClient) TableStats(name string) (remotedb.TableStats, error) {
	c.mu.Lock()
	if c.calls == nil {
		c.calls = make(map[string]int)
	}
	c.calls[name]++
	c.mu.Unlock()
	st, err := c.Client.TableStats(name)
	if c.during != nil {
		c.during(name)
	}
	return st, err
}

func (c *statsCountingClient) fetches(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[name]
}

// relationRows is cms.RelationStats(name).Rows, failing the test on an error.
func relationRows(t *testing.T, cms *CMS, name string) int {
	t.Helper()
	st, err := cms.RelationStats(name)
	if err != nil {
		t.Fatalf("stats of %s: %v", name, err)
	}
	return st.Rows
}

// TestStatsFollowTableVersions: the CMS keeps one copy of each table's
// catalog statistics and fetches it again only once a request has observed a
// newer version of that table. Asking again sends nothing; an insert into p
// costs exactly one refetch for p and none for s.
func TestStatsFollowTableVersions(t *testing.T) {
	overBothTransports(t, func(t *testing.T, e *remotedb.Engine, client remotedb.Client) {
		counter := &statsCountingClient{Client: client}
		cms := New(counter, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
		if _, err := cms.RelationSchema("s", -1); err != nil { // the client hears from the backend
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if p, s := relationRows(t, cms, "p"), relationRows(t, cms, "s"); p != 20 || s != 10 {
				t.Fatalf("round %d: p has %d rows, s %d; want 20 and 10", i, p, s)
			}
		}
		if p, s := counter.fetches("p"), counter.fetches("s"); p != 1 || s != 1 {
			t.Fatalf("three rounds fetched p %d times and s %d times, want once each", p, s)
		}
		catalog := client.Stats().CatalogRequests

		if _, err := client.Exec("INSERT INTO p VALUES (100, 1, 1)"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if p, s := relationRows(t, cms, "p"), relationRows(t, cms, "s"); p != 21 || s != 10 {
				t.Fatalf("round %d after the insert: p has %d rows, s %d; want 21 and 10", i, p, s)
			}
		}
		if p, s := counter.fetches("p"), counter.fetches("s"); p != 2 || s != 1 {
			t.Fatalf("after an insert into p: p fetched %d times, s %d; want 2 and 1", p, s)
		}
		if got := client.Stats().CatalogRequests - catalog; got != 1 {
			t.Fatalf("the insert cost %d catalog requests, want 1", got)
		}
	})
}

// TestStatsStampTakenBeforeTheFetch is TestStampTakenBeforeTheFetch for
// catalog statistics: a write to s observed while its statistics are being
// fetched may be missing from them, so they are due for a refetch, which
// counts the late row.
func TestStatsStampTakenBeforeTheFetch(t *testing.T) {
	overBothTransports(t, func(t *testing.T, e *remotedb.Engine, client remotedb.Client) {
		counter := &statsCountingClient{Client: client}
		armed := true
		counter.during = func(table string) {
			if !armed || table != "s" {
				return
			}
			armed = false
			if err := e.Insert("s", []relation.Tuple{{relation.Int(99), relation.Str("late")}}); err != nil {
				t.Error(err)
			}
			if _, err := client.Exec("SELECT pid FROM p WHERE pid = 1"); err != nil {
				t.Error(err)
			}
		}
		cms := New(counter, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
		if _, err := cms.RelationSchema("s", -1); err != nil {
			t.Fatal(err)
		}
		if n := relationRows(t, cms, "s"); n != 10 {
			t.Fatalf("racing fetch: %d rows, want the 10 of its snapshot", n)
		}
		for i := 0; i < 2; i++ {
			if n := relationRows(t, cms, "s"); n != 11 {
				t.Fatalf("read %d after the race: %d rows, want 11 (the late insert was observed)", i, n)
			}
		}
		if got := counter.fetches("s"); got != 2 {
			t.Fatalf("s fetched %d times, want 2", got)
		}
	})
}

// TestStatsAnswerFromTheEntryWhileDown: with the server gone, statistics
// due for a refetch are answered from the copy rather than failed, so the
// shaper never falls back to its guesses. The refetch that meets the dead
// server marks the remote unavailable; after that no stats call reaches the
// transport.
func TestStatsAnswerFromTheEntryWhileDown(t *testing.T) {
	e := remotedb.NewEngine()
	p := relation.New("p", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt}, relation.Attr{Name: "b", Kind: relation.KindInt}))
	for i := 0; i < 20; i++ {
		p.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 4))})
	}
	e.LoadTable(p)
	srv := remotedb.NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 1, Costs: remotedb.DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	counter := &statsCountingClient{Client: pool}
	cms := New(counter, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
	if _, err := cms.RelationSchema("p", -1); err != nil {
		t.Fatal(err)
	}
	want, err := cms.RelationStats("p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Exec("INSERT INTO p VALUES (100, 1)"); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	for i := 0; i < 3; i++ {
		got, err := cms.RelationStats("p")
		if err != nil {
			t.Fatalf("stats %d with the server gone: %v", i, err)
		}
		if got.Rows != want.Rows || len(got.Distinct) != 2 || got.Distinct[1] != want.Distinct[1] {
			t.Fatalf("stats %d with the server gone: %+v, want the copy %+v", i, got, want)
		}
	}
	if cms.RDI().Available() {
		t.Fatal("a refetch that met the dead server left the remote available")
	}
	if got := counter.fetches("p"); got != 2 {
		t.Fatalf("p's stats reached the transport %d times, want 2: the warm-up and one failed refetch", got)
	}
}

// TestStatsConcurrentReaders: sessions read the statistics copy while a
// writer moves p's version; every answer is a row count p had.
func TestStatsConcurrentReaders(t *testing.T) {
	overBothTransports(t, func(t *testing.T, e *remotedb.Engine, client remotedb.Client) {
		cms := New(client, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
		const readers, reads, inserts = 4, 50, 10
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < reads; j++ {
					st, err := cms.RelationStats("p")
					if err != nil || st.Rows < 20 || st.Rows > 20+inserts {
						t.Errorf("stats of p: %+v, %v", st, err)
						return
					}
				}
			}()
		}
		for i := 0; i < inserts; i++ {
			if _, err := client.Exec(fmt.Sprintf("INSERT INTO p VALUES (%d, 1, 1)", 100+i)); err != nil {
				t.Error(err)
			}
		}
		wg.Wait()
		if n := relationRows(t, cms, "p"); n != 20+inserts {
			t.Fatalf("p has %d rows after the writer, want %d", n, 20+inserts)
		}
	})
}

// TestSchemaFollowsReplacedTable: the CMS keeps its copy of a table's schema
// as it keeps the table's statistics, so once a request has observed a
// LoadTable that replaced s, with another arity and then with another kind
// in one column, RelationSchema returns the new schema and a query over the
// new table is answered as caql.Eval answers it.
func TestSchemaFollowsReplacedTable(t *testing.T) {
	overBothTransports(t, func(t *testing.T, e *remotedb.Engine, client remotedb.Client) {
		cms := New(client, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
		s := cms.BeginSession(nil).(*Session)
		defer s.End()
		if got := drainQ(t, s, viewOverS); got.Len() != 10 {
			t.Fatalf("s has %d rows, want 10", got.Len())
		}
		for _, w := range []relation.Kind{relation.KindFloat, relation.KindString} {
			next := relation.New("s", relation.NewSchema(
				relation.Attr{Name: "sid", Kind: relation.KindInt}, relation.Attr{Name: "name", Kind: relation.KindString},
				relation.Attr{Name: "w", Kind: w}))
			for i := 0; i < 4; i++ {
				v := relation.Float(float64(i) / 2)
				if w == relation.KindString {
					v = relation.Str(fmt.Sprint(i))
				}
				next.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str("n"), v})
			}
			e.LoadTable(next)
			if _, err := client.Exec("SELECT pid FROM p WHERE pid = 1"); err != nil { // observes the new version of s
				t.Fatal(err)
			}
			sch, err := cms.RelationSchema("s", 3)
			if err != nil {
				t.Fatalf("after replacing s with a %v column: %v", w, err)
			}
			if !slices.Equal(sch.Attrs(), next.Schema().Attrs()) {
				t.Fatalf("RelationSchema(s) = %v, want %v", sch.Attrs(), next.Schema().Attrs())
			}
			q := "s3(S, N, W) :- s(S, N, W)"
			want, err := caql.Eval(caql.MustParse(q), caql.MapSource{"s": next})
			if err != nil {
				t.Fatal(err)
			}
			if got := drainQ(t, s, q); !got.EqualAsBag(want) || !slices.Equal(got.Schema().Attrs(), want.Schema().Attrs()) {
				t.Fatalf("%s over the new s: got %v %v, want %v %v", q, got.Schema().Attrs(), got.Tuples(), want.Schema().Attrs(), want.Tuples())
			}
		}
	})
}
