package cache

import (
	"context"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/remotedb"
)

// overBothTransports runs f once over each transport the CMS is deployed
// on — the in-process client and a PoolClient over loopback TCP — each with
// a fresh engine holding s(sid, name) with 10 rows and p(pid, sid, w) with
// 20.
func overBothTransports(t *testing.T, f func(t *testing.T, e *remotedb.Engine, client remotedb.Client)) {
	engine := func(t *testing.T) *remotedb.Engine {
		e := remotedb.NewEngine()
		s := relation.New("s", relation.NewSchema(
			relation.Attr{Name: "sid", Kind: relation.KindInt}, relation.Attr{Name: "name", Kind: relation.KindString}))
		p := relation.New("p", relation.NewSchema(
			relation.Attr{Name: "pid", Kind: relation.KindInt}, relation.Attr{Name: "sid", Kind: relation.KindInt},
			relation.Attr{Name: "w", Kind: relation.KindInt}))
		for i := 0; i < 20; i++ {
			if i < 10 {
				s.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str(string(rune('a' + i)))})
			}
			p.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 10)), relation.Int(int64(i))})
		}
		e.LoadTable(s)
		e.LoadTable(p)
		return e
	}
	t.Run("inproc", func(t *testing.T) {
		e := engine(t)
		f(t, e, remotedb.NewInProcClient(e, remotedb.DefaultCosts()))
	})
	t.Run("pool", func(t *testing.T) {
		e := engine(t)
		srv := remotedb.NewServer(e)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 2, Costs: remotedb.DefaultCosts()})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		f(t, e, pool)
	})
}

const viewOverS = `v(S, N) :- s(S, N)`

// TestStalenessPrecision: a view is invalidated exactly when a request has
// observed a newer version of a table it reads. An insert into another table
// leaves it resident and served without a remote request; an insert into its
// own table, made elsewhere and observed through any request on the CMS's
// client, invalidates it exactly once.
func TestStalenessPrecision(t *testing.T) {
	overBothTransports(t, func(t *testing.T, e *remotedb.Engine, client remotedb.Client) {
		cms := New(client, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
		s := cms.BeginSession(nil).(*Session)
		defer s.End()
		if n := drainQ(t, s, viewOverS).Len(); n != 10 {
			t.Fatalf("first read: %d rows, want 10", n)
		}

		if _, err := client.Exec("INSERT INTO p VALUES (100, 1, 1)"); err != nil {
			t.Fatal(err)
		}
		requests := client.Stats().Requests
		if n := drainQ(t, s, viewOverS).Len(); n != 10 {
			t.Fatalf("after an insert into p: %d rows, want 10", n)
		}
		if got := cms.Stats().EpochInvalidations; got != 0 {
			t.Fatalf("an insert into p invalidated %d views over s", got)
		}
		if got := client.Stats().Requests; got != requests {
			t.Fatalf("an insert into p sent the read of s remote (%d requests, want %d)", got, requests)
		}

		if err := e.Insert("s", []relation.Tuple{{relation.Int(10), relation.Str("k")}}); err != nil {
			t.Fatal(err)
		}
		if n := drainQ(t, s, viewOverS).Len(); n != 10 {
			t.Fatalf("an insert the client has not observed yet: %d rows, want the cached 10", n)
		}
		if _, err := client.Exec("SELECT pid FROM p WHERE pid = 100"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if n := drainQ(t, s, viewOverS).Len(); n != 11 {
				t.Fatalf("read %d after the insert into s was observed: %d rows, want 11", i, n)
			}
		}
		if got := cms.Stats().EpochInvalidations; got != 1 {
			t.Fatalf("the insert into s invalidated the view %d times, want exactly 1", got)
		}
	})
}

// racingClient makes the stamp race deterministic: once armed, the next read
// of s returns its result only after a writer has inserted into s behind the
// read's snapshot and one request has observed that insert. A CMS stamping
// the result after the fetch would take it for current.
type racingClient struct {
	remotedb.Client
	e     *remotedb.Engine
	armed bool
}

func (c *racingClient) Inner() remotedb.Client { return c.Client }

func (c *racingClient) ExecStream(ctx context.Context, sql string) (remotedb.TupleStream, error) {
	st, err := c.Client.ExecStream(ctx, sql)
	if err != nil || !c.armed || !strings.Contains(sql, "FROM s") {
		return st, err
	}
	c.armed = false
	if err := c.e.Insert("s", []relation.Tuple{{relation.Int(99), relation.Str("late")}}); err != nil {
		return nil, err
	}
	if _, err := c.Client.Exec("SELECT pid FROM p WHERE pid = 1"); err != nil {
		return nil, err
	}
	return st, nil
}

// TestStampTakenBeforeTheFetch: a view's stamp is the epoch observed before
// its fetch was issued, so a write that lands after the fetch's snapshot —
// and is observed before the fetch returns — still makes the view stale. The
// next read must refetch, not serve the extension without the late row.
func TestStampTakenBeforeTheFetch(t *testing.T) {
	overBothTransports(t, func(t *testing.T, e *remotedb.Engine, client remotedb.Client) {
		cms := New(&racingClient{Client: client, e: e, armed: true}, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
		s := cms.BeginSession(nil).(*Session)
		defer s.End()
		if n := drainQ(t, s, viewOverS).Len(); n != 10 {
			t.Fatalf("racing read: %d rows, want the 10 of its snapshot", n)
		}
		if n := drainQ(t, s, viewOverS).Len(); n != 11 {
			t.Fatalf("read after the race: %d rows, want 11 (the late insert was observed)", n)
		}
		if got := cms.Stats().EpochInvalidations; got != 1 {
			t.Fatalf("EpochInvalidations = %d, want 1", got)
		}
	})
}
