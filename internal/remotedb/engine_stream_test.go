package remotedb

import (
	"sync"
	"testing"

	"repro/internal/relation"
)

func newScanEngine(t *testing.T) *Engine {
	t.Helper()
	r := relation.New("t", relation.NewSchema(
		relation.Attr{Name: "id", Kind: relation.KindInt},
		relation.Attr{Name: "grp", Kind: relation.KindInt},
		relation.Attr{Name: "tag", Kind: relation.KindString}))
	tags := []string{"a", "b", "c"}
	for i := 0; i < 200; i++ {
		r.MustAppend(relation.Tuple{
			relation.Int(int64(i)), relation.Int(int64(i % 5)), relation.Str(tags[i%3])})
	}
	e := NewEngine()
	e.LoadTable(r)
	return e
}

// TestScanStreamMatchesExecute: on every streamable statement the pull-based
// scan produces exactly the tuples (and operation count) of the materializing
// executor.
func TestScanStreamMatchesExecute(t *testing.T) {
	e := newScanEngine(t)
	for _, sql := range []string{
		"SELECT * FROM t",
		"SELECT id FROM t",
		"SELECT tag, id FROM t WHERE grp = 2",
		"SELECT * FROM t WHERE id >= 100 AND tag = 'b'",
		"SELECT id FROM t WHERE grp != 0 AND id < 50",
		"SELECT * FROM t WHERE id = grp",
	} {
		sc, ok := e.ExecuteSQLStream(sql)
		if !ok {
			t.Fatalf("%q should be streamable", sql)
		}
		want, wantOps, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		var got []relation.Tuple
		for {
			tu, ok := sc.Next()
			if !ok {
				break
			}
			got = append(got, tu)
		}
		if len(got) != want.Len() {
			t.Fatalf("%q: streamed %d tuples, executor %d", sql, len(got), want.Len())
		}
		for i, tu := range got {
			for j := range tu {
				if !tu[j].Equal(want.Tuple(i)[j]) {
					t.Fatalf("%q: tuple %d mismatch: %v vs %v", sql, i, tu, want.Tuple(i))
				}
			}
		}
		if sc.Ops() != wantOps {
			t.Errorf("%q: streamed ops %d, executor %d", sql, sc.Ops(), wantOps)
		}
		if sc.Schema().Arity() != want.Schema().Arity() {
			t.Errorf("%q: schema arity mismatch", sql)
		}
	}
}

// TestScanStreamFallbacks: statements the pipeline cannot stream are refused
// so the server falls back to the materializing path.
func TestScanStreamFallbacks(t *testing.T) {
	e := newScanEngine(t)
	for _, sql := range []string{
		"SELECT id FROM t ORDER BY id",
		"SELECT DISTINCT grp FROM t",
		"SELECT COUNT(*) FROM t",
		"SELECT grp, COUNT(*) FROM t GROUP BY grp",
		"SELECT * FROM t a, t b WHERE a.id = b.grp",
		"SELECT * FROM missing",
		"not sql at all",
	} {
		if _, ok := e.ExecuteSQLStream(sql); ok {
			t.Errorf("%q must not be streamable", sql)
		}
	}
}

// TestScanStreamLimit: LIMIT stops the scan early instead of scanning the
// whole extension.
func TestScanStreamLimit(t *testing.T) {
	e := newScanEngine(t)
	sc, ok := e.ExecuteSQLStream("SELECT * FROM t LIMIT 3")
	if !ok {
		t.Fatal("LIMIT scan should be streamable")
	}
	n := 0
	for {
		if _, ok := sc.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("limit scan emitted %d tuples, want 3", n)
	}
	if sc.Ops() >= 200 {
		t.Fatalf("limit scan should stop early, did %d ops", sc.Ops())
	}
}

// TestIndexLookupBesideInsert: a plan's iterator tree opens on the first
// pull, outside the engine lock, so an index access path bound under the lock
// is looked up while Inserts append to the live table. The index must be a
// snapshot of the extension it was built over — under -race this fails if
// Lookup touches the live relation — and the point query answers from a state
// the table actually had, both materialized and over the wire. The writer is
// never paced: every mutation moves the epoch, and an open builds and binds
// its plan under one hold of the read lock, so no SELECT may fail or fall back
// however fast the epoch moves.
func TestIndexLookupBesideInsert(t *testing.T) {
	e := newScanEngine(t)
	if err := e.CreateIndex("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := dialTestPool(t, addr, PoolOptions{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 200; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			row := relation.Tuple{relation.Int(int64(i)), relation.Int(0), relation.Str("w")}
			if err := e.Insert("t", []relation.Tuple{row}); err != nil {
				t.Error(err)
				return
			}
			if err := e.CreateIndex("t", []int{0}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const sql = "SELECT tag FROM t WHERE id = 7"
	for i := 0; i < 300; i++ {
		rel, _, err := e.ExecuteSQL(sql)
		if err != nil || rel.Len() != 1 || rel.Tuple(0)[0].AsString() != "b" {
			t.Fatalf("materialized point query: %v, %v", rel, err)
		}
		res, err := p.Exec(sql)
		if err != nil || res.Rel.Len() != 1 || res.Rel.Tuple(0)[0].AsString() != "b" {
			t.Fatalf("wire point query: %v, %v", res, err)
		}
		res, err = p.Exec("SELECT tag FROM t LIMIT 1")
		if err != nil || res.Rel.Len() != 1 || res.Rel.Tuple(0)[0].AsString() != "a" {
			t.Fatalf("wire scan: %v, %v", res, err)
		}
	}
	close(stop)
	wg.Wait()
}
