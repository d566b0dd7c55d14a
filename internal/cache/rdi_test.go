package cache

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/remotedb"
)

// shapeTables are the tables the shape-template tests translate against: an
// int, a mixed and a bool-carrying table, all of arity 3.
func shapeTables() []*relation.Relation {
	attr := func(name string, k relation.Kind) relation.Attr { return relation.Attr{Name: name, Kind: k} }
	shipment := relation.New("shipment", relation.NewSchema(
		attr("sid", relation.KindInt), attr("pid", relation.KindInt), attr("qty", relation.KindInt)))
	part := relation.New("part", relation.NewSchema(
		attr("pid", relation.KindInt), attr("color", relation.KindString), attr("weight", relation.KindFloat)))
	gate := relation.New("gate", relation.NewSchema(
		attr("gid", relation.KindInt), attr("open", relation.KindBool), attr("label", relation.KindString)))
	for i := 0; i < 60; i++ {
		shipment.MustAppend(relation.Tuple{relation.Int(int64(i % 12)), relation.Int(int64(i % 20)), relation.Int(int64(200 + 7*i))})
	}
	for i := 0; i < 20; i++ {
		part.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str([]string{"red", "it's", "blue"}[i%3]), relation.Float(float64(i*5) + 0.5)})
		gate.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Bool(i%2 == 0), relation.Str(fmt.Sprint(i))})
	}
	return []*relation.Relation{shipment, part, gate}
}

func shapeEngine() *remotedb.Engine {
	e := remotedb.NewEngine()
	for _, r := range shapeTables() {
		e.LoadTable(r)
	}
	return e
}

// freshTranslate is what translate must agree with: TranslateCAQL and
// OutputSchema against the RDI's copy of the schema.
func freshTranslate(r *RDI, q *caql.Query) (*remotedb.Translation, *relation.Schema, error) {
	tr, err := remotedb.TranslateCAQL(q, r)
	if err != nil {
		return nil, nil, err
	}
	sch, err := q.OutputSchema(r)
	return tr, sch, err
}

// sameAsFresh fails the test unless q's translation through the RDI is the
// fresh one: byte-identical SQL, an Equal output schema, or the same error.
func sameAsFresh(t *testing.T, r *RDI, q *caql.Query) *remotedb.Translation {
	t.Helper()
	tr, sch, err := r.translate(q)
	ftr, fsch, ferr := freshTranslate(r, q)
	switch {
	case (err == nil) != (ferr == nil):
		t.Fatalf("%s: translate error %v, fresh error %v", q, err, ferr)
	case err != nil:
		if err.Error() != ferr.Error() {
			t.Fatalf("%s: translate error %q, fresh error %q", q, err, ferr)
		}
	case tr.SQL != ftr.SQL:
		t.Fatalf("%s:\nspliced %s\nfresh   %s", q, tr.SQL, ftr.SQL)
	case !slices.Equal(tr.HeadIdx, ftr.HeadIdx) || !sch.Equal(fsch):
		t.Fatalf("%s: head %v %v, fresh %v %v", q, tr.HeadIdx, sch, ftr.HeadIdx, fsch)
	}
	return tr
}

// shapeValues are the constants a generated query draws from, by kind: the
// literals the SQL subset spells with care (quotes, a float with no
// fraction, an exponent, negative zero) and the floats it cannot spell.
var shapeValues = [][]relation.Value{
	{relation.Int(0), relation.Int(7), relation.Int(-3), relation.Int(1 << 40), relation.Int(math.MinInt64)},
	{relation.Float(50), relation.Float(1e21), relation.Float(math.Copysign(0, -1)), relation.Float(0.5),
		relation.Float(math.NaN()), relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)), relation.Float(1e-7)},
	{relation.Str(""), relation.Str("a"), relation.Str("it's"), relation.Str("''"), relation.Str("o'k'"), relation.Str("x y")},
	{relation.Bool(true), relation.Bool(false)},
}

// shapePair decodes data into two queries of one shape, which differ only in
// their constants' values. One byte chooses each choice, and a missing byte
// reads as 0:
//
//	rels := 1 + b%3; per atom a table (b%3), then 3 args
//	arg: b&1 == 0 is the variable XYZW[b>>1 %4]; else a constant of kind
//	     b>>1 %4 (int, float, string, bool), with one value byte per query
//	head := 1 + b%3 positions; c&7 == 7 is a constant arg, else the body's
//	     variable c>>3 (mod their number; X when there is none)
//	cmps := b%3; per comparison an operator (b%6), then two args
func shapePair(data []byte) (q1, q2 *caql.Query) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var vars []string
	arg := func() (logic.Term, logic.Term) {
		b := next()
		if b&1 == 0 {
			v := []string{"X", "Y", "Z", "W"}[(b>>1)%4]
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
			return logic.V(v), logic.V(v)
		}
		pool := shapeValues[(b>>1)%4]
		return logic.C(pool[next()%len(pool)]), logic.C(pool[next()%len(pool)])
	}
	tables := []string{"shipment", "part", "gate"}
	var rels1, rels2 []logic.Atom
	for n := 1 + next()%3; n > 0; n-- {
		pred := tables[next()%3]
		a1, a2 := logic.Atom{Pred: pred}, logic.Atom{Pred: pred}
		for i := 0; i < 3; i++ {
			t1, t2 := arg()
			a1.Args, a2.Args = append(a1.Args, t1), append(a2.Args, t2)
		}
		rels1, rels2 = append(rels1, a1), append(rels2, a2)
	}
	h1, h2 := logic.Atom{Pred: "q1"}, logic.Atom{Pred: "q2"}
	for n := 1 + next()%3; n > 0; n-- {
		c := next()
		switch {
		case c&7 == 7:
			t1, t2 := arg()
			h1.Args, h2.Args = append(h1.Args, t1), append(h2.Args, t2)
		case len(vars) == 0:
			h1.Args, h2.Args = append(h1.Args, logic.V("X")), append(h2.Args, logic.V("X"))
		default:
			v := logic.V(vars[(c>>3)%len(vars)])
			h1.Args, h2.Args = append(h1.Args, v), append(h2.Args, v)
		}
	}
	ops := []relation.CmpOp{relation.OpEq, relation.OpNe, relation.OpLt, relation.OpLe, relation.OpGt, relation.OpGe}
	for n := next() % 3; n > 0; n-- {
		op := ops[next()%len(ops)]
		l1, l2 := arg()
		r1, r2 := arg()
		rels1, rels2 = append(rels1, logic.A(op.String(), l1, r1)), append(rels2, logic.A(op.String(), l2, r2))
	}
	return caql.NewQuery(h1, rels1), caql.NewQuery(h2, rels2)
}

// FuzzTranslateByShape: the second of two queries of one shape, translated
// through the RDI from the first one's template, has the SQL, output schema
// and error TranslateCAQL and OutputSchema give it fresh. The seeds cover
// quotes in strings, 50.0, 1e21, -0.0, NaN and ±Inf, repeated variables,
// constants on either side of a comparison, comparisons of two constants and
// head constants (no shape: translated fresh), and a query that fails
// validation.
func FuzzTranslateByShape(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 2, 4, 0, 0, 0},                                         // q(X) :- shipment(X, Y, Z)
		{0, 0, 1, 0, 2, 2, 4, 1, 0, 0, 1, 4, 2, 1, 1, 3},                 // shipment(0|-3, Y, Z) & Y > 7|1<<40, head Y, Y
		{0, 1, 0, 2, 6, 1, 0, 8, 2, 0, 2, 5, 2, 4, 1, 5, 3, 5, 2},        // Y = "it's"|"o'k'" & "''"|"x y" != Y
		{1, 0, 0, 2, 4, 1, 2, 6, 3, 0, 1, 2, 0, 8, 24, 1, 5, 4, 3, 3, 7}, // a join, 50.0|1e21, Z >= 0.5|1e-7
		{0, 1, 0, 2, 3, 0, 4, 0, 0, 0},                                   // part(X, Y, 50.0|NaN)
		{0, 1, 0, 2, 6, 0, 0, 1, 2, 6, 3, 5, 2},                          // W < +Inf|-0.0
		{0, 0, 0, 2, 4, 0, 0, 1, 2, 3, 2, 3, 4},                          // -0.0|0.5 < Z
		{0, 2, 0, 7, 0, 1, 2, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0},              // gate(X, true|false, Y) & 0|7 = 0
		{0, 2, 0, 2, 4, 1, 0, 7, 7, 0, 1, 0},                             // q(X, true|false) :- gate(X, Y, Z)
		{0, 0, 0, 2, 4, 0, 0, 1, 0, 6, 1, 0, 0},                          // W = 0, W bound nowhere
		{2, 0, 0, 0, 2, 1, 0, 4, 3, 1, 0, 2, 2, 7, 1, 0, 4, 1, 0, 16, 0}, // three atoms, X repeated
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := shapeEngine()
		r := NewRDI(remotedb.NewInProcClient(e, remotedb.DefaultCosts()))
		q1, q2 := shapePair(data)
		_, ok := remotedb.CAQLShape(q1)
		if _, ok2 := remotedb.CAQLShape(q2); ok != ok2 {
			t.Fatalf("%s and %s: shape %v and %v", q1, q2, ok, ok2)
		}
		if sameAsFresh(t, r, q1) != nil && ok {
			key, _ := remotedb.CAQLShape(q2)
			if en := r.shapes[key]; en == nil || !en.tmpl.Fits(q2) {
				t.Fatalf("%s has no template after %s", q2, q1)
			}
		}
		sameAsFresh(t, r, q2)
	})
}

// TestShapeTemplateFollowsReplacedTable: a shape's template is built against
// its tables' schemas, and a LoadTable that replaces shipment — with another
// arity, then another kind in one column, then other column names — retires
// it once a request has observed the new version: the next query of the
// shape fails its arity check, types its column by the new kind, and names
// the new columns, as a fresh translation does, and is answered as caql.Eval
// answers it.
func TestShapeTemplateFollowsReplacedTable(t *testing.T) {
	overBothTransports(t, func(t *testing.T, e *remotedb.Engine, client remotedb.Client) {
		ship := shapeTables()[0]
		e.LoadTable(ship)
		cms := New(client, Options{Features: AllFeatures(), Costs: remotedb.DefaultCosts()})
		s := cms.BeginSession(nil).(*Session)
		defer s.End()
		query := func(i int) string { return fmt.Sprintf("q%d(P, Q) :- shipment(%d, P, Q) & Q >= %d", i, i, 200+i) }
		sameAsFresh(t, cms.rdi, caql.MustParse(query(1)))
		if len(cms.rdi.shapes) != 1 {
			t.Fatalf("%d shapes cached, want 1", len(cms.rdi.shapes))
		}
		attr := func(name string, k relation.Kind) relation.Attr { return relation.Attr{Name: name, Kind: k} }
		for i, next := range []*relation.Schema{
			relation.NewSchema(attr("sid", relation.KindInt), attr("pid", relation.KindInt), attr("qty", relation.KindInt), attr("at", relation.KindInt)),
			relation.NewSchema(attr("sid", relation.KindInt), attr("pid", relation.KindInt), attr("qty", relation.KindFloat)),
			relation.NewSchema(attr("supplier", relation.KindInt), attr("part", relation.KindInt), attr("amount", relation.KindInt)),
		} {
			rel := relation.New("shipment", next)
			for k := 0; k < 12; k++ {
				row := relation.Tuple{relation.Int(int64(k % 4)), relation.Int(int64(k)), relation.Int(int64(200 + 3*k)), relation.Int(0)}[:next.Arity()]
				if next.Attr(2).Kind == relation.KindFloat {
					row[2] = relation.Float(float64(200+3*k) + 0.25)
				}
				rel.MustAppend(row)
			}
			e.LoadTable(rel)
			if _, err := client.Exec("SELECT pid FROM p WHERE pid = 1"); err != nil { // observes the new shipment
				t.Fatal(err)
			}
			text := query(2 + i)
			q := caql.MustParse(text)
			tr := sameAsFresh(t, cms.rdi, q)
			if next.Arity() != 3 {
				if tr != nil {
					t.Fatalf("%s over a shipment of arity %d: translated to %s", text, next.Arity(), tr.SQL)
				}
				continue
			}
			_, sch, _ := cms.rdi.translate(q)
			if sch.Attr(1).Kind != next.Attr(2).Kind || !strings.Contains(tr.SQL, "t0."+next.Attr(0).Name+" = ") {
				t.Fatalf("%s over shipment%v: schema %v, SQL %s", text, next, sch, tr.SQL)
			}
			want, err := caql.Eval(q, caql.MapSource{"shipment": rel})
			if err != nil {
				t.Fatal(err)
			}
			if got := drainQ(t, s, text); !got.EqualAsBag(want) || !got.Schema().Equal(want.Schema()) {
				t.Fatalf("%s: got %v %v, want %v %v", text, got.Schema(), got.Tuples(), want.Schema(), want.Tuples())
			}
		}
	})
}

// TestMissTranslateAllocs: a query whose shape the RDI has translated before
// costs two allocations to translate — the SQL text and the Translation —
// and the output schema none.
func TestMissTranslateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := NewRDI(remotedb.NewInProcClient(shapeEngine(), remotedb.DefaultCosts()))
	sameAsFresh(t, r, caql.MustParse(`q1(P, Q, W) :- shipment(1, P, Q) & part(P, "red", W) & W >= 50.0`))
	q := caql.MustParse(`q2(P, Q, W) :- shipment(2, P, Q) & part(P, "it's", W) & W >= 12.5`)
	sameAsFresh(t, r, q)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := r.translate(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per translation", allocs)
	if allocs > 2 {
		t.Errorf("%v allocations per translation of a cached shape, budget 2", allocs)
	}
}

// TestRemoteRowsSurviveLaterMisses: a head that is its select list is
// handed out as the wire row itself, so a remote row must stay valid once
// handed out. A miss's stream is half read, each row kept with a copy taken
// as it is handed out, and left open while four more misses of its shape
// run to their end on the same RDI; then every kept row must equal its copy,
// and the rest of the stream must complete the answer caql.Eval gives.
func TestRemoteRowsSurviveLaterMisses(t *testing.T) {
	for _, transport := range []string{"inproc", "pool"} {
		t.Run(transport, func(t *testing.T) {
			e := shapeEngine()
			client := remotedb.Client(remotedb.NewInProcClient(e, remotedb.DefaultCosts()))
			if transport == "pool" {
				srv := remotedb.NewServer(e)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				pool, err := remotedb.DialPool(addr, remotedb.PoolOptions{Size: 1, FrameTuples: 4, Costs: remotedb.DefaultCosts()})
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Close()
				client = pool
			}
			r := NewRDI(client)
			src := caql.MapSource{}
			for _, rel := range shapeTables() {
				src[rel.Name] = rel
			}
			query := func(lo int) *caql.Query {
				return caql.MustParse(fmt.Sprintf("q(S, P, Q) :- shipment(S, P, Q) & Q >= %d", lo))
			}
			q := query(200)
			fs, err := r.FetchStreamCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			want, err := caql.Eval(q, src)
			if err != nil {
				t.Fatal(err)
			}
			var kept, copies []relation.Tuple
			for len(kept) < want.Len()/2 {
				tu, ok := fs.Next()
				if !ok {
					t.Fatalf("stream ended after %d of %d rows: %v", len(kept), want.Len(), fs.Err())
				}
				kept, copies = append(kept, tu), append(copies, slices.Clone(tu))
			}
			if row := kept[0]; !sameBacking(mustReassemble(t, fs.tr, row), row) {
				t.Fatalf("%s: the head row is not the wire row", q)
			}
			for i := 1; i <= 4; i++ {
				lq := query(200 + 40*i)
				got, _, _, err := r.FetchCtx(context.Background(), lq)
				if err != nil {
					t.Fatal(err)
				}
				lwant, err := caql.Eval(lq, src)
				if err != nil {
					t.Fatal(err)
				}
				if !got.EqualAsBag(lwant) {
					t.Fatalf("%s: got %v, want %v", lq, got.Tuples(), lwant.Tuples())
				}
			}
			for i, tu := range kept {
				if !tu.Equal(copies[i]) {
					t.Fatalf("kept row %d is %v, was %v", i, tu, copies[i])
				}
			}
			rest, err := remotedb.DrainStream("rest", fs)
			if err != nil {
				t.Fatal(err)
			}
			got := relation.FromTuples("out", fs.Schema(), append(kept, rest.Tuples()...))
			if !got.EqualAsBag(want) {
				t.Fatalf("kept and drained %v, want %v", got.Tuples(), want.Tuples())
			}
		})
	}
}

func mustReassemble(t *testing.T, tr *remotedb.Translation, row relation.Tuple) relation.Tuple {
	t.Helper()
	out, err := tr.ReassembleTuple(row)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameBacking(a, b relation.Tuple) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
