package remotedb

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/relation"
)

// Tests for kept plan runs (plan_exec.go): a serial run goes back to its
// plan when its stream closes, holding nothing of its statement, and the
// next stream of the shape opens through the same iterator structs.

// TestPlanRunAllocs: a plan-cache hit of each of hitShapes is opened
// streamed, read in place to exhaustion and closed in at most 2 allocations
// for the point and range shapes and 5 for the join, whose arena is made per
// run (its build rows and index are the kept run's; 12 when they were made
// per run); the stream's header costs at most 1 more, the resume token's
// string.
func TestPlanRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	e := newSuppliersEngine(t)
	ctx := context.Background()
	for i, shape := range hitShapes {
		if _, _, err := e.ExecuteSQL(translateShape(t, e, shape, 7)); err != nil {
			t.Fatal(err)
		}
		src := translateShape(t, e, shape, 11)
		sel := mustParseSelect(t, src)
		budget := 2.0
		if i == 3 {
			budget = 5
		}
		rows, hit := 0, true
		allocs := testing.AllocsPerRun(100, func() {
			ps, _, err := e.openStream(ctx, sel, src, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			hit = hit && ps.Cached()
			rows = 0
			for it := ps.inPlace(); ; rows++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			ps.Close()
		})
		if !hit || rows == 0 {
			t.Fatalf("%s: plan-cache hit %v, %d rows", src, hit, rows)
		}
		if allocs > budget {
			t.Errorf("%s: a cached plan opens, streams and closes in %.0f allocations, want at most %.0f", src, allocs, budget)
		}
		ps, _, err := e.openStream(ctx, sel, src, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var hdr wireFrame
		header := testing.AllocsPerRun(100, func() { hdr = streamHeader(1, ps, false) })
		ps.Close()
		if header > 1 {
			t.Errorf("%s: the header's token and attrs cost %.0f allocations, want at most 1", src, header)
		}
		if want := toWireAttrs(ps.Schema()); !reflect.DeepEqual(hdr.Attrs, want) {
			t.Errorf("%s: header attrs %v, want %v", src, hdr.Attrs, want)
		}
		t.Logf("%.0f allocations, header %.0f (%d rows): %s", allocs, header, rows, src)
	}
}

// TestPlanRunReuse: four goroutines stream each of hitShapes over one cached
// plan with many literals at once. Every result and op count equals a fresh
// engine's, with the rows read kept (Next) and in place; a closed stream's
// Ops, Err and DOP read as before Close; every run a plan keeps holds no
// rows, index, key, condition or arena; and a resumed stream on a kept run
// delivers the uninterrupted stream's tail.
func TestPlanRunReuse(t *testing.T) {
	e := newSuppliersEngine(t)
	type want struct {
		rows *relation.Relation
		ops  int64
	}
	// The reference: each statement on an engine of its own, its first and
	// only run.
	wants := map[string]want{}
	var srcs []string
	for _, shape := range hitShapes {
		for k := 0; k < 24; k += 3 {
			src := translateShape(t, e, shape, k)
			fresh := newSuppliersEngine(t)
			rel, ops, err := fresh.ExecuteSQL(src)
			if err != nil {
				t.Fatal(err)
			}
			wants[src] = want{rel, ops}
			srcs = append(srcs, src)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				for i, src := range srcs {
					if err := checkRun(ctx, e, src, wants[src].rows, wants[src].ops, (g+i+round)%2 == 0); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	kept := 0
	for _, src := range srcs {
		e.mu.RLock()
		cached, _, err := e.planForLocked(ctx, mustParseSelect(t, src))
		e.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		if run := cached.kept.Load(); run != nil {
			kept++
			if held := pinned(reflect.ValueOf(run), map[uintptr]bool{}); len(held) > 0 {
				t.Errorf("%s: a kept run holds %v", src, held)
			}
		}
	}
	if kept == 0 {
		t.Fatal("no plan kept a run")
	}

	// Resume on kept runs: the first delivery stops after skip rows, the
	// second resumes there.
	for _, src := range srcs {
		full := streamRows(t, e, src, nil, 0)
		first, _, err := e.openStream(ctx, mustParseSelect(t, src), src, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		tok := first.ResumeToken()
		first.Close()
		if tok.Table == "" {
			continue // the join carries no token
		}
		for _, skip := range []int{0, min(1, len(full)), len(full) / 2, len(full)} {
			if got := streamRows(t, e, src, &tok, int64(skip)); fmt.Sprint(got) != fmt.Sprint(full[skip:]) {
				t.Fatalf("%s resumed after %d rows delivered %v, want %v", src, skip, got, full[skip:])
			}
		}
	}
}

// checkRun streams src once, rows kept or read in place, and compares its
// rows and ops with the reference, and Ops, Err and DOP after Close with
// before.
func checkRun(ctx context.Context, e *Engine, src string, rows *relation.Relation, ops int64, keep bool) error {
	st, err := ParseSQL(src)
	if err != nil {
		return err
	}
	ps, _, err := e.openStream(ctx, st.Select, src, nil, 0)
	if err != nil {
		return err
	}
	got := relation.New("result", ps.Schema())
	if keep {
		for t, ok := ps.Next(); ok; t, ok = ps.Next() {
			got.MustAppend(t)
		}
	} else {
		it := ps.inPlace()
		for t, ok := it.Next(); ok; t, ok = it.Next() {
			got.MustAppend(t.Clone())
		}
	}
	o, er, dop := ps.Ops(), ps.Err(), ps.DOP()
	ps.Close()
	if ps.Ops() != o || ps.Err() != er || ps.DOP() != dop {
		return fmt.Errorf("%s: closed stream reads ops %d, err %v, dop %d; before Close %d, %v, %d", src, ps.Ops(), ps.Err(), ps.DOP(), o, er, dop)
	}
	if !got.EqualAsBag(rows) || o != ops || er != nil {
		return fmt.Errorf("%s: %d rows, %d ops, err %v; a fresh engine's run %d rows, %d ops", src, got.Len(), o, er, rows.Len(), ops)
	}
	return nil
}

// streamRows opens src as the server does, with pin and skip, and reads its
// rows' text, failing when a pin is not honoured.
func streamRows(t *testing.T, e *Engine, src string, pin *ResumeToken, skip int64) []string {
	t.Helper()
	ps, resumed, err := e.openStream(context.Background(), mustParseSelect(t, src), src, pin, skip)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if pin != nil && !resumed {
		t.Fatalf("%s: token %v not honoured", src, *pin)
	}
	var out []string
	for tu, ok := ps.Next(); ok; tu, ok = ps.Next() {
		out = append(out, fmt.Sprint(tu))
	}
	return out
}

var (
	valueType = reflect.TypeOf(relation.Value{})
	tupleType = reflect.TypeOf(relation.Tuple(nil))
	rowsType  = reflect.TypeOf([]relation.Tuple(nil))
	indexType = reflect.TypeOf((*relation.Index)(nil))
	planType  = reflect.TypeOf((*Plan)(nil))
)

// pinned lists what v holds of a statement's data: a non-zero Value (a
// literal, a key, or a value of a row it read, up to a slice's capacity), a
// row slice with rows in it, an index pointer or a map. The plan a run
// belongs to is not followed; seen breaks the run's cycles.
func pinned(v reflect.Value, seen map[uintptr]bool) []string {
	var out []string
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == planType {
			return nil
		}
		if v.Type() == indexType {
			return []string{v.Type().String()}
		}
		if seen[v.Pointer()] {
			return nil
		}
		seen[v.Pointer()] = true
		return pinned(v.Elem(), seen)
	case reflect.Interface:
		if !v.IsNil() {
			return pinned(v.Elem(), seen)
		}
	case reflect.Struct:
		if v.Type() == valueType {
			if !v.IsZero() {
				out = append(out, "a value")
			}
			return out
		}
		for i := 0; i < v.NumField(); i++ {
			for _, h := range pinned(v.Field(i), seen) {
				out = append(out, v.Type().Field(i).Name+": "+h)
			}
		}
	case reflect.Slice:
		if v.Type() == rowsType && v.Len() > 0 {
			return []string{fmt.Sprintf("%d rows", v.Len())}
		}
		n := v.Len()
		if v.Type() == tupleType || v.Type().Elem() == valueType || v.Type() == rowsType {
			n = v.Cap()
			v = v.Slice3(0, n, n)
		}
		for i := 0; i < n; i++ {
			out = append(out, pinned(v.Index(i), seen)...)
		}
	case reflect.Map:
		if !v.IsNil() {
			out = append(out, "a map")
		}
	}
	return out
}

// TestKeptRunDropsLargeLookup: a run whose index scan matched more than
// keptLookupRows rows goes back to its plan without its lookup buffer, and
// one that matched fewer keeps it.
func TestKeptRunDropsLargeLookup(t *testing.T) {
	e := NewEngine()
	r := relation.New("t", relation.NewSchema(
		relation.Attr{Name: "k", Kind: relation.KindInt},
		relation.Attr{Name: "v", Kind: relation.KindInt}))
	for i := 0; i < 4*keptLookupRows; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 3)), relation.Int(int64(i))})
	}
	for i := 0; i < 8; i++ {
		r.MustAppend(relation.Tuple{relation.Int(7), relation.Int(int64(i))})
	}
	e.LoadTable(r)
	if err := e.CreateIndex("t", []int{0}); err != nil {
		t.Fatal(err)
	}
	// run executes src and returns the run its plan then keeps.
	run := func(src string, rows int) *planRun {
		rel, _, err := e.ExecuteSQL(src)
		if err != nil || rel.Len() != rows {
			t.Fatalf("%s: %v rows, %v; want %d", src, rel, err, rows)
		}
		p, err := e.PlanForSQL(src)
		if err != nil {
			t.Fatal(err)
		}
		e.mu.RLock()
		cached, hit, _ := e.planForLocked(context.Background(), p.stmt)
		e.mu.RUnlock()
		if !hit {
			t.Fatalf("%s: not a plan-cache hit", src)
		}
		return cached.kept.Load()
	}
	for _, c := range []struct {
		src  string
		rows int
		kept bool
	}{{"SELECT v FROM t WHERE k = 1", 4 * keptLookupRows / 3, false}, {"SELECT v FROM t WHERE k = 7", 8, true}} {
		kept := run(c.src, c.rows)
		if kept == nil {
			t.Fatalf("%s: no run kept", c.src)
		}
		if lookup := kept.scans[0].lookup; (cap(lookup) > 0) != c.kept || cap(lookup) > keptLookupRows {
			t.Fatalf("%s: the kept run's lookup buffer has capacity %d; kept %v, at most %d", c.src, cap(lookup), c.kept, keptLookupRows)
		}
	}
}

// TestKeptRunDropsLargeBuild: a run whose equi-join built on more than
// keptLookupRows rows goes back to its plan without the build's row slice and
// index arrays, and one that built on fewer keeps them for its next build.
// The small build is part's one row of pid 7: shipment, unindexed on pid,
// streams past it.
func TestKeptRunDropsLargeBuild(t *testing.T) {
	e := newSuppliersEngine(t)
	for _, c := range []struct {
		src  string
		kept bool
	}{
		{"SELECT s.qty, p.color FROM shipment AS s, part AS p WHERE s.pid = p.pid", false},
		{"SELECT s.qty, p.color FROM shipment AS s, part AS p WHERE s.pid = p.pid AND p.pid = 7", true},
	} {
		for range 2 {
			if _, _, err := e.ExecuteSQL(c.src); err != nil {
				t.Fatal(err)
			}
		}
		e.mu.RLock()
		cached, hit, err := e.planForLocked(context.Background(), mustParseSelect(t, c.src))
		e.mu.RUnlock()
		if err != nil || !hit {
			t.Fatalf("%s: plan-cache hit %v, %v", c.src, hit, err)
		}
		run := cached.kept.Load()
		if run == nil {
			t.Fatalf("%s: no run kept", c.src)
		}
		joins := 0
		for _, st := range run.states {
			st, ok := st.(*joinState)
			if !ok {
				continue
			}
			joins++
			if kept := cap(st.rows) > 0 && !reflect.ValueOf(st.ix).IsZero(); kept != c.kept || cap(st.rows) > keptLookupRows {
				t.Errorf("%s: the kept run's build has capacity %d rows, index kept %v; want kept %v, at most %d rows",
					c.src, cap(st.rows), !reflect.ValueOf(st.ix).IsZero(), c.kept, keptLookupRows)
			}
		}
		if joins != 1 {
			t.Fatalf("%s: the kept run has %d join states, want 1", c.src, joins)
		}
	}
}

// TestJoinBuildAllocs: an equi-join's build of 5 000 string keys, presized
// from the optimizer's estimate, drains its rows and indexes them in 2
// allocations (the row slice and the index's array), never per row or per
// key; past its estimate the row slice grows as append grows it; and a join
// state kept from an earlier build rebuilds in place in 0.
// The map of row chains it replaced took 31 allocations and 355 KB for these
// rows in one partition, and 34 in two.
func TestJoinBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	rows := make([]relation.Tuple, 5000)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Str(fmt.Sprintf("d%04d", i)), relation.Int(int64(i))}
	}
	next := 0
	in := relation.IteratorFunc(func() (relation.Tuple, bool) {
		if next == len(rows) {
			return nil, false
		}
		next++
		return rows[next-1], true
	})
	for _, c := range []struct {
		name   string
		est    int
		fresh  bool
		budget float64
	}{
		{"presized", len(rows), true, 2},
		{"past its estimate", 64, true, 11},
		{"rebuilt in place", len(rows), false, 0},
	} {
		n := &joinNode{buildCols: []int{0}, rows: c.est}
		var st joinState
		st.build(n, relation.Empty())
		allocs := testing.AllocsPerRun(10, func() {
			if c.fresh {
				st = joinState{}
			}
			next = 0
			if ix := st.build(n, in); ix.Rows() != len(rows) {
				t.Fatalf("%s: the index holds %d rows, want %d", c.name, ix.Rows(), len(rows))
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s: a 5 000-row build makes %.0f allocations, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
