package cache

import (
	"context"
	"slices"
	"testing"

	"repro/internal/advice"
	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/subsume"
)

// FuzzShapeMemo holds the shape memo to the plans it stands for (INVARIANTS
// row 6), on FuzzCacheInvisible's generator and contract: every answer is
// checked as FuzzCacheInvisible checks it, and every query a memo entry
// answers is planned fresh as well, at that moment, and must get the same
// verdict kind, the same element and the same derivation (conditions with
// their constants, output columns and constants, cover, covered
// comparisons, emptiness).
func FuzzShapeMemo(f *testing.F) {
	for _, s := range append(slices.Clip(invisibleSeeds), memoSeeds...) {
		f.Add(s.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeInvisible(data)
		c.memo = true
		runInvisible(t, c)
	})
}

// memoSeeds ask one shape again and again around the changes a memo entry
// must not outlive. With a budget of half the peak the script runs again
// evicting.
var memoSeeds = []invisibleSeed{
	{name: "shape memo: recalled, pinned, written, evicted, ranges", flags: 2, steps: [][4]byte{
		{opPoint, 1, 0x80, 0xf0}, // all of b2
		{opPoint, 1, 0, 0xf2},    // b2(2, Y): subsumed, memoised
		{opPoint, 1, 0, 0xf3},    // b2(3, Y): recalled
		{opPoint, 1, 0, 0xf4},    // b2(4, Y): recalled
		{opJoin, 0x10, 1, 0x09},  // q(L0, L1) :- b1(L0, L1) & b2(4, L1): cached, pins b2's first column at 4
		{opPoint, 1, 0, 0xf4},    // b2(4, Y): its key is filed, planned fresh
		{opPoint, 1, 0, 0xf5},    // b2(5, Y): memoised again
		{opPoint, 1, 0, 0xf6},    // recalled
		{opRange, 1, 0, 0x12},    // 2 <= X < 5 over b2: subsumed, memoised
		{opRange, 1, 0, 0x15},    // 5 <= X < 8: recalled, comparison constants bound
		{opInsert, 1, 0, 3},      // b2 moves
		{opPoint, 1, 0, 0xf2},    // the epoch moved: planned fresh, b2 refetched
		{opPoint, 1, 0x80, 0xf0}, // all of b2 again
		{opPoint, 1, 0, 0xf3},    // memoised
		{opPoint, 2, 0x80, 0xf0}, // all of b3: under the budget, an eviction
		{opPoint, 1, 0, 0xf7},    // planned fresh
		{opPoint, 1, 0, 0xf1},    // recalled
		{opRange, 1, 1, 0x23},
		{opRange, 1, 1, 0x24},
	}},
	{name: "shape memo: what a recall must not stand for", steps: [][4]byte{
		{opPoint, 1, 0, 0xf2},    // b2(2, Y): fetched, pins b2's first column at 2
		{opRepeat, 0, 0, 0},      // exact; a query with constants keeps no exact verdict
		{opPoint, 1, 0, 0xf6},    // b2(6, Y): fetched
		{opPoint, 1, 0x80, 0xf0}, // all of b2
		{opPoint, 1, 0, 0xf3},    // b2(3, Y): subsumed, memoised
		{opPoint, 1, 0, 0xf4},    // recalled
		{opPoint, 1, 0, 0xf2},    // b2(2, Y): its key is filed, an exact hit
		{opNarrow, 0, 0, 0x03},   // b2(2, Y) & Y >= 1: subsumed from b2(2, Y), not memoised
		{opNarrow, 4, 0, 0x05},   // b2(3, Y) & Y >= 2: planned fresh, from all of b2
		{opRange, 0, 0, 0x52},    // q(X, Y) :- b1(X, Y) & 2 <= Y < 5: fetched
		{opPoint, 0, 0x80, 0xf0}, // all of b1
		{opPoint, 0, 1, 0xf1},    // b1(X, 1): a range is filed beside all of b1, not memoised
		{opPoint, 0, 1, 0xf3},    // b1(X, 3): subsumed from the range
	}},
	{name: "shape memo: head constants, comparisons, empty answers", steps: [][4]byte{
		{opPoint, 2, 0x80, 0xf0}, // all of b3
		{opNarrow, 0, 0, 0x04},   // q(2, Y, Z) :- b3(2, Y, Z): memoised
		{opNarrow, 0, 0, 0x06},   // q(3, Y, Z): recalled, its head constant bound
		{opNarrow, 0, 1, 0x02},   // q(X, "b", Z)
		{opNarrow, 0, 1, 0x04},   // q(X, "c", Z): recalled
		{opNarrow, 0, 2, 0x03},   // Z >= 1
		{opNarrow, 0, 2, 0x07},   // Z >= 3: recalled
		{opNarrow, 5, 2, 0x00},   // Z = 0 in head, atom and comparison, 0 >= 1: empty; two equal
		{opNarrow, 5, 2, 0x04},   // constants name no slot, so neither is memoised
	}},
	{name: "shape memo: joins, narrowed heads, programs", flags: seedDOP4, steps: [][4]byte{
		{opPoint, 1, 0x80, 0xf0}, // all of b2
		{opPoint, 2, 0x80, 0xf0}, // all of b3
		{opJoin, 0x21, 1, 0xf0},  // b3 ⋈ b2: covered
		{opPoint, 2, 1, 0xf1},    // b3(X, "b", Z): subsumed
		{opPoint, 2, 1, 0xf2},    // b3(X, "c", Z): recalled
		{opNarrow, 3, 0, 0x04},   // a constant for a head variable
		{opNarrow, 4, 0, 0x06},   // the same shape, another constant
		{opNarrow, 3, 1, 0x05},   // a comparison
		{opNarrow, 4, 1, 0x07},   // the same shape
		{opProgram, 0, 0, 0},
		{opRepeat, 0, 1, 0}, // all of b2 renamed: exact
		{opRepeat, 0, 0, 0}, // recalled
		{opInsertDuringDrain, 3, 2, 4},
		{opPoint, 2, 1, 0xf3},
	}},
}

// memoReach counts what a run's shape memo met: queries it answered, with
// comparison constants among them, and queries of a shape asked before that
// it could not answer because an element pinning one of their constants
// arrived, the epoch moved or an element was evicted since.
type memoReach struct {
	hits, cmpHits, pinned, written, evicted int
}

// memoWatch checks a world's memo hits against fresh plans and counts what
// the memo met.
type memoWatch struct {
	w    *invisibleWorld
	last map[string]memoMark // by shape key: the state after the shape was last asked
	hit  bool                // the query being asked was recalled
	pre  memoMark            // the state before it was asked
}

// memoMark is the part of the cache's state a memo entry depends on.
type memoMark struct {
	epoch     uint64
	evictions int64
	pinning   int // resident elements with a constant in an atom
}

func (m *memoWatch) mark() memoMark {
	mk := memoMark{epoch: m.w.cms.rdi.ObservedEpoch(), evictions: m.w.cms.mgr.Evictions()}
	for _, e := range m.w.cms.mgr.Elements() {
		if !relsConstantFree(e.Def) {
			mk.pinning++
		}
	}
	return mk
}

func (m *memoWatch) before() {
	if m != nil {
		m.hit, m.pre = false, m.mark()
	}
}

// after counts what the query the world just asked met.
func (m *memoWatch) after(q *caql.Query) {
	if m == nil {
		return
	}
	r := &m.w.res.memo
	key, ok := appendShapeKey(nil, q)
	if !ok {
		return
	}
	if m.hit {
		r.hits++
		if cmpsHaveConstants(q) {
			r.cmpHits++
		}
	} else if last, seen := m.last[string(key)]; seen {
		switch {
		case m.pre.pinning > last.pinning && constantsFiled(m.w.cms.mgr, q):
			r.pinned++
		case m.pre.epoch != last.epoch:
			r.written++
		case m.pre.evictions != last.evictions:
			r.evicted++
		}
	}
	m.last[string(key)] = m.mark()
}

func cmpsHaveConstants(q *caql.Query) bool {
	for _, c := range q.Cmps {
		if c.Args[0].IsConst() || c.Args[1].IsConst() {
			return true
		}
	}
	return false
}

// constantsFiled reports whether an element is filed under a key of one of
// q's constants.
func constantsFiled(m *Manager, q *caql.Query) bool {
	for _, a := range q.Rels {
		for p, t := range a.Args {
			if t.IsConst() && m.mayFile(sigKey(a, p)) {
				return true
			}
		}
	}
	return false
}

// recalled checks a recall and counts it.
func (m *memoWatch) recalled(s *Session, q *caql.Query, ent *memoEntry) {
	m.hit = true
	checkRecall(m.w.t, s, q, ent)
}

// checkRecall plans q fresh, as the session would have, and holds the memo's
// entry to that plan.
func checkRecall(t *testing.T, s *Session, q *caql.Query, ent *memoEntry) {
	t.Helper()
	var blk subsume.PreparedBlock
	v, _, err := s.fromCache(context.Background(), nil, subsume.PrepareInto(&blk, q), q.AppendCanonical(nil), s.staleChecker())
	if err != nil {
		t.Fatalf("%s: the fresh plan fails: %v", q, err)
	}
	if v.kind != ent.kind || v.e != ent.e {
		t.Fatalf("%s: the memo answers %s from %v; a fresh plan %s from %v", q, kindNames[ent.kind], ent.e, kindNames[v.kind], v.e)
	}
	if why := sameDerivation(ent.d, v.d); why != "" {
		t.Fatalf("%s: the memo's derivation from %v differs from a fresh plan's: %s", q, v.e, why)
	}
}

// sameDerivation is "" when got and want are the same derivation, and what
// differs otherwise.
func sameDerivation(got, want *subsume.Derivation) string {
	gc, wc := got.Candidate, want.Candidate
	switch {
	case gc.Element != wc.Element:
		return "element definition"
	case !slices.Equal(gc.Cover, wc.Cover):
		return "cover"
	case !slices.Equal(gc.CoveredCmps, wc.CoveredCmps):
		return "covered comparisons"
	case !slices.EqualFunc(gc.Conds, wc.Conds, sameCond):
		return "conditions"
	case !slices.Equal(got.OutCols, want.OutCols):
		return "output columns"
	case got.Empty != want.Empty:
		return "emptiness"
	}
	for i, c := range want.OutCols {
		if c < 0 && !sameValue(got.Consts[i], want.Consts[i]) {
			return "head constants"
		}
	}
	return ""
}

func sameCond(a, b relation.Cond) bool {
	return a.Left == b.Left && a.Right == b.Right && a.Op == b.Op && (a.Right >= 0 || sameValue(a.Const, b.Const))
}

func sameValue(a, b relation.Value) bool { return a.Kind() == b.Kind() && a.Equal(b) }

// TestShapeMemoSeedsReach: FuzzShapeMemo's seeds reach memo hits, with
// comparison constants among them, and a shape asked again after an element
// pinning its constants arrived, after the epoch moved and after an
// eviction, each of which it must plan fresh.
func TestShapeMemoSeedsReach(t *testing.T) {
	var total memoReach
	for _, s := range memoSeeds {
		c := decodeInvisible(s.encode())
		c.memo = true
		for _, run := range runInvisible(t, c) {
			r := run.memo
			total.hits += r.hits
			total.cmpHits += r.cmpHits
			total.pinned += r.pinned
			total.written += r.written
			total.evicted += r.evicted
		}
	}
	t.Logf("%+v", total)
	if total.hits == 0 || total.cmpHits == 0 || total.pinned == 0 || total.written == 0 || total.evicted == 0 {
		t.Errorf("the seeds do not reach every case: %+v", total)
	}
}

// TestShapeMemoYieldsToPinnedElement: an entry planned from the whole of b2
// does not answer a query whose constant an element arriving later pins;
// that query is an exact hit of the new element, as a fresh plan finds, and
// the shape's other constants are recalled again once it is memoised anew.
func TestShapeMemoYieldsToPinnedElement(t *testing.T) {
	e, src := fixtureEngine(t, 3, 40)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	recalls := 0
	cms.recalled = func(*Session, *caql.Query, *memoEntry) { recalls++ }
	s := cms.BeginSession(nil).(*Session)
	defer s.End()
	drainQ(t, s, "all(X, Y) :- b2(X, Y)")
	ask := func(text, kind string, recalled bool) {
		t.Helper()
		q := caql.MustParse(text)
		before, exact := recalls, cms.Stats().ExactHits
		got := drainQ(t, s, text)
		want, err := caql.Eval(q, src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) {
			t.Fatalf("%s: %v, want %v", text, got.Tuples(), want.Tuples())
		}
		if gotKind := map[bool]string{true: "exact", false: "subsumed"}[cms.Stats().ExactHits > exact]; gotKind != kind {
			t.Fatalf("%s: a %s hit, want %s", text, gotKind, kind)
		}
		if (recalls > before) != recalled {
			t.Fatalf("%s: recalled %v, want %v", text, recalls > before, recalled)
		}
	}
	ask("p(Y) :- b2(2, Y)", "subsumed", false)
	ask("p(Y) :- b2(3, Y)", "subsumed", true)

	def := caql.MustParse("e(Y) :- b2(5, Y)")
	ext, err := caql.Eval(def, src)
	if err != nil {
		t.Fatal(err)
	}
	pinned := newExtensionElement(cms.mgr.NewElementID(), def, def.Canonical(), ext)
	pinned.builtEpoch = cms.rdi.ObservedEpoch()
	cms.mgr.Insert(pinned)
	ask("p(Y) :- b2(4, Y)", "subsumed", false) // the generation moved
	ask("p(Y) :- b2(5, Y)", "exact", false)    // its constant is pinned
	ask("p(Y) :- b2(6, Y)", "subsumed", false) // memoised anew by b2(4, Y), but b2(5, Y)'s plan replaced it
	ask("p(Y) :- b2(7, Y)", "subsumed", true)
	ask("p(Y) :- b2(5, Y)", "exact", false)
}

// TestShapeMemoFollowsPublishAndRemove: a recall stands for the cache it
// was planned in. An element published since, which a fresh plan would
// choose, and the recalled element's removal each make the shape be
// planned fresh.
func TestShapeMemoFollowsPublishAndRemove(t *testing.T) {
	e, src := fixtureEngine(t, 3, 40)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	recalls := 0
	cms.recalled = func(s *Session, q *caql.Query, ent *memoEntry) {
		recalls++
		checkRecall(t, s, q, ent)
	}
	s := cms.BeginSession(nil).(*Session)
	defer s.End()
	drainQ(t, s, "all(X, Y) :- b2(X, Y)")
	whole := s.cms.mgr.Elements()[0]
	ask := func(text string, recalled bool, from *Element) {
		t.Helper()
		before, remote := recalls, cms.Stats().RemoteRequests
		var hits int64
		if from != nil {
			hits = from.hits.Load()
		}
		got := drainQ(t, s, text)
		want, err := caql.Eval(caql.MustParse(text), src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) {
			t.Fatalf("%s: %v, want %v", text, got.Tuples(), want.Tuples())
		}
		if (recalls > before) != recalled {
			t.Fatalf("%s: recalled %v, want %v", text, recalls > before, recalled)
		}
		if from != nil && from.hits.Load() == hits || from == nil && cms.Stats().RemoteRequests == remote {
			t.Fatalf("%s: not answered from %v", text, from)
		}
	}
	// The third equality selection indexes the whole of b2's first column,
	// so a copy of it without the index is the smaller element.
	for _, c := range []string{"1", "2", "3"} {
		ask("p(Y) :- b2("+c+", Y)", c != "1", whole)
	}
	def := caql.MustParse("c(B, A) :- b2(A, B)")
	ext, err := caql.Eval(def, src)
	if err != nil {
		t.Fatal(err)
	}
	private := newExtensionElement(cms.mgr.NewElementID(), def, def.Canonical(), ext)
	private.builtEpoch = cms.rdi.ObservedEpoch()
	private.ownerSID.Store(s.id + 1000) // another session's prefetch
	cms.mgr.Insert(private)
	ask("p(Y) :- b2(4, Y)", false, whole) // the generation moved; the private copy is not this session's
	ask("p(Y) :- b2(5, Y)", true, whole)
	cms.mgr.publish(private)
	ask("p(Y) :- b2(6, Y)", false, private) // published: the smaller copy answers
	ask("p(Y) :- b2(7, Y)", true, private)
	cms.mgr.Remove(private)
	ask("p(Y) :- b2(7, Y)", false, whole)
	cms.mgr.Remove(whole)
	ask("p(Y) :- b2(7, Y)", false, nil) // fetched
}

// TestShapeMemoBindsConstants: a recall binds the query's constants into
// the entry's selections and head, and decides its emptiness by the query's
// own constant comparisons, whichever way the planned query went. A query
// whose selections could read either of two equal constants is not
// memoised.
func TestShapeMemoBindsConstants(t *testing.T) {
	e, src := fixtureEngine(t, 3, 40)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	recalls := 0
	cms.recalled = func(s *Session, q *caql.Query, ent *memoEntry) {
		recalls++
		checkRecall(t, s, q, ent)
	}
	s := cms.BeginSession(nil).(*Session)
	defer s.End()
	drainQ(t, s, "all(X, Y) :- b2(X, Y)")
	drainQ(t, s, "all(X, Y, Z) :- b3(X, Y, Z)")
	for _, tc := range []struct {
		text    string
		recalls int
	}{
		{"p(2, Y) :- b2(2, Y) & Y > 1 & 3 >= 4", 0}, // empty, memoised
		{"p(5, Y) :- b2(5, Y) & Y > 2 & 3 >= 1", 1}, // recalled, not empty
		{"p(6, Y) :- b2(6, Y) & Y > 0 & 1 >= 4", 2}, // recalled, empty
		{"p(7, Y) :- b2(7, Y) & Y > 3 & 9 >= 8", 3},
		{"q(Y) :- b3(2, Y, 2)", 3}, // two equal constants name no slot: not memoised
		{"q(Y) :- b3(3, Y, 5)", 3}, // memoised
		{"q(Y) :- b3(4, Y, 4)", 4},
	} {
		text := tc.text
		got := drainQ(t, s, text)
		want, err := caql.Eval(caql.MustParse(text), src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) || !slices.Equal(got.Schema().Attrs(), want.Schema().Attrs()) {
			t.Fatalf("%s: %v %v, want %v %v", text, got.Schema().Attrs(), got.Tuples(), want.Schema().Attrs(), want.Tuples())
		}
		if recalls != tc.recalls {
			t.Fatalf("%s: %d recalls so far, want %d", text, recalls, tc.recalls)
		}
	}
}

// TestShapeKey: two queries share a shape key exactly when they differ only
// in variable names, head predicate and constant values of the same kinds.
func TestShapeKey(t *testing.T) {
	key := func(text string) string {
		k, ok := appendShapeKey(nil, caql.MustParse(text))
		if !ok {
			t.Fatalf("%s: no key", text)
		}
		return string(k)
	}
	same := [][2]string{
		{"p(Y) :- b2(2, Y)", "q(Z) :- b2(7, Z)"},
		{`q(X, "a") :- b3(X, "a", Z) & X >= 2`, `r(A, "b") :- b3(A, "c", B) & A >= 5`},
		{"q(X, Y) :- b2(X, Z) & b2(Z, Y)", "r(A, C) :- b2(A, B) & b2(B, C)"},
	}
	for _, p := range same {
		if key(p[0]) != key(p[1]) {
			t.Errorf("%s and %s: different keys", p[0], p[1])
		}
	}
	differ := [][2]string{
		{"p(Y) :- b2(2, Y)", "p(Y) :- b2(Y, 2)"},                  // the constant's position
		{"p(Y) :- b2(2, Y)", `p(Y) :- b2("2", Y)`},                // its kind
		{"p(Y) :- b2(2, Y)", "p(Y) :- b1(2, Y)"},                  // the relation
		{"p(X, Y) :- b2(X, Y)", "p(Y, X) :- b2(X, Y)"},            // the variable pattern
		{"p(X) :- b2(X, X)", "p(X) :- b2(X, Y)"},                  // a repeated variable
		{"p(X) :- b2(X, Y) & X < 3", "p(X) :- b2(X, Y) & X <= 3"}, // the comparison
		{"p(X) :- b2(X, Y) & X < 3", "p(X) :- b2(X, Y) & Y < 3"},
		{"p(X, 2) :- b2(X, Y)", "p(X, Y) :- b2(X, Y)"}, // a head constant
	}
	for _, p := range differ {
		if key(p[0]) == key(p[1]) {
			t.Errorf("%s and %s: one key", p[0], p[1])
		}
	}
}

// TestShapeMemoAllocs: a memo hit, and a query the memo cannot answer whose
// fresh plan is stored over its shape's kept entry, allocate nothing more
// than a fresh plan's hit; closed, nothing at all.
func TestShapeMemoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, _ := fixtureEngine(t, 5, 40)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	recalls := 0
	cms.recalled = func(*Session, *caql.Query, *memoEntry) { recalls++ }
	s := cms.BeginSession(advice.MustParse(hitPathAdvice)).(*Session)
	defer s.End()
	drainQ(t, s, "dx(X, Y) :- b2(X, Y)")
	// Pins b2's first column at 4: a query of b2 at 4 is planned fresh, and
	// its plan stored over the shape's entry, every time.
	drainQ(t, s, "j(L0, L1) :- b1(L0, L1) & b2(4, L1)")
	for _, tc := range []struct {
		name, query string
		recalled    bool
	}{
		{"recalled", "p(Y) :- b2(5, Y)", true},
		{"planned and stored", "p(Y) :- b2(4, Y)", false},
	} {
		q := caql.MustParse(tc.query)
		ask := func() {
			st, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
		}
		for i := 0; i < 3; i++ { // build the index, memoise the shape, grow the scratch
			ask()
		}
		before := recalls
		if allocs := testing.AllocsPerRun(50, ask); allocs != 0 {
			t.Errorf("%s: %v allocations per hit, want 0", tc.name, allocs)
		}
		if got := recalls > before; got != tc.recalled {
			t.Errorf("%s: recalled %v, want %v", tc.name, got, tc.recalled)
		}
	}
}
