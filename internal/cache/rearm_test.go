package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/caql"
)

// example1Views are the views example1Advice's path names.
var example1Views = []string{"d1", "d2", "d3"}

// predicted is what tr's Distance tells of the given views within k
// observations, as "view/distance" for each view it predicts, or nil when it
// predicts none (as a lost tracker does).
func predicted(tr *advice.Tracker, k int, views []string) []string {
	var out []string
	for _, v := range views {
		if d, ok := tr.Distance(k, v); ok {
			out = append(out, fmt.Sprintf("%s/%d", v, d))
		}
	}
	return out
}

// rearm begins a session with adv on a CMS of its own, runs warm on it,
// ends it, and begins another session with adv, which check gets with the
// ended one, once the new session has borrowed the scratch the ended one
// gave back. A sync.Pool may drop what it is given, and under the race
// detector it drops a quarter of it, so rearm tries again on a new CMS until
// the scratch is borrowed.
func rearm(t *testing.T, adv string, warm func(cms *CMS, s *Session), check func(cms *CMS, ended, s *Session)) {
	t.Helper()
	for try := 0; try < 20; try++ {
		e, _ := fixtureEngine(t, 5, 40)
		cms := newCMS(t, e, Options{Features: AllFeatures(), ThinkTimeMS: 1000})
		ended := cms.BeginSession(advice.MustParse(adv)).(*Session)
		warm(cms, ended)
		sc := ended.scratch
		ended.End()
		s := cms.BeginSession(advice.MustParse(adv)).(*Session)
		if s.scratch == sc {
			check(cms, ended, s)
			s.End()
			return
		}
		s.End()
	}
	t.Fatal("no session borrowed an ended session's scratch in 20 tries")
}

// TestRearmedSessionForgets: a session that borrows an ended session's
// scratch keeps its buffers and nothing else. The ended session observed
// queries until its tracker was lost, memoised a follower, counted a sibling
// instance for generalization, issued a prefetch, memoised a shape and moved
// its clock. The new session has its own ID and clock, a tracker that
// predicts what a fresh one predicts, the replacement predictor reading that
// tracker under its own ID, and empty memos (its shape memo's kept entries
// pointing at nothing), counts and prefetch sets.
func TestRearmedSessionForgets(t *testing.T) {
	rearm(t, example1Advice, func(cms *CMS, s *Session) {
		drainQ(t, s, `d1(Y) :- b1("a", Y)`)
		drainQ(t, s, `d2(X, 3) :- b2(X, Z) & b3(Z, "a", 3)`)  // memoises d2's followers, prefetches d3
		drainQ(t, s, `g("a", Y) :- b1("a", Y)`)               // outside the path: the tracker is lost, g counted
		prefetched := cms.Stats().Prefetches                  // g waited the prefetch in
		lost := predicted(s.tracker, 8, example1Views) == nil // a lost tracker predicts nothing
		drainQ(t, s, `all(X, Y) :- b1(X, Y)`)
		drainQ(t, s, `h(Y) :- b1("b", Y)`) // subsumed: its shape memoised
		if prefetched == 0 || len(s.followers) == 0 || len(s.genSeen) == 0 || !lost || s.simNow == 0 || len(s.memo) == 0 {
			t.Fatalf("the first session left nothing to forget: %d prefetches, followers %v, counts %v, lost %v, clock %v, %d shapes",
				prefetched, s.followers, s.genSeen, lost, s.simNow, len(s.memo))
		}
	}, func(cms *CMS, ended, s *Session) {
		if s.id == ended.id || s.simNow != 0 || s.queries != 0 || s.ctx.Err() != nil {
			t.Fatalf("the new session took the ended one's ID, clock or context: id %d (was %d), clock %v, %d queries",
				s.id, ended.id, s.simNow, s.queries)
		}
		if len(s.genSeen) != 0 || len(s.followers) != 0 || len(s.inflight) != 0 || len(s.private) != 0 || len(s.memo) != 0 {
			t.Fatalf("the new session starts with counts %v, followers %v, prefetches %v, private elements %v and %d shapes",
				s.genSeen, s.followers, s.inflight, s.private, len(s.memo))
		}
		for _, ent := range s.memo[:cap(s.memo)] {
			if ent != nil && (ent.e != nil || ent.d != nil || ent.schema != nil) {
				t.Fatalf("the new session's kept shape storage holds element %v", ent.e)
			}
		}
		var fresh advice.Tracker
		fresh.Reset(advice.MustParse(example1Advice).Path)
		for k := 1; k <= 8; k++ {
			if got, want := predicted(s.tracker, k, example1Views), predicted(&fresh, k, example1Views); want == nil || !slices.Equal(got, want) {
				t.Fatalf("within %d, the new session's tracker predicts %v; a fresh one predicts %v", k, got, want)
			}
		}
		cms.mgr.pmu.RLock()
		predict, endedPredicts := cms.mgr.predictors[s.id], cms.mgr.predictors[ended.id] != nil
		cms.mgr.pmu.RUnlock()
		if endedPredicts || predict == nil {
			t.Fatalf("predictors: the ended session's registered %v, the new one's %v", endedPredicts, predict != nil)
		}
		if d, ok := predict(&Element{AdviceName: "d1"}); !ok || d != 1 {
			t.Fatalf("the new session's predictor puts d1 at %d (%v), want next", d, ok)
		}
	})
}

// TestStreamsClosedAfterEndStayWithTheirSession: streams point at the
// session that handed them out, never at the scratch it borrowed. A pooled
// eager stream closed before End is handed out again by the next session
// that borrows the scratch; one still open at End and closed after it is
// not, and a lazy stream read after End charges the ended session's clock,
// not the new one's.
func TestStreamsClosedAfterEndStayWithTheirSession(t *testing.T) {
	const di3, di5 = `di(3, Z) :- b3(3, "a", Z)`, `di(5, Z) :- b3(5, "a", Z)`
	var open, closed, lazy *bridge.Stream
	rearm(t, hitPathAdvice, func(cms *CMS, s *Session) {
		drainQ(t, s, "dg(X, Y, Z) :- b3(X, Y, Z)")
		for i := 0; i < 3; i++ { // the third equality selection earns di its index
			drainQ(t, s, di3)
		}
		open, closed, lazy = query(t, s, di3), query(t, s, di5), query(t, s, `dg(X, "a", Z) :- b3(X, "a", Z)`)
		closed.Close()
		if _, ok := lazy.Next(); !ok || !lazy.Lazy() || open.Lazy() {
			t.Fatal("the streams are not the kinds the test needs")
		}
	}, func(cms *CMS, ended, s *Session) {
		open.Close()
		clock := ended.simNow
		for i := 0; i < 8; i++ {
			if _, ok := lazy.Next(); !ok {
				t.Fatalf("the lazy stream stopped after End before its next checkpoint: %v", lazy.Err())
			}
		}
		lazy.Close()
		if ended.simNow <= clock || s.simNow != 0 {
			t.Fatalf("a lazy stream read after End moved the ended session's clock %v -> %v and the new one's to %v",
				clock, ended.simNow, s.simNow)
		}
		first, second := query(t, s, di3), query(t, s, di3)
		if first != closed {
			t.Fatal("the stream closed before End was not handed out again")
		}
		if first == open || second == open {
			t.Fatal("a stream closed after End was handed to the next session")
		}
		want, err := caql.Eval(caql.MustParse(di3), fixtureSource(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []*bridge.Stream{first, second} {
			if got := st.Drain("out"); !got.EqualAsBag(want) {
				t.Fatalf("got %v, want %v", got.Tuples(), want.Tuples())
			}
			st.Close()
		}
	})
}

// query asks src of s and returns the open stream.
func query(t *testing.T, s *Session, src string) *bridge.Stream {
	t.Helper()
	st, err := s.QueryText(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return st
}

// fixtureSource is the data of the fixture engine rearm's sessions query.
func fixtureSource(t *testing.T) caql.MapSource {
	_, src := fixtureEngine(t, 5, 40)
	return src
}

// TestSessionAdviceAllocs: once warm, a session that opens with a path
// expression, memoises followers and ends allocates its handle, its context
// and its cancel function, nothing more: its tracker is compiled, and its
// follower lists carved, into the scratch an ended session left, and End
// drops the advice from the handle.
func TestSessionAdviceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, _ := fixtureEngine(t, 5, 40)
	cms := newCMS(t, e, Options{Features: AllFeatures()})
	adv := advice.MustParse(example1Advice)
	run := func() {
		s := cms.BeginSession(adv).(*Session)
		if next := predicted(s.tracker, 1, example1Views); len(s.followersOf("d1")) != 2 || len(s.followersOf("d2")) != 1 || !slices.Equal(next, []string{"d1/1"}) {
			t.Fatalf("followers of d1 %v, of d2 %v, predicted %v", s.followersOf("d1"), s.followersOf("d2"), next)
		}
		s.End()
		if s.adv != nil {
			t.Fatal("an ended session holds its advice")
		}
	}
	run()
	allocs := testing.AllocsPerRun(100, func() {
		s := cms.BeginSession(adv).(*Session)
		s.followersOf("d1")
		s.followersOf("d2")
		s.End()
	})
	t.Logf("a session with a path expression makes %v allocations", allocs)
	if allocs > 3 {
		t.Errorf("a session with a path expression makes %v allocations, budget 3", allocs)
	}
}
