package cache

import (
	"testing"

	"repro/internal/advice"
)

// TestEvictionWalksOncePerSession: an eviction sweep asks every session's
// predictor about every resident element, and each session's tracker walks
// its automaton once for all of them, not once an element; the next
// observation makes it walk again.
func TestEvictionWalksOncePerSession(t *testing.T) {
	e, _ := fixtureEngine(t, 9, 50)
	adv := advice.MustParse(`
		view d1(Y^) :- b1("a", Y).
		view d2(X^, Y^) :- b2(X, Y).
		view d3(X^, Y^, Z^) :- b3(X, Y, Z).
		path ((d1(Y^), d2(X^, Y^), d3(X^, Y^, Z^))<0,*>)<1,1>.
	`)
	f := AllFeatures()
	f.Prefetch = false
	f.Generalization = false
	f.Lazy = false
	cms := newCMS(t, e, Options{Features: f})
	var sessions [2]*Session
	for i := range sessions {
		sessions[i] = cms.BeginSession(adv).(*Session)
		defer sessions[i].End()
	}
	s := sessions[0]
	drainQ(t, s, `d1(Y) :- b1("a", Y)`)
	drainQ(t, s, "d2(X, Y) :- b2(X, Y)")
	drainQ(t, s, "d3(X, Y, Z) :- b3(X, Y, Z)")
	drainQ(t, sessions[1], `d1(Y) :- b1("a", Y)`)
	advised := 0
	for i := range cms.mgr.shards {
		for _, el := range cms.mgr.shards[i].elements {
			if el.AdviceName != "" {
				advised++
			}
		}
	}
	if advised < 3 {
		t.Fatalf("%d resident elements carry advice, want at least 3", advised)
	}
	walks := func() [2]int { return [2]int{sessions[0].trk.Walks(), sessions[1].trk.Walks()} }
	sweep := func() {
		cms.mgr.budget = cms.mgr.SizeBytes() - 1
		cms.mgr.ensureSpace()
		cms.mgr.budget = 0
	}
	// A session's own query may predict (predictsReuse) before the sweep
	// does; either way its tracker walks once per observation.
	before := walks()
	sweep()
	for i, w := range walks() {
		if d := w - before[i]; d > 1 {
			t.Fatalf("an eviction sweep over %d advised elements walked session %d's tracker %d times, want at most once", advised, i, d)
		}
	}
	before = walks()
	sweep()
	if got := walks(); got != before {
		t.Fatalf("a second sweep with no observation between walked %v times, want none", [2]int{got[0] - before[0], got[1] - before[1]})
	}
	drainQ(t, s, `d1(Y) :- b1("a", Y)`)
	sweep()
	if got := walks(); got != [2]int{before[0] + 1, before[1]} {
		t.Fatalf("one observation and a sweep walked %v times per session, want [1 0]", [2]int{got[0] - before[0], got[1] - before[1]})
	}
}
