package advice

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// paperExample1 is the advice from Section 4.2.2, Example 1.
const paperExample1 = `
	% view specifications for the AI query k1(X,Y)?
	view d1(Y^) :- b1("c1", Y) [r1].
	view d2(X^, Y?) :- b2(X, Z) & b3(Z, "c2", Y) [r2].
	view d3(X^, Y?) :- b3(X, "c3", Z) & b1(Z, Y) [r3].
	path (d1(Y^), (d2(X^, Y?), d3(X^, Y?))<0,|Y|>)<1,1>.
	base b1/2, b2/2, b3/3.
`

func TestParseExample1(t *testing.T) {
	a, err := Parse(paperExample1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Views) != 3 || a.Path == nil || len(a.BaseRels) != 3 {
		t.Fatalf("bundle shape wrong: %+v", a)
	}
	d2 := a.ViewByName("d2")
	if d2 == nil {
		t.Fatal("d2 missing")
	}
	if d2.Bindings[0] != BindProducer || d2.Bindings[1] != BindConsumer {
		t.Fatalf("d2 bindings = %v", d2.Bindings)
	}
	if got := d2.ConsumerCols(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("consumer cols = %v", got)
	}
	if d2.StrictProducer() {
		t.Error("d2 has a consumer")
	}
	d1 := a.ViewByName("d1")
	if !d1.StrictProducer() {
		t.Error("d1 is a strict producer")
	}
	if len(d2.Query.Rels) != 2 {
		t.Fatalf("d2 body atoms = %d", len(d2.Query.Rels))
	}
	if !reflect.DeepEqual(d2.Rules, []string{"r2"}) {
		t.Fatalf("d2 rules = %v", d2.Rules)
	}
	if a.ViewByName("nosuch") != nil {
		t.Error("unknown view should be nil")
	}
}

func TestAdviceRoundTrip(t *testing.T) {
	a := MustParse(paperExample1)
	re, err := Parse(a.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", a.String(), err)
	}
	if len(re.Views) != 3 || re.Path == nil {
		t.Fatalf("round trip lost content: %v", re)
	}
	if re.Views[1].String() != a.Views[1].String() {
		t.Errorf("view round trip: %q vs %q", a.Views[1].String(), re.Views[1].String())
	}
	if re.Path.String() != a.Path.String() {
		t.Errorf("path round trip: %q vs %q", a.Path.String(), re.Path.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"view d1(X^).",        // no body
		"view d1(X^ :- b(X).", // malformed head
		"nonsense things.",    // unknown statement
		"path (d1(Y^).",       // unbalanced
		"path d1 <1,2>.",      // repetition without group
		"base b1.",            // missing arity
		"base b1/x.",          // bad arity
		"view d(X^) :- b(X). view d(Y^) :- b(Y).", // duplicate view
		"path (d1)<1,1>. path (d2)<1,1>.",         // two paths
		"view d(X^, W?) :- b(X).",                 // unbound head var
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestTrackerExample1 replays the valid CAQL sequences of Example 1.
func TestTrackerExample1(t *testing.T) {
	a := MustParse(paperExample1)
	// d1 then (d2, d3) repeated.
	for _, seq := range [][]string{
		{"d1"},
		{"d1", "d2", "d3"},
		{"d1", "d2", "d3", "d2", "d3"},
	} {
		tr := NewTracker(a.Path)
		for _, q := range seq {
			if !tr.Observe(q) {
				t.Fatalf("sequence %v: unexpected rejection at %s", seq, q)
			}
		}
	}
	// Invalid: d2 before d1; repeated d1 (repetition term <1,1>).
	tr := NewTracker(a.Path)
	if tr.Observe("d2") {
		t.Error("d2 before d1 should be rejected")
	}
	tr = NewTracker(a.Path)
	tr.Observe("d1")
	if tr.Observe("d1") {
		t.Error("second d1 should be rejected (repetition <1,1>)")
	}
	if !tr.Lost() {
		t.Error("tracker should be lost after rejection")
	}
}

// The CMS observes every query of a session and asks for the followers of
// every view it answers: once the tracker's state sets have grown, neither
// allocates to go on (SequenceFollowers allocates only its result).
func TestObserveAllocatesNothing(t *testing.T) {
	a := MustParse(paperExample1)
	tr := NewTracker(a.Path)
	tr.Observe("d1")
	seq := []string{"d2", "d3"}
	tr.Observe("d2") // grow both state sets
	tr.Observe("d3")
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		if !tr.Observe(seq[i%2]) {
			t.Fatalf("%s rejected", seq[i%2])
		}
		i++
	}); n != 0 {
		t.Errorf("Observe allocates %v per query, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { SequenceFollowers(a.Path, "d3") }); n != 0 {
		t.Errorf("SequenceFollowers allocates %v for a view with no followers, want 0", n)
	}
}

// TestTrackerResetAllocs: a tracker reset to an expression no larger than
// the last it held allocates nothing, and then tracks and predicts as a new
// tracker of that expression does, whatever it tracked before and however
// far it got. AppendSequenceFollowers into a slice with room allocates
// nothing either, and appends what SequenceFollowers returns.
func TestTrackerResetAllocs(t *testing.T) {
	big, err := ParsePath("((d1(X?, Y^), [(d2(Z^, Y?), d3(Z?)), (d4(U^, Y?), d5(U?))]^1)<0,|X|>)<0,1>")
	if err != nil {
		t.Fatal(err)
	}
	small := MustParse(paperExample1).Path
	tr := NewTracker(big)
	for _, q := range []string{"d1", "d4", "d1", "d9"} { // ends lost
		tr.Observe(q)
	}
	tr.Reset(small)
	fresh := NewTracker(small)
	for _, q := range []string{"d1", "d2", "d3", "d2"} {
		if got, want := tr.PredictWithin(8), fresh.PredictWithin(8); !reflect.DeepEqual(got, want) {
			t.Fatalf("before %s: a reset tracker predicts %v, a new one %v", q, got, want)
		}
		if got, want := tr.Observe(q), fresh.Observe(q); got != want {
			t.Fatalf("%s: a reset tracker observes %v, a new one %v", q, got, want)
		}
	}
	exprs := []Expr{small, big, nil, small}
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		tr.Reset(exprs[i%len(exprs)])
		i++
	}); n != 0 {
		t.Errorf("Reset to an expression no larger than the last allocates %v, want 0", n)
	}

	dst := make([]string, 0, 8)
	for _, name := range []string{"d1", "d2", "d3", "d4"} {
		for _, e := range []Expr{small, big} {
			got := AppendSequenceFollowers(dst[:1], e, name)[1:]
			if want := SequenceFollowers(e, name); !slices.Equal(got, want) {
				t.Errorf("followers of %s in %s: appended %v, returned %v", name, e, got, want)
			}
			if n := testing.AllocsPerRun(50, func() { AppendSequenceFollowers(dst[:0], e, name) }); n != 0 {
				t.Errorf("followers of %s in %s: appending into room allocates %v, want 0", name, e, n)
			}
		}
	}
}

// TestTrackerPaperTrackingExcerpt replays the Section 4.2.2 path expression
// tracking example:
//
//	(...(d1(X?,Y^), [(d2(Z^,Y?), d3(Z?)), (d4(U^,Y?), d5(U?))]^1)<0,|X|> ...)<0,1>
func TestTrackerPaperTrackingExcerpt(t *testing.T) {
	pe, err := ParsePath("((d1(X?, Y^), [(d2(Z^, Y?), d3(Z?)), (d4(U^, Y?), d5(U?))]^1)<0,|X|>)<0,1>")
	if err != nil {
		t.Fatal(err)
	}
	valid := [][]string{
		{"d1", "d2", "d3"},
		{"d1", "d4", "d1", "d2", "d3", "d1"},
		{"d1", "d2", "d3", "d1", "d4", "d5"},
	}
	for _, seq := range valid {
		tr := NewTracker(pe)
		for i, q := range seq {
			if !tr.Observe(q) {
				t.Fatalf("valid sequence %v rejected at position %d (%s)", seq, i, q)
			}
		}
	}
	// After observing d1 then d2, the alternation is committed to its first
	// branch: the next query can be d3 (continue branch) or d1 (new
	// repetition), but not d4/d5 (selection term 1).
	tr := NewTracker(pe)
	tr.Observe("d1")
	tr.Observe("d2")
	next := tr.PredictNext()
	has := func(ss []string, w string) bool {
		for _, s := range ss {
			if s == w {
				return true
			}
		}
		return false
	}
	if !has(next, "d3") || !has(next, "d1") {
		t.Errorf("PredictNext after d1,d2 = %v, want d3 and d1", next)
	}
	if has(next, "d4") || has(next, "d5") {
		t.Errorf("PredictNext after d1,d2 = %v, should not include d4/d5 mid-branch", next)
	}
	// "Thus, d1 will be required for one of the next two queries": after
	// d1,d2, within 2 steps d1 is predicted.
	within := tr.PredictWithin(2)
	if d, ok := within["d1"]; !ok || d > 2 {
		t.Errorf("d1 should be predicted within 2 steps, got %v", within)
	}
}

func TestTrackerAlternationSelection(t *testing.T) {
	// Without a selection term, multiple alternatives may fire.
	pe, err := ParsePath("(d1, [d2, d3])<1,1>")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(pe)
	for _, q := range []string{"d1", "d2", "d3", "d2"} {
		if !tr.Observe(q) {
			t.Fatalf("unbounded alternation rejected %s", q)
		}
	}
	// With ^1 only one alternative per occurrence.
	pe1, err := ParsePath("(d1, [d2, d3]^1)<1,1>")
	if err != nil {
		t.Fatal(err)
	}
	tr = NewTracker(pe1)
	tr.Observe("d1")
	tr.Observe("d2")
	if tr.Observe("d3") {
		t.Error("selection term 1 should forbid a second alternative")
	}
}

func TestPredictWithinDistances(t *testing.T) {
	pe, err := ParsePath("(d1, d2, d3)<1,1>")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(pe)
	within := tr.PredictWithin(3)
	if within["d1"] != 1 || within["d2"] != 2 || within["d3"] != 3 {
		t.Fatalf("distances wrong: %v", within)
	}
	tr.Observe("d1")
	within = tr.PredictWithin(3)
	if _, ok := within["d1"]; ok {
		t.Errorf("d1 must not be predicted again: %v", within)
	}
	if within["d2"] != 1 {
		t.Errorf("d2 distance = %d, want 1", within["d2"])
	}
	// Lost tracker predicts nothing.
	tr.Observe("d1")
	if got := tr.PredictWithin(3); got != nil {
		t.Errorf("lost tracker should predict nothing, got %v", got)
	}
}

func TestSequenceFollowers(t *testing.T) {
	a := MustParse(paperExample1)
	// After d2, its sequence sibling d3 follows.
	got := SequenceFollowers(a.Path, "d2")
	if !reflect.DeepEqual(got, []string{"d3"}) {
		t.Fatalf("followers of d2 = %v, want [d3]", got)
	}
	// After d1, the whole inner group follows.
	got = SequenceFollowers(a.Path, "d1")
	if len(got) != 2 {
		t.Fatalf("followers of d1 = %v", got)
	}
	if got := SequenceFollowers(a.Path, "d3"); len(got) != 0 {
		t.Fatalf("followers of d3 = %v, want none", got)
	}
	if got := SequenceFollowers(nil, "d1"); got != nil {
		t.Fatalf("nil path followers = %v", got)
	}
}

func TestNames(t *testing.T) {
	a := MustParse(paperExample1)
	if got := Names(a.Path); !reflect.DeepEqual(got, []string{"d1", "d2", "d3"}) {
		t.Fatalf("names = %v", got)
	}
	if Names(nil) != nil {
		t.Error("nil expr should have no names")
	}
}

func TestNilAndEmptyTracker(t *testing.T) {
	tr := NewTracker(nil)
	if tr.Observe("d1") {
		t.Error("nil-path tracker accepts nothing")
	}
	if got := NewTracker(nil).PredictNext(); len(got) != 0 {
		t.Errorf("nil-path tracker predicts %v", got)
	}
}

func TestBoundString(t *testing.T) {
	pe, err := ParsePath("((d1)<0,*>, (d2)<2,5>, (d3)<0,|Y|>)<1,1>")
	if err != nil {
		t.Fatal(err)
	}
	s := pe.String()
	for _, want := range []string{"<0,*>", "<2,5>", "<0,|Y|>"} {
		if !strings.Contains(s, want) {
			t.Errorf("path string %q missing %q", s, want)
		}
	}
}

// FuzzParse: any text parses to an error, or to advice whose String() parses
// back to the same String(). Never a panic.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		paperExample1,
		"view d(X^, Y?) :- b(X, Y) & Y >= 2.5 [r1, r2].\nbase b/2.",
		`view d(X?) :- b(X, "a.b") & X != "it's".`,
		"path [d1(X^), d2(X?)]^1.\nview d1(X^) :- b(X).\nview d2(X?) :- c(X).",
		"path (d1(Y^))<0,*>.\nview d1(Y^) :- b1(Y).",
		"view d :- b(X).",
		"base b/x.",
		`base "/0`, // a base name that is no predicate printed as an unterminated string
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := Parse(src)
		if err != nil {
			return
		}
		text := a.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse back: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q printed as %q, which prints back as %q", src, text, got)
		}
	})
}

// TestPredictWithinAllocs: a warm tracker predicts with no allocation, walks
// its automaton once per observation however many names are asked, and
// predicts after each observation what a new tracker fed the same
// observations predicts.
func TestPredictWithinAllocs(t *testing.T) {
	a := MustParse(paperExample1)
	names := []string{"d1", "d2", "d3", "d4"}
	seq := []string{"d1", "d2", "d3", "d2", "d3"}
	tr := NewTracker(a.Path)
	for i := 0; i <= len(seq); i++ {
		fresh := NewTracker(a.Path)
		for _, q := range seq[:i] {
			fresh.Observe(q)
		}
		walks := tr.Walks()
		for _, k := range []int{8, 8, 8} {
			want := fresh.PredictWithin(k)
			for _, name := range names {
				wd, wok := want[name]
				if d, ok := tr.Distance(k, name); d != wd || ok != wok {
					t.Fatalf("after %v: Distance(%d, %s) = %d, %v; a new tracker predicts %d, %v", seq[:i], k, name, d, ok, wd, wok)
				}
			}
		}
		if got := tr.Walks() - walks; got != 1 {
			t.Fatalf("after %v: %d walks for 12 predictions, want 1", seq[:i], got)
		}
		if i < len(seq) {
			tr.Observe(seq[i])
		}
	}
	if d, ok := tr.Distance(2, "d2"); !ok || d != 1 {
		t.Fatalf("Distance over another horizon = %d, %v; want 1, true", d, ok)
	}

	i := 0
	if n := testing.AllocsPerRun(100, func() {
		tr.Reset(a.Path)
		for _, q := range seq[:1+i%len(seq)] {
			tr.Observe(q)
			for _, name := range names {
				tr.Distance(8, name)
			}
		}
		i++
	}); n != 0 {
		t.Errorf("a warm tracker's predictions allocate %v times a round, want 0", n)
	}
}
