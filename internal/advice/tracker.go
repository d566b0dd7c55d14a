package advice

import (
	"sort"
	"sync"
)

// Tracker performs path expression tracking (Section 4.2.2): it associates
// the CAQL queries the IE actually submits with positions in the session's
// path expression, so the CMS can predict which view specifications will be
// needed soon (prefetching) and which cached elements are poor replacement
// victims.
//
// The path expression compiles to a small nondeterministic automaton whose
// transitions are labeled with view names. Symbolic and large repetition
// bounds are approximated by unbounded loops — the tracker is a predictor,
// not a validator, so over-approximation merely widens predictions.
//
// Trackers are safe for concurrent use: the owning session observes queries
// while other sessions' eviction sweeps consult its predictions through the
// cache manager's predictor registry. The automaton itself (edges/eps) is
// immutable after construction; mu guards the tracking state.
type Tracker struct {
	edges   map[int][]tEdge
	eps     map[int][]int
	start   int
	nstates int

	mu sync.Mutex
	// current holds the states the automaton may be in. Observe builds their
	// successors in next and the two trade places, so tracking a query
	// allocates nothing.
	current, next stateSet
	lost          bool
}

// stateSet is a set of automaton states: in lists them, has marks them.
type stateSet struct {
	in  []int
	has []bool
}

// reset empties the set, sizing it for n states.
func (s *stateSet) reset(n int) {
	for _, x := range s.in {
		s.has[x] = false
	}
	s.in = s.in[:0]
	if len(s.has) < n {
		s.has = make([]bool, n)
	}
}

func (s *stateSet) add(x int) {
	if !s.has[x] {
		s.has[x] = true
		s.in = append(s.in, x)
	}
}

type tEdge struct {
	label string
	to    int
}

// NewTracker compiles the expression; a nil expression yields a tracker that
// predicts nothing.
func NewTracker(e Expr) *Tracker {
	t := &Tracker{edges: map[int][]tEdge{}, eps: map[int][]int{}}
	next := 0
	newState := func() int { next++; return next - 1 }
	t.start = newState()
	var compile func(e Expr, from int) int
	compile = func(e Expr, from int) int {
		switch v := e.(type) {
		case *Pattern:
			to := newState()
			t.edges[from] = append(t.edges[from], tEdge{label: v.Name, to: to})
			return to
		case *Sequence:
			accept := newState()
			cur := from
			for i, el := range v.Elems {
				cur = compile(el, cur)
				// Sequences are prefix-closed: the paper's own valid-sequence
				// list for the tracking example includes "d1, d4, d1, ..." —
				// a branch abandoned after its first element (the IE failed
				// partway). Every intermediate point may therefore exit.
				if i < len(v.Elems)-1 {
					t.eps[cur] = append(t.eps[cur], accept)
				}
			}
			t.eps[cur] = append(t.eps[cur], accept)
			if v.Lo == 0 {
				t.eps[from] = append(t.eps[from], accept)
			}
			if v.Hi.Unbounded() || v.Hi.N > 1 {
				t.eps[cur] = append(t.eps[cur], from) // repeat
			}
			return accept
		case *Alternation:
			accept := newState()
			for _, el := range v.Elems {
				end := compile(el, from)
				t.eps[end] = append(t.eps[end], accept)
				if v.Select != 1 {
					// More than one alternative may fire per occurrence.
					t.eps[end] = append(t.eps[end], from)
				}
			}
			// Zero alternatives may fire ("some members may never appear").
			t.eps[from] = append(t.eps[from], accept)
			return accept
		default:
			return from
		}
	}
	if e != nil {
		compile(e, t.start)
	}
	t.nstates = next
	t.current.reset(t.nstates)
	t.current.add(t.start)
	t.close(&t.current)
	return t
}

// close adds to s every state an epsilon path reaches from it.
func (t *Tracker) close(s *stateSet) {
	for i := 0; i < len(s.in); i++ {
		for _, n := range t.eps[s.in[i]] {
			s.add(n)
		}
	}
}

// Lost reports whether an observed query fell outside the path expression;
// once lost, the tracker stops predicting.
func (t *Tracker) Lost() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lost
}

// Observe advances the tracker on a query against view name. It returns
// false (and enters the lost state) when the query does not fit the path
// expression at the current position.
func (t *Tracker) Observe(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lost {
		return false
	}
	t.next.reset(t.nstates)
	for _, s := range t.current.in {
		for _, e := range t.edges[s] {
			if e.label == name {
				t.next.add(e.to)
			}
		}
	}
	if len(t.next.in) == 0 {
		t.lost = true
		return false
	}
	t.close(&t.next)
	t.current, t.next = t.next, t.current
	return true
}

// PredictNext returns the view names that could be the very next query,
// sorted.
func (t *Tracker) PredictNext() []string {
	return t.keysWithin(1)
}

// PredictWithin returns, for each view name reachable within k observations,
// the minimum number of observations before a query against it can occur
// (1 = could be next). Names not reachable within k are absent.
func (t *Tracker) PredictWithin(k int) map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.predictWithinLocked(k)
}

func (t *Tracker) predictWithinLocked(k int) map[string]int {
	if t.lost || k <= 0 {
		return nil
	}
	dist := make(map[string]int)
	var seen, frontier, next stateSet
	seen.reset(t.nstates)
	frontier.reset(t.nstates)
	for _, s := range t.current.in {
		seen.add(s)
		frontier.add(s)
	}
	for step := 1; step <= k; step++ {
		next.reset(t.nstates)
		for _, s := range frontier.in {
			for _, e := range t.edges[s] {
				if _, ok := dist[e.label]; !ok {
					dist[e.label] = step
				}
				next.add(e.to)
			}
		}
		t.close(&next)
		// Stop early when no new states appear.
		fresh := false
		for _, s := range next.in {
			if !seen.has[s] {
				seen.add(s)
				fresh = true
			}
		}
		frontier, next = next, frontier
		if !fresh && step > 1 {
			break
		}
	}
	return dist
}

func (t *Tracker) keysWithin(k int) []string {
	t.mu.Lock()
	m := t.predictWithinLocked(k)
	t.mu.Unlock()
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SequenceFollowers returns, for a just-observed view name, the view names
// that belong to the same innermost sequence and follow it — the paper's
// prefetch rule: "the sequence grouping ... indicates that all items in that
// group are likely to be evaluated when the first item is evaluated"
// (Section 5.3.1). This is computed structurally from the expression rather
// than from tracker state, so it is usable even when the CMS chooses not to
// track.
func SequenceFollowers(e Expr, name string) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] && n != name {
			seen[n] = true
			out = append(out, n)
		}
	}
	var collect func(Expr)
	collect = func(x Expr) {
		switch v := x.(type) {
		case *Pattern:
			add(v.Name)
		case *Sequence:
			for _, c := range v.Elems {
				collect(c)
			}
		case *Alternation:
			for _, c := range v.Elems {
				collect(c)
			}
		}
	}
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case *Sequence:
			// Find the direct child containing name; followers are the
			// later siblings. Recurse into that child for the innermost
			// sequence semantics first.
			for i, c := range v.Elems {
				if mentions(c, name) {
					walk(c)
					for _, later := range v.Elems[i+1:] {
						collect(later)
					}
					return
				}
			}
		case *Alternation:
			for _, c := range v.Elems {
				if mentions(c, name) {
					walk(c)
					return
				}
			}
		}
	}
	if e != nil {
		walk(e)
	}
	return out
}

// mentions reports whether a pattern named name occurs in x, allocating
// nothing to say so.
func mentions(x Expr, name string) bool {
	var elems []Expr
	switch v := x.(type) {
	case *Pattern:
		return v.Name == name
	case *Sequence:
		elems = v.Elems
	case *Alternation:
		elems = v.Elems
	}
	for _, c := range elems {
		if mentions(c, name) {
			return true
		}
	}
	return false
}
