package advice

import (
	"maps"
	"slices"
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
// cache manager's predictor registry. mu guards the tracking state, and the
// automaton, which only Reset changes.
type Tracker struct {
	// The automaton: state s's labelled edges are
	// edges[edgeAt[s]:edgeAt[s+1]] and its epsilon successors
	// eps[epsAt[s]:epsAt[s+1]].
	edgeAt, epsAt []int32
	edges         []tEdge
	eps           []int32
	start         int32
	nstates       int
	// ints and has back the int32 slices and the state sets' marks; Reset
	// reuses them, and edges, with their capacity.
	ints []int32
	has  []bool

	mu sync.Mutex
	// current holds the states the automaton may be in. Observe builds their
	// successors in next and the two trade places, so tracking a query
	// allocates nothing.
	current, next stateSet
	lost          bool

	// within is the prediction for current over withinK observations, valid
	// while fresh: an Observe or a Reset makes it stale, and the next
	// prediction walks the automaton again (walks counts the walks) with the
	// walk's seen, frontier and next sets. All of them are kept, so once warm
	// a prediction allocates nothing, and an eviction sweep that asks about
	// every resident element walks once.
	within  map[string]int
	withinK int
	fresh   bool
	walks   int
	walk    [3]stateSet
}

// stateSet is a set of automaton states: in lists them, has marks them.
type stateSet struct {
	in  []int32
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

func (s *stateSet) add(x int32) {
	if !s.has[x] {
		s.has[x] = true
		s.in = append(s.in, x)
	}
}

type tEdge struct {
	label string
	to    int32
}

// NewTracker compiles the expression; a nil expression yields a tracker that
// predicts nothing.
func NewTracker(e Expr) *Tracker {
	t := &Tracker{}
	t.Reset(e)
	return t
}

// Reset recompiles t for e, as NewTracker would, into the storage t's earlier
// automata grew: reset to an expression no larger than one it held before, it
// allocates nothing, and it keeps nothing of the old expression but that
// storage's capacity. The automaton is laid out in flat slices, built in
// three walks of the expression: the first counts states and moves, the
// second each state's moves, and the third places them.
func (t *Tracker) Reset(e Expr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := builder{t: t}
	b.run(e)
	n, ne, nx := int(b.states), int(b.edges), int(b.eps)
	m := 2*(n+1) + nx + 2*n
	ints := slices.Grow(t.ints[:0], m)[:m]
	clear(ints)
	t.ints = ints
	t.edgeAt, ints = ints[:n+1:n+1], ints[n+1:]
	t.epsAt, ints = ints[:n+1:n+1], ints[n+1:]
	t.eps, ints = ints[:nx:nx], ints[nx:]
	edgeCur, epsCur := ints[:n:n], ints[n:]
	clear(t.edges) // drops the old labels: placing writes only the new ones
	t.edges = slices.Grow(t.edges[:0], ne)[:ne]

	b = builder{t: t, counting: true}
	b.run(e)
	for s := 0; s < n; s++ {
		t.edgeAt[s+1] += t.edgeAt[s]
		t.epsAt[s+1] += t.epsAt[s]
	}
	copy(edgeCur, t.edgeAt)
	copy(epsCur, t.epsAt)
	b = builder{t: t, edgeCur: edgeCur, epsCur: epsCur}
	b.run(e)

	// The cursors are spent; their storage lists the tracking states.
	has := slices.Grow(t.has[:0], 2*n)[:2*n]
	clear(has)
	t.has, t.nstates, t.lost = has, n, false
	t.current = stateSet{in: edgeCur[:0], has: has[:n:n]}
	t.next = stateSet{in: epsCur[:0], has: has[n:]}
	t.current.add(t.start)
	t.close(&t.current)
	t.fresh = false
	clear(t.within) // drops the old labels
}

// builder walks an expression making the tracker's automaton: sizing it
// when it has no cursors and is not counting, counting each state's moves
// into edgeAt and epsAt, or placing the moves at the cursors.
type builder struct {
	t                  *Tracker
	states, edges, eps int32
	counting           bool
	edgeCur, epsCur    []int32
}

func (b *builder) run(e Expr) {
	b.t.start = b.state()
	if e != nil {
		b.compile(e, b.t.start)
	}
}

func (b *builder) state() int32 {
	b.states++
	return b.states - 1
}

func (b *builder) edge(from int32, label string, to int32) {
	b.edges++
	switch {
	case b.counting:
		b.t.edgeAt[from+1]++
	case b.edgeCur != nil:
		b.t.edges[b.edgeCur[from]] = tEdge{label: label, to: to}
		b.edgeCur[from]++
	}
}

func (b *builder) epsilon(from, to int32) {
	b.eps++
	switch {
	case b.counting:
		b.t.epsAt[from+1]++
	case b.epsCur != nil:
		b.t.eps[b.epsCur[from]] = to
		b.epsCur[from]++
	}
}

// compile makes e's automaton from state from and returns its accepting
// state.
func (b *builder) compile(e Expr, from int32) int32 {
	switch v := e.(type) {
	case *Pattern:
		to := b.state()
		b.edge(from, v.Name, to)
		return to
	case *Sequence:
		accept := b.state()
		cur := from
		for i, el := range v.Elems {
			cur = b.compile(el, cur)
			// Sequences are prefix-closed: the paper's own valid-sequence
			// list for the tracking example includes "d1, d4, d1, ..." —
			// a branch abandoned after its first element (the IE failed
			// partway). Every intermediate point may therefore exit.
			if i < len(v.Elems)-1 {
				b.epsilon(cur, accept)
			}
		}
		b.epsilon(cur, accept)
		if v.Lo == 0 {
			b.epsilon(from, accept)
		}
		if v.Hi.Unbounded() || v.Hi.N > 1 {
			b.epsilon(cur, from) // repeat
		}
		return accept
	case *Alternation:
		accept := b.state()
		for _, el := range v.Elems {
			end := b.compile(el, from)
			b.epsilon(end, accept)
			if v.Select != 1 {
				// More than one alternative may fire per occurrence.
				b.epsilon(end, from)
			}
		}
		// Zero alternatives may fire ("some members may never appear").
		b.epsilon(from, accept)
		return accept
	default:
		return from
	}
}

// close adds to s every state an epsilon path reaches from it.
func (t *Tracker) close(s *stateSet) {
	for i := 0; i < len(s.in); i++ {
		x := s.in[i]
		for _, n := range t.eps[t.epsAt[x]:t.epsAt[x+1]] {
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
		for _, e := range t.edges[t.edgeAt[s]:t.edgeAt[s+1]] {
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
	t.fresh = false
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
	return maps.Clone(t.predictWithinLocked(k))
}

// Distance is PredictWithin(k)[name] without the map: the minimum number of
// observations before a query against name can occur, and whether that is
// within k. It walks the automaton at most once per observation and k,
// however many names are asked, and allocates nothing once warm.
func (t *Tracker) Distance(k int, name string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.predictWithinLocked(k)[name]
	return d, ok
}

// Walks is the number of times t has walked its automaton to predict.
func (t *Tracker) Walks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.walks
}

// predictWithinLocked returns the prediction for k, t's own map, which the
// next observation or walk overwrites; nil when lost or k <= 0.
func (t *Tracker) predictWithinLocked(k int) map[string]int {
	if t.lost || k <= 0 {
		return nil
	}
	if t.fresh && t.withinK == k {
		return t.within
	}
	if t.within == nil {
		t.within = make(map[string]int)
	}
	dist := t.within
	clear(dist)
	t.walks++
	seen, frontier, next := &t.walk[0], &t.walk[1], &t.walk[2]
	seen.reset(t.nstates)
	frontier.reset(t.nstates)
	for _, s := range t.current.in {
		seen.add(s)
		frontier.add(s)
	}
	for step := 1; step <= k; step++ {
		next.reset(t.nstates)
		for _, s := range frontier.in {
			for _, e := range t.edges[t.edgeAt[s]:t.edgeAt[s+1]] {
				if _, ok := dist[e.label]; !ok {
					dist[e.label] = step
				}
				next.add(e.to)
			}
		}
		t.close(next)
		// Stop early when no new states appear.
		grew := false
		for _, s := range next.in {
			if !seen.has[s] {
				seen.add(s)
				grew = true
			}
		}
		frontier, next = next, frontier
		if !grew && step > 1 {
			break
		}
	}
	t.withinK, t.fresh = k, true
	return dist
}

func (t *Tracker) keysWithin(k int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.predictWithinLocked(k)
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
	return AppendSequenceFollowers(nil, e, name)
}

// AppendSequenceFollowers appends SequenceFollowers(e, name) to dst and
// returns the extended slice. It allocates only to grow dst.
func AppendSequenceFollowers(dst []string, e Expr, name string) []string {
	if e == nil {
		return dst
	}
	return appendFollowers(dst, len(dst), e, name)
}

// appendFollowers appends name's followers in x to dst, whose list of them
// starts at from: it descends into the first child that mentions name, for
// the innermost sequence's followers first, and in a sequence then appends
// that child's later siblings' names.
func appendFollowers(dst []string, from int, x Expr, name string) []string {
	var elems []Expr
	_, seq := x.(*Sequence)
	switch v := x.(type) {
	case *Sequence:
		elems = v.Elems
	case *Alternation:
		elems = v.Elems
	}
	for i, c := range elems {
		if !mentions(c, name) {
			continue
		}
		dst = appendFollowers(dst, from, c, name)
		if seq {
			for _, later := range elems[i+1:] {
				dst = appendNames(dst, from, later, name)
			}
		}
		return dst
	}
	return dst
}

// appendNames appends to dst the names of x's patterns that are not name and
// not yet in dst[from:].
func appendNames(dst []string, from int, x Expr, name string) []string {
	var elems []Expr
	switch v := x.(type) {
	case *Pattern:
		if v.Name != name && !slices.Contains(dst[from:], v.Name) {
			dst = append(dst, v.Name)
		}
	case *Sequence:
		elems = v.Elems
	case *Alternation:
		elems = v.Elems
	}
	for _, c := range elems {
		dst = appendNames(dst, from, c, name)
	}
	return dst
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
