// Package ie implements BrAID's inference engine (Section 4 of the paper):
// the query translator, problem graph extractor, problem graph shaper, view
// specifier, path expression creator, and inference strategy controller
// (Figure 4). The extractor and the shaper are one compile per goal shape,
// which reaches the goal's clauses, shapes each once and segments it into
// views; every strategy runs from it. The engine is logic-based and
// function-free (Datalog with typed constants), and — like the FDE the paper
// builds on — realizes several inference strategies along the
// interpreted-compiled range from one set of component functions.
package ie

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/advice"
	"repro/internal/bridge"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Strategy selects the point on the interpreted-compiled range (the I-C
// range, Section 2) the engine realizes for a query.
type Strategy int

// Strategies along the I-C range.
const (
	// StrategyInterpreted is the fully interpretive extreme: depth-first SLD
	// resolution with chronological backtracking, requesting data one base
	// atom at a time and consuming results tuple-at-a-time (Prolog-style,
	// single solution on demand).
	StrategyInterpreted Strategy = iota
	// StrategyConjunction performs conjunction compilation: maximal runs of
	// base atoms in a rule body are shipped as one CAQL query (partial
	// compilation), with backtracking across runs.
	StrategyConjunction
	// StrategyCompiled is the fully compiled extreme: the relevant base
	// relations are requested set-at-a-time and the whole relevant rule set
	// is evaluated bottom-up to a fixpoint, producing all solutions.
	StrategyCompiled
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyInterpreted:
		return "interpreted"
	case StrategyConjunction:
		return "conjunction"
	case StrategyCompiled:
		return "compiled"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Options configures the engine.
type Options struct {
	Strategy Strategy
	// MaxConjSize bounds view-specification conjunction size (Section 4.1's
	// flattening parameter; 1 is forced by StrategyInterpreted, <=0 means
	// unlimited).
	MaxConjSize int
	// Reorder enables shaper conjunct reordering.
	Reorder bool
	// Advice controls whether view specifications and base-relation lists
	// are transmitted to the CMS at session start.
	Advice bool
	// PathExpression additionally transmits a path expression (requires
	// Advice).
	PathExpression bool
	// Explain records a justification (derivation tree) for each solution;
	// available through Solutions.NextProof. Compiled-strategy answers carry
	// a bottom-up summary instead of a full tree.
	Explain bool
}

// DefaultOptions returns the full-featured interpreted configuration.
func DefaultOptions() Options {
	return Options{
		Strategy:       StrategyInterpreted,
		Reorder:        true,
		Advice:         true,
		PathExpression: true,
	}
}

// Engine is the inference engine: a knowledge base plus a data source (the
// CMS or a baseline). Engines are safe for concurrent asks. Each ask opens a
// session of its own and runs its search on a runner of its own; a runner
// whose ask has closed is kept, with the scratch its stacks grew, for a later
// ask. An engine compiles per goal shape: the asks of one shape share one
// compile, and all shapes share the compiled clauses, until the KB or a
// statistic the shaper read changes.
type Engine struct {
	kb   *logic.KB
	ds   bridge.DataSource
	opts Options

	mu sync.Mutex
	ck *compiledKB

	// runners holds the runners of closed asks. It is a sync.Pool, not a
	// free list, so that what it holds is the collector's to drop: a kept
	// runner costs no live heap once two collections pass it by. An ask
	// takes no runner that a collection finished on while it waited,
	// though. The pool keeps such a runner for one more collection, in a
	// slot of the P that gave it back, so whether the next ask finds it
	// would depend on the P the ask runs on, and with it which ask regrows
	// a runner's storage, its answer tables most of all. Dropped at the
	// first collection, a runner is regrown where the asks and the
	// collections alone put it.
	runners sync.Pool
}

// New builds an engine.
func New(kb *logic.KB, ds bridge.DataSource, opts Options) *Engine {
	if opts.Strategy == StrategyInterpreted {
		opts.MaxConjSize = 1
	}
	return &Engine{kb: kb, ds: ds, opts: opts}
}

// KB returns the engine's knowledge base.
func (e *Engine) KB() *logic.KB { return e.kb }

// answer pairs a solution with its optional justification.
type answer struct {
	sub   logic.Subst
	proof *Proof
}

// Solutions is the lazy stream of answers to an AI query: a single solution
// is produced on demand (the paper's single-solution strategy), and Close
// abandons the remaining search. Each answer comes once, under every
// strategy: the SLD strategies table every derived call, so a call's answers
// are held until the ask closes, and a base goal's answers go through a
// table too. The search runs inside Next, on the caller's goroutine, so how
// many CAQL queries a consumer causes depends on how many answers it took,
// never on scheduling. Once the search is closed or spent, its runner goes
// back to the engine for another ask, and the Solutions keeps only its
// variables and its error.
type Solutions struct {
	vars   []string
	search *runner
	err    error
	done   bool
}

// Vars returns the AI query's variable names, in order of appearance.
func (s *Solutions) Vars() []string { return append([]string(nil), s.vars...) }

// Next returns the next answer substitution; ok is false when the search is
// exhausted (check Err afterwards). The substitution belongs to the ask: the
// next call writes the next answer over it, so a caller that keeps an answer
// keeps maps.Clone of it. Once the ask has ended, no call writes to it again.
func (s *Solutions) Next() (logic.Subst, bool) {
	sub, _, ok := s.NextProof()
	return sub, ok
}

// NextProof returns the next answer with its justification (nil unless the
// engine runs with Options.Explain). The substitution is the ask's, as Next's
// is, and the next call overwrites it; the justification is the caller's.
func (s *Solutions) NextProof() (logic.Subst, *Proof, bool) {
	if s.done {
		return nil, nil, false
	}
	a, ok, err := s.search.next()
	if !ok {
		s.Close()
		s.err = err
	}
	return a.sub, a.proof, ok
}

// All drains the remaining answers, each a substitution of its own.
func (s *Solutions) All() []logic.Subst {
	var out []logic.Subst
	for {
		sub, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, maps.Clone(sub))
	}
}

// Err reports a search error (after Next returned false). An ask whose
// context was canceled or expired reports bridge.ErrCanceled or
// bridge.ErrDeadlineExceeded.
func (s *Solutions) Err() error { return s.err }

// Close abandons the search: the streams it still has open are closed, its
// session ends and its runner goes back to the engine. Closing a finished
// search does nothing.
func (s *Solutions) Close() {
	if !s.done {
		s.done = true
		s.search.close()
		s.search = nil
	}
}

// Tuples renders answers as a relation over the query variables; a
// convenience for tests and examples.
func (s *Solutions) Tuples() *relation.Relation {
	attrs := make([]relation.Attr, len(s.vars))
	for i, v := range s.vars {
		attrs[i] = relation.Attr{Name: v, Kind: relation.KindNull}
	}
	out := relation.New("answers", relation.NewSchema(attrs...))
	for {
		sub, ok := s.Next()
		if !ok {
			break
		}
		tu := make(relation.Tuple, len(s.vars))
		for i, v := range s.vars {
			t := sub.Walk(logic.V(v))
			if t.IsConst() {
				tu[i] = t.Const
			}
		}
		out.MustAppend(tu)
	}
	return out
}

// AskText parses and asks an AI query ("k1(X, Y)?").
func (e *Engine) AskText(src string) (*Solutions, error) {
	goal, err := logic.ParseAtom(src)
	if err != nil {
		return nil, err
	}
	return e.AskCtx(context.Background(), goal)
}

// Ask is AskCtx without cancellation.
func (e *Engine) Ask(goal logic.Atom) (*Solutions, error) {
	return e.AskCtx(context.Background(), goal)
}

// AskCtx answers an AI query: find its goal shape's compile, take a runner
// the engine kept from an earlier ask or a new one, assemble the advice in
// the runner's advice block, open a session (transmitting the advice), and
// run the configured strategy with the goal's constants bound. The result is
// a lazy solution stream. ctx governs the whole ask: every CAQL query the
// search issues runs under it, and once it is canceled or expired the search
// stops with bridge.ErrCanceled or bridge.ErrDeadlineExceeded, closing every
// stream it holds open.
func (e *Engine) AskCtx(ctx context.Context, goal logic.Atom) (*Solutions, error) {
	sh, err := e.shape(goal)
	if err != nil {
		return nil, err
	}
	vars := make([]string, 0, len(goal.Args))
	for _, t := range goal.Args {
		if t.IsVar() && !slices.Contains(vars, t.Var) {
			vars = append(vars, t.Var)
		}
	}
	r, _ := e.runners.Get().(*runner)
	if r != nil && r.gcs.read() != r.closedAt {
		r = nil // a collection finished while it waited: see runners
	}
	if r == nil {
		r = &runner{engine: e}
		r.choices, r.free = r.buf[:0], r.freeBuf[:0]
	}
	var adv *advice.Advice
	if e.opts.Advice {
		adv = sh.advice(&r.adv, e.kb, e.opts)
	}
	r.ctx, r.sh, r.vars, r.live = ctx, sh, vars, true
	r.session = e.ds.BeginSession(adv)
	r.goalAtom, r.goal[0] = logic.NumAtom{Atom: goal, Nums: sh.goal.atom.Nums}, sh.goal
	if sh.goal.kind == itemCall {
		r.goal[0].atom = &r.goalAtom
	} else {
		r.tabs.find(0, len(goal.Args)) // table 0: the base goal's answers
	}
	r.g = cont{items: r.goal[:], base: r.b.Push(len(vars)), anc: -1, next: -1}
	return &Solutions{vars: vars, search: r}, nil
}

// shape returns the compile of goal's shape. A shape the engine has not
// asked since its KB or the statistics its shaper read last changed is
// compiled now, and so is every clause it reaches that is not compiled yet.
func (e *Engine) shape(goal logic.Atom) (*shape, error) {
	if goal.IsComparison() {
		return nil, fmt.Errorf("ie: AI query cannot be a comparison")
	}
	if e.kb.IsBase(goal.Ref()) {
		// A base goal's view carries its constants, so its compile is its own.
		return newCompiledKB(e.kb, e.ds, e.opts).checkedShape(goal)
	}
	e.mu.Lock()
	ck := e.ck
	var reads []statsRead
	if ck != nil {
		reads = ck.stats
	}
	e.mu.Unlock()
	fresh := ck != nil && ck.gen == e.kb.Generation() && statsCurrent(e.ds, reads)

	var buf [64]byte
	key := appendShapeKey(buf[:0], goal)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !fresh && e.ck == ck {
		e.ck = newCompiledKB(e.kb, e.ds, e.opts)
	}
	ck = e.ck
	if sh := ck.shapes[string(key)]; sh != nil {
		return sh, nil
	}
	sh, err := ck.checkedShape(goal)
	if err == nil {
		ck.shapes[string(key)] = sh
	}
	return sh, err
}

// checkedShape compiles goal's shape, checks the advice it generates, and
// sizes the shape's path expression from it.
func (ck *compiledKB) checkedShape(goal logic.Atom) (*shape, error) {
	sh := ck.compileShape(goal)
	var blk adviceBlock
	if err := sh.advice(&blk, ck.kb, Options{PathExpression: true}).Validate(); err != nil {
		return nil, fmt.Errorf("ie: generated invalid advice: %w", err)
	}
	sh.path = pathSize{seqs: len(blk.seqs), alts: len(blk.alts), exprs: len(blk.exprs)}
	return sh, nil
}

// Advice compiles and returns the advice bundle for a query without running
// it (diagnostics, tests, cmd tools). The bundle is the caller's to change.
func (e *Engine) Advice(goal logic.Atom) (*advice.Advice, error) {
	sh, err := e.shape(goal)
	if err != nil {
		return nil, err
	}
	adv := sh.advice(new(adviceBlock), e.kb, e.opts)
	adv.BaseRels = slices.Clone(adv.BaseRels)
	for _, v := range adv.Views {
		v.Query = v.Query.Clone()
		v.Bindings = slices.Clone(v.Bindings)
		v.Rules = slices.Clone(v.Rules)
	}
	return adv, nil
}
