package relation

import "fmt"

// AggOp is an aggregation operator. CAQL exposes these through its
// second-order AGG predicate (Section 5, feature (a)); the remote DBMS's SQL
// subset supports them in SELECT lists.
type AggOp uint8

// Aggregation operators.
const (
	AggCount AggOp = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL spelling of the aggregate.
func (a AggOp) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "AGG?"
	}
}

// ParseAggOp parses an aggregate name (case-sensitive upper).
func ParseAggOp(s string) (AggOp, error) {
	switch s {
	case "COUNT", "count":
		return AggCount, nil
	case "SUM", "sum":
		return AggSum, nil
	case "MIN", "min":
		return AggMin, nil
	case "MAX", "max":
		return AggMax, nil
	case "AVG", "avg":
		return AggAvg, nil
	default:
		return 0, fmt.Errorf("relation: unknown aggregate %q", s)
	}
}

// AggSpec describes one aggregate output: the operator and its input column
// (ignored for COUNT, where Col may be -1).
type AggSpec struct {
	Op  AggOp
	Col int
}

type aggState struct {
	count int64
	sum   float64
	min   Value
	max   Value
	any   bool
}

func (st *aggState) add(v Value) {
	st.count++
	if v.IsNumeric() {
		st.sum += v.AsFloat()
	}
	if !st.any {
		st.min, st.max, st.any = v, v, true
		return
	}
	if v.Less(st.min) {
		st.min = v
	}
	if st.max.Less(v) {
		st.max = v
	}
}

// merge folds another partial state into st. Every supported aggregate is
// decomposable: COUNT and SUM add, MIN/MAX fold, and AVG is carried as
// (sum, count) until result() divides — so partials computed over disjoint
// input partitions merge into exactly the state a single pass would build.
func (st *aggState) merge(o aggState) {
	st.count += o.count
	st.sum += o.sum
	if !o.any {
		return
	}
	if !st.any {
		st.min, st.max, st.any = o.min, o.max, true
		return
	}
	if o.min.Less(st.min) {
		st.min = o.min
	}
	if st.max.Less(o.max) {
		st.max = o.max
	}
}

func (st *aggState) result(op AggOp) Value {
	switch op {
	case AggCount:
		return Int(st.count)
	case AggSum:
		return Float(st.sum)
	case AggAvg:
		if st.count == 0 {
			return Null()
		}
		return Float(st.sum / float64(st.count))
	case AggMin:
		if !st.any {
			return Null()
		}
		return st.min
	case AggMax:
		if !st.any {
			return Null()
		}
		return st.max
	default:
		return Null()
	}
}

// aggGroup is one group's key and per-spec running states.
type aggGroup struct {
	key    Tuple
	hash   uint64    // key.Hash64()
	next   *aggGroup // next group whose key hashes alike
	states []aggState
}

// AggAccum is a grouped-aggregation accumulator that supports merging:
// partial accumulators built over disjoint slices of the input (one per
// parallel worker, say) Merge into exactly the accumulator a single
// sequential pass would have produced, because every supported aggregate is
// decomposable (COUNT/SUM add, MIN/MAX fold, AVG carries sum+count).
// Groups are found by the 64-bit hash of their key and verified by value, as
// in Distinct and the hash join, so a tuple that joins an existing group
// allocates nothing. A new group is carved from a block of groups, takes its
// key from a tupleArena and its states from a block of them, so none of the
// three costs an allocation of its own, and the group table grows by adding
// a block, never by copying the groups it holds.
// Group emission order is first-seen order: Add order within an accumulator,
// then Merge order across accumulators. Not safe for concurrent use; build
// one per worker and merge on a single goroutine.
type AggAccum struct {
	groupBy []int
	specs   []AggSpec
	keyCols []int                // 0..len(groupBy)-1: the columns of a stored key
	heads   map[uint64]*aggGroup // key hash -> first group of its collision chain
	blocks  [][]aggGroup         // the groups in first-seen order; the last is being filled
	n       int                  // groups, over every block
	spine   [16][]aggGroup       // blocks' first backing array: 10 232 groups
	arena   tupleArena           // group keys and emitted rows
	states  []aggState           // the current state block; new groups carve its tail
}

// aggBlockStates caps the state blocks. Like tupleArena's they double from
// the first group's size and are never copied, so a group's states stay put.
// aggBlockGroups caps the group blocks, which double from 8 in the same way.
const (
	aggBlockStates = 1024
	aggBlockGroups = 1024
)

// NewAggAccum returns an empty accumulator for the given grouping columns
// and aggregate specs.
func NewAggAccum(groupBy []int, specs []AggSpec) *AggAccum {
	a := &AggAccum{groupBy: groupBy, specs: specs, keyCols: identity(len(groupBy)),
		heads: make(map[uint64]*aggGroup)}
	a.blocks = a.spine[:0]
	return a
}

// group returns the group keyed by t's cols (whose hash is h), creating it
// at the end of the first-seen order when no group has that key yet.
func (a *AggAccum) group(h uint64, t Tuple, cols []int) *aggGroup {
	head := a.heads[h]
	for g := head; g != nil; g = g.next {
		if equalOn(t, cols, g.key, a.keyCols) {
			return g
		}
	}
	g := a.newGroup()
	*g = aggGroup{key: a.arena.project(t, cols), hash: h, next: head, states: a.newStates()}
	a.heads[h] = g
	return g
}

// newGroup carves the next group from the last block, starting a block
// twice its size (up to aggBlockGroups) when it is full.
func (a *AggAccum) newGroup() *aggGroup {
	last := len(a.blocks) - 1
	if last < 0 || len(a.blocks[last]) == cap(a.blocks[last]) {
		size := 8
		if last >= 0 {
			size = min(2*cap(a.blocks[last]), aggBlockGroups)
		}
		a.blocks = append(a.blocks, make([]aggGroup, 0, size))
		last++
	}
	b := a.blocks[last]
	a.blocks[last] = b[:len(b)+1]
	a.n++
	return &a.blocks[last][len(b)]
}

// newStates carves one group's zeroed states from the current block.
func (a *AggAccum) newStates() []aggState {
	n := len(a.specs)
	if cap(a.states)-len(a.states) < n {
		a.states = make([]aggState, 0, max(n, min(2*cap(a.states), aggBlockStates)))
	}
	off := len(a.states)
	a.states = a.states[:off+n]
	return a.states[off : off+n : off+n]
}

// Add folds one input tuple into its group.
func (a *AggAccum) Add(t Tuple) {
	g := a.group(t.Hash64On(a.groupBy), t, a.groupBy)
	for i, spec := range a.specs {
		if spec.Op == AggCount && spec.Col < 0 {
			g.states[i].count++
			continue
		}
		g.states[i].add(t[spec.Col])
	}
}

// Merge folds another accumulator (built with the same groupBy/specs) into
// this one. Groups unseen here append in o's order.
func (a *AggAccum) Merge(o *AggAccum) {
	for _, b := range o.blocks {
		for i := range b {
			og := &b[i]
			g := a.group(og.hash, og.key, a.keyCols)
			for j := range a.specs {
				g.states[j].merge(og.states[j])
			}
		}
	}
}

// Emit renders the group rows: group-by values followed by aggregate results
// in specification order. With no groupBy columns a single output tuple is
// produced even over empty input, matching SQL.
func (a *AggAccum) Emit() []Tuple {
	if len(a.groupBy) == 0 && a.n == 0 {
		// Global aggregate over empty input still yields one row.
		a.group(Tuple(nil).Hash64(), nil, nil)
	}
	out := make([]Tuple, 0, a.n)
	for _, b := range a.blocks {
		for i := range b {
			g := &b[i]
			row := a.arena.make(len(g.key) + len(a.specs))
			row = append(row, g.key...)
			for j, spec := range a.specs {
				row = append(row, g.states[j].result(spec.Op))
			}
			out = append(out, row)
		}
	}
	return out
}

// Aggregate groups the input by the groupBy columns and computes the given
// aggregates for each group. The output tuples are group-by values followed
// by aggregate results, in specification order. With no groupBy columns a
// single output tuple is produced (even over empty input, matching SQL).
//
// Aggregation is a blocking operator: the input is drained eagerly.
func Aggregate(in Iterator, groupBy []int, specs []AggSpec) []Tuple {
	acc := NewAggAccum(groupBy, specs)
	for {
		t, ok := in.Next()
		if !ok {
			break
		}
		acc.Add(t)
	}
	return acc.Emit()
}

// AggregateRel is the eager relation-level wrapper around Aggregate. Output
// attribute names are the group-by attribute names followed by "op_col"
// names.
func AggregateRel(name string, r *Relation, groupBy []int, specs []AggSpec) *Relation {
	attrs := make([]Attr, 0, len(groupBy)+len(specs))
	for _, c := range groupBy {
		attrs = append(attrs, r.schema.Attr(c))
	}
	for _, s := range specs {
		kind := KindFloat
		colName := "*"
		if s.Op == AggCount {
			kind = KindInt
		}
		if s.Col >= 0 {
			colName = r.schema.Attr(s.Col).Name
			if s.Op == AggMin || s.Op == AggMax {
				kind = r.schema.Attr(s.Col).Kind
			}
		}
		attrs = append(attrs, Attr{Name: fmt.Sprintf("%s_%s", s.Op, colName), Kind: kind})
	}
	tuples := Aggregate(r.Iter(), groupBy, specs)
	return FromTuples(name, NewSchema(attrs...), tuples)
}
