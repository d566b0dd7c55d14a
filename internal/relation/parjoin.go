package relation

// Hash-join build tables. A PartitionedTable drains an equi-join's build side
// into P partitions keyed by the 64-bit hash of the join columns, and is
// read-only afterwards, so any number of goroutines probe it without a lock,
// each probe iterator writing its outputs where its consumer asks, projected
// when the consumer keeps only some columns. HashJoin builds one partition; a
// parallel executor's join builds one per worker.

// PartitionedTable is a hash-partitioned equi-join build table. Each
// partition maps a key hash to the head of that hash's chain of build rows.
type PartitionedTable struct {
	leftCols  []int // probe-side join columns
	rightCols []int // build-side join columns
	parts     []map[uint64]*buildRow
}

// buildRow is one build tuple, linked to the next build tuple of its hash.
type buildRow struct {
	t    Tuple
	h    uint64 // t.Hash64On(rightCols)
	next *buildRow
}

// buildBlockRows caps the blocks a build carves its rows from.
const buildBlockRows = 1024

// maxSizeHint caps the estimate a hash table is sized from: a wrong estimate
// costs at most this many entries of map.
const maxSizeHint = 1 << 16

// NewPartitionedTable drains build into a table of `parts` partitions (<= 0
// is clamped to 1) for the given equi-join conditions. A build iterator that
// stops early (a cancellation checkpoint, say) leaves a table of what it
// delivered. keys is the number of distinct build keys the caller expects
// (an optimizer's estimate, capped at 1<<16; 0 when it has none): each
// partition's map starts sized for its share of them, and grows from there.
// It is not the build's row count, which duplicate keys would overstate.
//
// Rows are carved from blocks that double from 8 to buildBlockRows and are
// never copied, so a build allocates per block, not per key. The chains are
// linked once the build is drained, back to front, so each lists its rows in
// build order: the order a probe emits its matches in.
func NewPartitionedTable(build Iterator, conds []JoinCond, parts, keys int) *PartitionedTable {
	parts = max(parts, 1)
	keys = min(max(keys, 0), maxSizeHint)
	cols := make([]int, 2*len(conds))
	pt := &PartitionedTable{leftCols: cols[:len(conds)], rightCols: cols[len(conds):],
		parts: make([]map[uint64]*buildRow, parts)}
	for i, c := range conds {
		pt.leftCols[i], pt.rightCols[i] = c.Left, c.Right
	}
	for i := range pt.parts {
		pt.parts[i] = make(map[uint64]*buildRow, (keys+parts-1)/parts)
	}
	var spine [16][]buildRow // 10 232 rows before the block list needs the heap
	blocks := spine[:0]
	var cur []buildRow
	for t, ok := build.Next(); ok; t, ok = build.Next() {
		if len(cur) == cap(cur) {
			if cur != nil {
				blocks = append(blocks, cur)
			}
			cur = make([]buildRow, 0, min(max(2*cap(cur), 8), buildBlockRows))
		}
		cur = append(cur, buildRow{t: t, h: t.Hash64On(pt.rightCols)})
	}
	blocks = append(blocks, cur)
	for b := len(blocks) - 1; b >= 0; b-- {
		for i := len(blocks[b]) - 1; i >= 0; i-- {
			r := &blocks[b][i]
			p := pt.parts[r.h%uint64(parts)]
			r.next = p[r.h]
			p[r.h] = r
		}
	}
	return pt
}

// Probe returns a streaming probe iterator over left: for each probe tuple
// it emits one row per build tuple agreeing on the join columns, in build
// order (chain membership is verified with Equal, so hash collisions cost a
// comparison, never correctness). A row is emitted when every post condition
// holds on the concatenation left ++ right, and is that concatenation when
// cols is nil, else its cols projection, written straight from the two
// tuples: the concatenation of an accepted pair is never built. Rows are
// written into dst, or, with dst nil, into one reused row that is valid until
// the next pull. A left row is read only until the next left pull. Probe
// iterators are independent and safe to run on concurrent goroutines.
func (pt *PartitionedTable) Probe(left Iterator, post []Cond, cols []int, dst *Arena) Iterator {
	return &probeIter{pt: pt, left: left, out: joinRows{rowWriter: rowWriter{dst: dst}, post: post, cols: cols}}
}

type probeIter struct {
	pt    *PartitionedTable
	left  Iterator
	out   joinRows
	cur   Tuple
	match *buildRow // rest of cur's chain, not yet verified
}

func (p *probeIter) Next() (Tuple, bool) {
	for {
		for r := p.match; r != nil; r = r.next {
			if !equalOn(p.cur, p.pt.leftCols, r.t, p.pt.rightCols) {
				continue
			}
			if t, ok := p.out.emit(p.cur, r.t); ok {
				p.match = r.next
				return t, true
			}
		}
		t, ok := p.left.Next()
		if !ok {
			return nil, false
		}
		h := t.Hash64On(p.pt.leftCols)
		p.cur, p.match = t, p.pt.parts[h%uint64(len(p.pt.parts))][h]
	}
}
