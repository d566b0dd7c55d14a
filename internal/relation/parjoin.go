package relation

// Hash-join build tables. A PartitionedTable drains an equi-join's build side
// into P partitions keyed by the 64-bit hash of the join columns, and is
// read-only afterwards, so any number of goroutines probe it without a lock,
// each probe iterator allocating its outputs from its own tupleArena. HashJoin
// builds one partition; a parallel executor's join builds one per worker.

// PartitionedTable is a hash-partitioned equi-join build table.
type PartitionedTable struct {
	leftCols  []int // probe-side join columns
	rightCols []int // build-side join columns
	parts     []map[uint64][]Tuple
}

// NewPartitionedTable drains build into a table of `parts` partitions (<= 0
// is clamped to 1) for the given equi-join conditions. A build iterator that
// stops early (a cancellation checkpoint, say) leaves a table of what it
// delivered.
func NewPartitionedTable(build Iterator, conds []JoinCond, parts int) *PartitionedTable {
	parts = max(parts, 1)
	cols := make([]int, 2*len(conds))
	pt := &PartitionedTable{leftCols: cols[:len(conds)], rightCols: cols[len(conds):],
		parts: make([]map[uint64][]Tuple, parts)}
	for i, c := range conds {
		pt.leftCols[i], pt.rightCols[i] = c.Left, c.Right
	}
	for i := range pt.parts {
		pt.parts[i] = make(map[uint64][]Tuple)
	}
	for t, ok := build.Next(); ok; t, ok = build.Next() {
		h := t.Hash64On(pt.rightCols)
		p := pt.parts[h%uint64(parts)]
		p[h] = append(p[h], t)
	}
	return pt
}

// Probe returns a streaming probe iterator over left: for each probe tuple
// it emits one concatenation left ++ right per build tuple agreeing on the
// join columns (bucket membership is verified with Equal, so hash collisions
// cost a comparison, never correctness). Probe iterators are independent and
// safe to run on concurrent goroutines.
func (pt *PartitionedTable) Probe(left Iterator) Iterator {
	return &probeIter{pt: pt, left: left}
}

type probeIter struct {
	pt      *PartitionedTable
	left    Iterator
	arena   tupleArena
	cur     Tuple
	matches []Tuple // cur's bucket, not yet verified
}

func (p *probeIter) Next() (Tuple, bool) {
	for {
		for len(p.matches) > 0 {
			r := p.matches[0]
			p.matches = p.matches[1:]
			if equalOn(p.cur, p.pt.leftCols, r, p.pt.rightCols) {
				return p.arena.concat(p.cur, r), true
			}
		}
		t, ok := p.left.Next()
		if !ok {
			return nil, false
		}
		h := t.Hash64On(p.pt.leftCols)
		p.cur, p.matches = t, p.pt.parts[h%uint64(len(p.pt.parts))][h]
	}
}
