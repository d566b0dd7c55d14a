package remotedb

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/relation"
)

// Per-column catalog statistics, maintained incrementally at LoadTable and
// Insert so the cost-based optimizer (optimizer.go) never has to scan a table
// to plan a query against it. Each column keeps a bottom-k sketch of its
// values' hashes, which gives its number of distinct values (NDV): exact up to
// statsK distinct values, estimated above, in at most 64 KB whatever the
// table's size. It also keeps the min/max of every non-NaN value inserted.
// The accumulators are add-only, matching the engine's append-only
// extensions: deletes do not exist, and wholesale replacement (LoadTable)
// rebuilds the accumulator. Recovery rebuilds them the same way, and the
// hash is deterministic, so a restarted engine plans as it did before.

// statsK is the sketch size: a column keeps the statsK smallest distinct
// hashes of its values. Up to statsK distinct values the NDV is exact (up to
// a 64-bit collision); above, it is (statsK-1)/U, where U is the statsK-th
// smallest hash scaled to [0, 1), with a relative standard error of about
// 1/sqrt(statsK-2), 1.6 %.
const statsK = 4096

// sketchSlots caps a column's hash table at 64 KB. The table holds every
// distinct hash at or below theta, open-addressed (linear probing; 0 marks
// an empty slot), and grows by at most half when three quarters full, so
// below statsK a column keeps at most 16 bytes a distinct value. At the cap
// a full table is compacted to the statsK smallest hashes, and theta drops
// to the largest of them (the Theta-sketch design of Apache DataSketches).
// A compaction costs O(sketchSlots) and makes room for a further
// sketchSlots*3/4-statsK hashes, so an added value costs O(1) amortized.
const sketchSlots = 8192

// colAcc accumulates one column's statistics.
type colAcc struct {
	tab   []uint64 // the hash table, hashes at or below theta
	n     int      // hashes in tab
	theta uint64   // the largest hash tab admits: all of them until a compaction
	over  bool     // more than statsK distinct hashes were seen: NDV is an estimate
	// kth caches the statsK-th smallest hash once over (0: not computed
	// since the last change). Readers fill it under the engine's read lock,
	// hence the atomic.
	kth      atomic.Uint64
	min, max relation.Value
	any      bool
}

// sketchHash is v's hash through splitmix64's finalizer, which makes the
// smallest hashes a uniform sample of the column's distinct values. Value.Hash
// keeps Int(1) and Float(1) one value. 0 marks an empty slot, so the one
// value hashing to 0 shares 1's slot.
func sketchHash(v relation.Value) uint64 {
	h := v.Hash() + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return max(h^h>>31, 1)
}

// slot is h's home slot in a table of size slots. h is uniform below theta,
// so its low bits are multiplied up into the bits fastrange reads.
func slot(h uint64, size int) int {
	hi, _ := bits.Mul64(h*0x9e3779b97f4a7c15, uint64(size))
	return int(hi)
}

// insert adds h to tab, reporting whether it was new.
func insert(tab []uint64, h uint64) bool {
	for i := slot(h, len(tab)); ; {
		switch tab[i] {
		case 0:
			tab[i] = h
			return true
		case h:
			return false
		}
		if i++; i == len(tab) {
			i = 0
		}
	}
}

func (c *colAcc) add(v relation.Value) {
	if h := sketchHash(v); h <= c.theta {
		if 4*(c.n+1) > 3*len(c.tab) {
			c.makeRoom()
		}
		if h <= c.theta {
			if !insert(c.tab, h) {
				return // Equal to a value seen before, so it moves neither bound
			}
			c.n++
			if c.n > statsK {
				c.over = true
				c.kth.Store(0)
			}
		}
	}
	// NaN sorts after every number, so a NaN max would leave range
	// interpolation nothing to divide by; the bounds cover the numbers only.
	if v.IsNumeric() && math.IsNaN(v.AsFloat()) {
		return
	}
	if !c.any {
		c.min, c.max, c.any = v, v, true
		return
	}
	if v.Less(c.min) {
		c.min = v
	}
	if c.max.Less(v) {
		c.max = v
	}
}

// makeRoom grows the table, or, at sketchSlots, compacts it to the statsK
// smallest hashes. The sizes run 8, 12, 16, 24, 32, ..., 6144, 8192: each
// step at most half again, and each table's bytes an allocation size class,
// so none are lost to rounding.
func (c *colAcc) makeRoom() {
	if s := len(c.tab); s < sketchSlots {
		size := 8
		switch {
		case s&(s-1) == 0 && s > 0:
			size = s + s/2
		case s > 0:
			size = s + s/3
		}
		tab := make([]uint64, size)
		for _, h := range c.tab {
			if h != 0 {
				insert(tab, h)
			}
		}
		c.tab = tab
		return
	}
	theta := c.kthHash()
	empty := slices.Index(c.tab, 0) // a slot no probe sequence crosses
	for i, h := range c.tab {
		if h > theta {
			c.tab[i] = 0
		}
	}
	// Reinsert the survivors in probe order from that slot: each moves back
	// to the first free slot of its sequence, which is never past its own.
	for j := 1; j <= len(c.tab); j++ {
		i := (empty + j) % len(c.tab)
		if h := c.tab[i]; h != 0 {
			c.tab[i] = 0
			insert(c.tab, h)
		}
	}
	c.n, c.theta = statsK, theta
	c.kth.Store(theta)
}

// kthHash returns the statsK-th smallest hash in the table, which holds more
// than statsK. It narrows a value range by 256-bucket counts until the
// bucket holding the answer fits a small buffer, then sorts that. Each pass
// reads the table once; two passes are typical. It allocates nothing and
// writes nothing, so concurrent readers may run it.
func (c *colAcc) kthHash() uint64 {
	lo, hi, rank := uint64(0), c.theta, statsK // the rank-th hash in [lo, hi]
	for {
		shift := max(bits.Len64(hi-lo)-8, 0)
		var count [256]int
		for _, h := range c.tab {
			if h != 0 && h >= lo && h <= hi {
				count[(h-lo)>>shift]++
			}
		}
		b := 0
		for ; rank > count[b]; b++ {
			rank -= count[b]
		}
		lo += uint64(b) << shift
		hi = min(hi, lo+(uint64(1)<<shift-1))
		var buf [256]uint64
		if count[b] > len(buf) {
			continue
		}
		n := 0
		for _, h := range c.tab {
			if h != 0 && h >= lo && h <= hi {
				buf[n] = h
				n++
			}
		}
		slices.Sort(buf[:n])
		return buf[rank-1]
	}
}

// ndv returns the distinct-value count: exact up to statsK, then
// (statsK-1)/U, never below statsK+1 (it is then known to be more).
func (c *colAcc) ndv() int {
	if !c.over {
		return c.n
	}
	kth := c.kth.Load()
	if kth == 0 {
		kth = c.kthHash()
		c.kth.Store(kth)
	}
	return max(int((statsK-1)/(float64(kth)/(1<<64))), statsK+1)
}

// tableMeta is the per-table statistics record.
type tableMeta struct {
	rows int
	cols []colAcc
}

func newTableMeta(arity int) *tableMeta {
	m := &tableMeta{cols: make([]colAcc, arity)}
	for i := range m.cols {
		m.cols[i].theta = math.MaxUint64
	}
	return m
}

func buildTableMeta(r *relation.Relation) *tableMeta {
	m := newTableMeta(r.Schema().Arity())
	for _, t := range r.Tuples() {
		m.addRow(t)
	}
	return m
}

func (m *tableMeta) addRow(t relation.Tuple) {
	m.rows++
	for i := range m.cols {
		if i < len(t) {
			m.cols[i].add(t[i])
		}
	}
}

// ColStats is one column's catalog statistics as exposed to callers (and to
// the experiments harness).
type ColStats struct {
	// NDV is the number of distinct values: exact when Exact (at most statsK
	// of them), else the sketch's estimate, about 1.6 % off.
	NDV   int
	Exact bool
	// Min and Max bound the observed values other than NaN; valid when
	// HasMinMax.
	Min, Max  relation.Value
	HasMinMax bool
}

// ColStats returns the maintained per-column statistics of a table.
func (e *Engine) ColStats(name string) ([]ColStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if _, ok := e.tables[name]; !ok {
		return nil, fmt.Errorf("remotedb: unknown table %s", name)
	}
	m := e.meta[name]
	if m == nil {
		return nil, nil
	}
	out := make([]ColStats, len(m.cols))
	for i := range m.cols {
		c := &m.cols[i]
		out[i] = ColStats{
			NDV:       c.ndv(),
			Exact:     !c.over,
			Min:       c.min,
			Max:       c.max,
			HasMinMax: c.any,
		}
	}
	return out, nil
}
