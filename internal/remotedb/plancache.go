package remotedb

import "sync"

// The plan cache holds one compiled Plan per statement shape: the statement
// with each WHERE literal replaced by its kind (SelectStmt.shapeKey, an FNV
// hash over the AST, so a lookup renders nothing). Statements that differ only
// in their constants share an entry; each execution binds its own literals
// into the shared, immutable plan (Plan.bind). An entry is served to a
// statement when
//
//   - its shape is the statement's (sameShape: a 64-bit key collision is a
//     miss, found without allocating);
//   - it is still current (Engine.planCurrentLocked): no DDL since its clock
//     tick, and no table it reads at a newer version — an insert into one
//     table drops, lazily on their next lookup, exactly the plans that read
//     it, since their index snapshots and statistics moved;
//   - the statement's literals choose the plan's join order
//     (Plan.orderHolds), the one plan decision a literal's value can move.
//
// Anything else is a miss, whose compile replaces the entry. Eviction is
// least-recently-used over a small fixed capacity — the cache exists to make
// repeated shapes cheap, not to remember every shape ever seen.

// planCacheCap bounds the number of cached plans per engine.
const planCacheCap = 256

type planCache struct {
	mu      sync.Mutex
	cap     int
	tick    uint64 // logical clock for LRU
	entries map[uint64]*planEntry
}

type planEntry struct {
	p    *Plan
	used uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[uint64]*planEntry)}
}

// get returns the cached plan for sel's shape if usable accepts it, dropping
// (and missing on) an entry it refuses. A key collision with another shape is
// a miss; the caller's put then replaces the entry.
func (c *planCache) get(key uint64, sel *SelectStmt, usable func(*Plan) bool) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	en := c.entries[key]
	if en == nil || !sameShape(en.p.stmt, sel) {
		return nil
	}
	if !usable(en.p) {
		delete(c.entries, key)
		return nil
	}
	c.tick++
	en.used = c.tick
	return en.p
}

// put caches p under key, the shape key of the statement it was compiled
// from.
func (c *planCache) put(key uint64, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok && len(c.entries) >= c.cap {
		var lruKey uint64
		var lruUsed uint64
		first := true
		for k, en := range c.entries {
			if first || en.used < lruUsed {
				lruKey, lruUsed, first = k, en.used, false
			}
		}
		delete(c.entries, lruKey)
	}
	c.tick++
	c.entries[key] = &planEntry{p: p, used: c.tick}
}

func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// planCurrentLocked reports whether p may still be served: nothing it was
// compiled against has moved. A DDL can drop an index p probes or replace a
// table it scans; a data change to a table p reads drops that table's index
// snapshots and shifts the statistics p was costed with. A change to any
// other table touches nothing p depends on. The caller holds e.mu.
func (e *Engine) planCurrentLocked(p *Plan) bool {
	if e.ddlEpoch > p.epoch {
		return false
	}
	for _, sn := range p.scans {
		if e.versions[sn.table] > p.epoch {
			return false
		}
	}
	return true
}

// PlanCacheStats is a point-in-time snapshot of plan-cache effectiveness.
type PlanCacheStats struct {
	Hits, Misses int64
	Entries      int
}

// PlanCacheStats reports cumulative plan-cache hits/misses and the current
// entry count.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:    e.planHits.Load(),
		Misses:  e.planMisses.Load(),
		Entries: e.plans.size(),
	}
}
