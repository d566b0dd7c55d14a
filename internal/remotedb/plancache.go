package remotedb

import "sync"

// The plan cache maps canonical statement text (hashed with StatementHash)
// to compiled Plans. A plan carries the clock tick it was built at and is
// served while it is still current (Engine.planCurrentLocked): no DDL since,
// and no table it reads at a newer version. An insert into one table
// therefore drops, lazily on their next lookup, exactly the plans that read
// it — their index snapshots and statistics moved — and no others. Eviction
// is least-recently-used over a small fixed capacity — the cache exists to
// make repeated statements cheap, not to remember every statement ever seen.

// planCacheCap bounds the number of cached plans per engine.
const planCacheCap = 256

type planCache struct {
	mu      sync.Mutex
	cap     int
	tick    uint64 // logical clock for LRU
	entries map[uint64]*planEntry
}

type planEntry struct {
	p *Plan
	// text is the canonical statement the plan was compiled from. The key is
	// a 64-bit hash of client-supplied text, so a hit must compare it: two
	// statements that collide would otherwise be served each other's plan.
	text string
	used uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[uint64]*planEntry)}
}

// get returns the cached plan for text if current reports it still valid,
// dropping (and missing on) a stale entry. A key collision with another
// statement is a miss; the caller's put then replaces the entry.
func (c *planCache) get(key uint64, text string, current func(*Plan) bool) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	en := c.entries[key]
	if en == nil || en.text != text {
		return nil
	}
	if !current(en.p) {
		delete(c.entries, key)
		return nil
	}
	c.tick++
	en.used = c.tick
	return en.p
}

func (c *planCache) put(key uint64, text string, p *Plan) {
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
	c.entries[key] = &planEntry{p: p, text: text, used: c.tick}
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
// other table touches nothing p depends on. The tables p reads are its scan
// nodes, which nodeEst holds with every other node (buildPlan stamps each as
// it is built), so checking them costs no field and no allocation. The
// caller holds e.mu.
func (e *Engine) planCurrentLocked(p *Plan) bool {
	if e.ddlEpoch > p.epoch {
		return false
	}
	for n := range p.nodeEst {
		if sn, ok := n.(*scanNode); ok && e.versions[sn.table] > p.epoch {
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
