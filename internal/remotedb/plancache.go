package remotedb

import "sync"

// The plan cache maps canonical statement text (hashed with StatementHash)
// to compiled Plans. Entries carry the catalog epoch they were built
// against; any DDL or data mutation (CreateTable, LoadTable, Insert,
// CreateIndex) bumps the engine epoch, which lazily invalidates every older
// entry on its next lookup. Eviction is least-recently-used over a small
// fixed capacity — the cache exists to make repeated statements cheap, not
// to remember every statement ever seen.

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

// get returns the cached plan for text if it was built at the given epoch,
// dropping (and missing on) any stale entry. A key collision with another
// statement is a miss; the caller's put then replaces the entry.
func (c *planCache) get(key uint64, text string, epoch uint64) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	en := c.entries[key]
	if en == nil || en.text != text {
		return nil
	}
	if en.p.epoch != epoch {
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
