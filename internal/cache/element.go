// Package cache implements BrAID's Cache Management System (Section 5 of
// the paper): a main-memory relational store of *views* (cache elements
// defined by CAQL expressions), a query planner/optimizer that reuses cached
// data through subsumption, an advice manager driving prefetching, indexing,
// replacement, generalization and lazy evaluation, an execution monitor for
// parallel cache/remote subqueries, and the Remote DBMS Interface that
// translates CAQL to the remote DML.
//
// The CMS is a concurrent multi-session engine: the cache manager is sharded
// (manager.go), elements carry their own lock so several sessions can read
// one extension or index at once, and prefetches run on a bounded worker
// pool (prefetch.go). Lock ordering is shard → element, never the reverse;
// see DESIGN.md §10.
package cache

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/subsume"
)

// Element is one cache element: a relation defined by a CAQL expression,
// stored as its extension, with optional attribute indexes and bookkeeping
// for replacement decisions.
//
// Elements are safe for concurrent use: mu guards the derived
// representations (indexes, selection counts, served schemas), and
// the replacement bookkeeping is atomic so Touch never needs a lock. An
// element's Def, canonical form, signature and extension are immutable
// after construction.
type Element struct {
	ID  int
	Def *caql.Query
	// AdviceName is the view specification the element instantiates or
	// generalizes, when known; it links the element to path-expression
	// predictions.
	AdviceName string
	// canon caches Def.Canonical(): the manager keys its shards and
	// exact-match index on it.
	canon string
	// sig is Def prepared for matching: what the manager's signature index
	// filters on and what derivations from this element start from. Like Def
	// and canon it is bookkeeping, not charged to the byte budget.
	sig *subsume.Prepared
	// key is the signature-index key the element is filed under (filingKey),
	// set by Manager.Insert; filing is where it stands in that index, read
	// and written under the key's shard lock.
	key    uint64
	filing uint8

	ext  *relation.Relation
	size int64 // ext's bytes

	// mu guards the fields below. Element locks are leaves: code holding an
	// element lock never acquires a shard lock (DESIGN.md §10 lock ordering:
	// shard → element, never the reverse).
	mu      sync.Mutex
	indexes map[int]*relation.Index // by column
	ixBytes int64                   // the indexes' bytes
	// mgr is the manager e is resident in, nil while it is not: that
	// manager's byte count holds e's SizeBytes exactly while mgr is set.
	mgr *Manager
	// selUses counts equality selections per column, driving heuristic
	// index builds on unadvised columns.
	selUses map[int]int
	// served remembers the last output schemas hits were answered under,
	// newest first, so a hit of a shape served before builds none
	// (servedSchema). The few shapes one element serves — the same query
	// under its callers' variable names — fit.
	served [4]*relation.Schema

	// Replacement bookkeeping (Section 5.4: LRU modified by advice).
	lastUse atomic.Int64
	hits    atomic.Int64
	// readyAtSim is the owning session's virtual time at which the element's
	// data is fully present (prefetched elements may still be "in flight").
	// Immutable once the element is inserted into the manager.
	readyAtSim float64
	// prefetched marks elements loaded ahead of demand by path-expression
	// advice. Immutable after construction.
	prefetched bool
	// builtEpoch stamps the element's data with the backend clock as the
	// client had observed it just before the fetch that built it was issued
	// — never newer than the data, whose server snapshot came later, so any
	// change the data misses has a version above the stamp. The element is
	// stale once a request observes such a version for a relation its
	// definition names (staleChecker). Set before manager insertion,
	// immutable after.
	builtEpoch uint64
	// ownerSID is the session that inserted the element while its data was
	// still in (simulated) flight; 0 means published — visible to every
	// session. Prefetched elements stay session-private until the owning
	// session's clock passes readyAtSim, so other sessions never observe
	// "not yet ready" data (materialization-gated cross-session visibility).
	ownerSID atomic.Int64
}

// noteSelection records an equality selection on a column (index heuristics).
func (e *Element) noteSelection(col int) {
	e.mu.Lock()
	if e.selUses == nil {
		e.selUses = make(map[int]int)
	}
	e.selUses[col]++
	e.mu.Unlock()
}

// selCount returns the recorded equality-selection count for a column.
func (e *Element) selCount(col int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.selUses[col]
}

// servedSchema is derivedSchema(q, d, e), reusing a schema the element has
// served before when one fits.
func (e *Element) servedSchema(q *caql.Query, d *subsume.Derivation) *relation.Schema {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, sch := range e.served {
		if sch != nil && fitsSchema(sch, q, d, e) {
			return sch
		}
	}
	sch := derivedSchema(q, d, e)
	copy(e.served[1:], e.served[:])
	e.served[0] = sch
	return sch
}

// newExtensionElement builds an element over its extension; canon is
// def.Canonical(), which the caller has usually computed already.
func newExtensionElement(id int, def *caql.Query, canon string, ext *relation.Relation) *Element {
	return &Element{
		ID:      id,
		Def:     def,
		canon:   canon,
		sig:     subsume.Prepare(def),
		ext:     ext,
		indexes: make(map[int]*relation.Index),
		size:    ext.SizeBytes(),
	}
}

// Canonical returns the element definition's cached canonical form.
func (e *Element) Canonical() string { return e.canon }

// Schema returns the element's schema.
func (e *Element) Schema() *relation.Schema { return e.ext.Schema() }

// visibleTo reports whether the element may be served to the given session:
// either it is published (owner 0) or that session owns it.
func (e *Element) visibleTo(sid int64) bool {
	o := e.ownerSID.Load()
	return o == 0 || o == sid
}

// publish makes the element visible to every session.
func (e *Element) publish() { e.ownerSID.Store(0) }

// Iter returns an iterator over the element's tuples.
func (e *Element) Iter() relation.Iterator { return e.ext.Iter() }

// Extension returns the element's extension.
func (e *Element) Extension() *relation.Relation { return e.ext }

// Materialized reports whether the element's data is fully present — always,
// since every element holds its extension.
func (e *Element) Materialized() bool { return true }

// SizeBytes returns the current resource accounting for the element,
// including indexes.
func (e *Element) SizeBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.size + e.ixBytes
}

// enter makes m's byte count hold e's bytes; the caller holds the write lock
// of the shard that has just made e resident.
func (e *Element) enter(m *Manager) {
	e.mu.Lock()
	e.mgr = m
	m.bytes.Add(e.size + e.ixBytes)
	e.mu.Unlock()
}

// leave takes e's bytes off the count of the manager it is resident in; the
// caller holds the write lock of the shard that has just made it not.
func (e *Element) leave() {
	e.mu.Lock()
	if e.mgr != nil {
		e.mgr.bytes.Add(-(e.size + e.ixBytes))
		e.mgr = nil
	}
	e.mu.Unlock()
}

// Index returns the element's index on the given column, building it if
// requested and absent.
func (e *Element) Index(col int, build bool) *relation.Index {
	ix, _ := e.indexBuilt(col, build)
	return ix
}

// indexBuilt is Index plus a report of whether this call performed the build.
// Concurrent callers racing to build
// the same index serialize on the element lock; the first build wins (built
// is true for it alone) and later callers reuse it. A build on a resident
// element adds the index's bytes to its manager's count, under the lock a
// removal takes to subtract them, so the two never miss each other.
func (e *Element) indexBuilt(col int, build bool) (ix *relation.Index, built bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ix, ok := e.indexes[col]; ok {
		return ix, false
	}
	if !build {
		return nil, false
	}
	ix = relation.BuildIndex(e.ext, []int{col})
	e.indexes[col] = ix
	n := ix.SizeBytes()
	e.ixBytes += n
	if e.mgr != nil {
		e.mgr.bytes.Add(n)
	}
	return ix, true
}

// String renders a cache-model row for humans.
func (e *Element) String() string {
	return fmt.Sprintf("E%d[extension, %s, %dB, hits=%d] %s",
		e.ID, e.AdviceName, e.SizeBytes(), e.hits.Load(), strings.TrimSuffix(e.Def.String(), "."))
}
