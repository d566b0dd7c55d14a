package cache

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/caql"
	"repro/internal/logic"
	"repro/internal/relation"
	"repro/internal/subsume"
)

// Manager is the Cache Manager (Section 5.4): it stores and replaces cache
// elements (LRU modified by advice), tracks resources, and maintains the
// cache model. It is safe for concurrent use by many sessions.
//
// Concurrency design: the store is split into numShards shards. An element
// is homed in the shard of the FNV hash of its definition's canonical form,
// and filed in the signature index in the shard of its index key (sigKey), so
// one element may touch two shards. Each shard has its own RWMutex — lookups
// (ExactMatch, CandidatesFor) take read locks only, and a probe takes one
// read lock per distinct shard among its keys, so concurrent sessions probing
// the cache never serialize; insert and remove take the home shard's write
// lock and then the key shard's, one after the other, never both at once.
// An element is filed once and unfiled once (Element.filing, under the key
// shard's lock), so an eviction that unfiles an element between its insert's
// two steps leaves nothing behind. Touch is entirely atomic (no lock). Budget
// eviction is the one global operation: it serializes on evictMu and takes
// shard locks one at a time, never holding two at once.
//
// The bytes of the resident elements are a running count: an element adds
// its bytes when a shard makes it resident and takes them off when a shard
// unmakes it, under that shard's write lock and its own, and an index built
// on a resident element adds the index's (Element.enter, leave, indexBuilt).
// So SizeBytes is one load, and an insert with room to spare reads nothing
// else.
//
// The signature index is the paper's "(predicate name, cache element)" index
// for step 2, made selective. Subsumption needs every atom of an element to
// find an atom of the query over the same relation with the same constant
// wherever the element has one, so any one atom of the element is a sound
// key. An element is filed once, under its first atom that carries a
// constant — keyed by (relation, arity, position, constant) — or, having no
// constant anywhere, under its first atom's (relation, arity). A query atom
// can only be met by elements filed under its relation with no constant or
// with one of its own constants at the same position, so a probe reads one
// bucket per query atom plus one per constant in it. Elements that pin a
// constant the query does not have are never looked at, however many are
// resident; what a probe does walk — constant-free definitions (whole
// relations, ranges) and the elements pinning one of the query's own
// constants — it walks with subsume.MayDerive, which allocates nothing.
//
// Every change to what a probe could find or choose — an insert, a publish,
// an eviction, a removal, an index build (which changes an element's size) —
// moves the generation, once it is made. A session's shape memo (memo.go)
// serves only while the generation it was planned under stands.
type Manager struct {
	budget int64
	shards [numShards]managerShard

	nextID  atomic.Int64
	tick    atomic.Int64
	evicted atomic.Int64
	gen     atomic.Uint64
	bytes   atomic.Int64 // the resident elements' bytes

	// filed counts the elements filed under each signature-index key, by
	// the key's value modulo filedSlots; keys that share a slot share a
	// count. A shape memo asks it, without a lock, whether a probe for a
	// query's constants could find anything.
	filed [filedSlots]atomic.Int32

	// evictMu serializes budget-eviction sweeps.
	evictMu sync.Mutex

	// pmu guards the per-session predictor registry. A predictor returns the
	// number of queries until an element is predicted to be needed again
	// (advice-modified replacement); ok is false when that session's advice
	// predicts nothing for it.
	pmu        sync.RWMutex
	predictors map[int64]func(e *Element) (int, bool)
}

const numShards = 16

const filedSlots = 1024

type managerShard struct {
	mu       sync.RWMutex
	elements map[int]*Element    // the elements homed here
	byCanon  map[string]*Element // exact-match result cache index
	// bySig is this shard's part of the signature index: sigKey hash → the
	// elements filed under it, for the keys homed here. Distinct keys that
	// collide share a bucket, which costs a probe a few more MayDerive calls
	// and nothing else.
	bySig map[uint64][]*Element
}

// Element.filing states: an element is filed in the signature index once,
// by its insert, and unfiled once, by its removal; an element unfiled before
// its insert files it is never filed.
const (
	unfiledYet uint8 = iota
	filedNow
	unfiledForGood
)

// sigKey hashes an index key: an atom's relation and arity, and either one
// constant position with its value or pos < 0 for "no constant". Value.Hash
// agrees with Value.Equal (2 and 2.0 hash alike), as the matcher's constant
// rule requires.
func sigKey(a logic.Atom, pos int) uint64 {
	h := fnvString(a.Pred)
	h = (h ^ uint64(len(a.Args))) * fnvPrime
	h = (h ^ uint64(pos+1)) * fnvPrime
	if pos >= 0 {
		h = (h ^ a.Args[pos].Const.Hash()) * fnvPrime
	}
	return h
}

// filingKey is the one key an element definition is indexed under.
func filingKey(def *caql.Query) uint64 {
	for _, a := range def.Rels {
		for p, t := range a.Args {
			if t.IsConst() {
				return sigKey(a, p)
			}
		}
	}
	return sigKey(def.Rels[0], -1)
}

const fnvPrime = 1099511628211

// fnvString is the 64-bit FNV-1a hash of s.
func fnvString[S string | []byte](s S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func shardIndex[S string | []byte](canon S) int { return int(fnvString(canon) % numShards) }

// NewManager creates a cache manager with the given byte budget (<= 0 means
// unbounded).
func NewManager(budget int64) *Manager {
	m := &Manager{budget: budget, predictors: make(map[int64]func(*Element) (int, bool))}
	for i := range m.shards {
		s := &m.shards[i]
		s.elements = make(map[int]*Element)
		s.byCanon = make(map[string]*Element)
		s.bySig = make(map[uint64][]*Element)
	}
	return m
}

func (m *Manager) shardFor(canon string) *managerShard {
	return &m.shards[shardIndex(canon)]
}

// keyShard is the shard that holds index key k's bucket.
func (m *Manager) keyShard(k uint64) *managerShard { return &m.shards[k%numShards] }

// generation is the count of changes made to what a probe could find or
// choose (see Manager).
func (m *Manager) generation() uint64 { return m.gen.Load() }

// mayFile reports whether an element may be filed under key k: false means
// no element is.
func (m *Manager) mayFile(k uint64) bool { return m.filed[k%filedSlots].Load() != 0 }

// file files e in the signature index under its key, unless its removal has
// unfiled it already.
func (m *Manager) file(e *Element) {
	s := m.keyShard(e.key)
	s.mu.Lock()
	if e.filing == unfiledYet {
		s.bySig[e.key] = append(s.bySig[e.key], e)
		m.filed[e.key%filedSlots].Add(1)
		e.filing = filedNow
	}
	s.mu.Unlock()
}

// unfile takes e out of the signature index for good.
func (m *Manager) unfile(e *Element) {
	s := m.keyShard(e.key)
	s.mu.Lock()
	if e.filing == filedNow {
		list := s.bySig[e.key]
		if i := slices.Index(list, e); i >= 0 {
			list = slices.Delete(list, i, i+1)
		}
		if len(list) == 0 {
			delete(s.bySig, e.key) // constants come and go; empty buckets must not pile up
		} else {
			s.bySig[e.key] = list
		}
		m.filed[e.key%filedSlots].Add(-1)
	}
	e.filing = unfiledForGood
	s.mu.Unlock()
}

// publish makes e visible to every session.
func (m *Manager) publish(e *Element) {
	e.publish()
	m.gen.Add(1)
}

// RegisterPredictor installs a session's advice-driven replacement predictor.
func (m *Manager) RegisterPredictor(sid int64, f func(e *Element) (int, bool)) {
	m.pmu.Lock()
	m.predictors[sid] = f
	m.pmu.Unlock()
}

// UnregisterPredictor removes a session's predictor.
func (m *Manager) UnregisterPredictor(sid int64) {
	m.pmu.Lock()
	delete(m.predictors, sid)
	m.pmu.Unlock()
}

// predictDistance returns the minimum predicted reuse distance for e across
// all registered session predictors; ok is false when no session predicts it.
func (m *Manager) predictDistance(e *Element) (int, bool) {
	m.pmu.RLock()
	defer m.pmu.RUnlock()
	best, ok := 0, false
	for _, f := range m.predictors {
		if d, predicted := f(e); predicted && (!ok || d < best) {
			best, ok = d, true
		}
	}
	return best, ok
}

// Len returns the number of cached elements.
func (m *Manager) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.elements)
		s.mu.RUnlock()
	}
	return n
}

// SizeBytes returns the total cache footprint: the sum of the resident
// elements' SizeBytes whenever no insert, removal or index build is under
// way.
func (m *Manager) SizeBytes() int64 { return m.bytes.Load() }

// Evictions returns the cumulative eviction count.
func (m *Manager) Evictions() int64 { return m.evicted.Load() }

// Insert stores an element built from the given parts. Insertion may evict
// victims to respect the budget; elements larger than the whole budget are
// returned unstored (callers still use them for the current answer). stored
// reports whether the element survived the post-insert budget sweep.
func (m *Manager) Insert(e *Element) (stored bool) {
	size := e.SizeBytes()
	if m.budget > 0 && size > m.budget {
		return false
	}
	e.lastUse.Store(m.tick.Add(1))
	e.key = filingKey(e.Def)

	s := m.shardFor(e.canon)
	s.mu.Lock()
	old := s.byCanon[e.canon]
	if old != nil {
		s.removeLocked(old)
	}
	s.elements[e.ID] = e
	s.byCanon[e.canon] = e
	e.enter(m)
	s.mu.Unlock()
	if old != nil {
		m.unfile(old)
	}
	m.file(e)
	m.gen.Add(1)

	if m.budget > 0 {
		m.ensureSpace()
		s.mu.RLock()
		_, stored = s.elements[e.ID]
		s.mu.RUnlock()
		return stored
	}
	return true
}

// NewElementID allocates a fresh element ID.
func (m *Manager) NewElementID() int { return int(m.nextID.Add(1)) }

// ensureSpace evicts elements until within budget. The victim is the element
// predicted to be needed *farthest* in the future (unpredicted elements count
// as infinitely far), ties broken by least recent use — the paper's
// replacement use of path expressions: an element predicted "for one of the
// next two queries ... is not the best candidate". Without a predictor this
// degenerates to plain LRU.
//
// One sweep ranks every resident element once, asking the predictors about
// each once, into a heap on that order, and pops victims until the count is
// within budget, skipping one a concurrent removal took first: k victims of n
// cost O(n + k log n). Predictions and uses stand still while one session
// inserts, so its victims are those of picking the first again after every
// eviction. An element inserted during the sweep is not ranked; its insert
// sweeps next. Sweeps serialize on evictMu and hold at most one shard lock at
// a time.
func (m *Manager) ensureSpace() {
	if m.bytes.Load() <= m.budget {
		return
	}
	m.evictMu.Lock()
	defer m.evictMu.Unlock()
	if m.bytes.Load() <= m.budget {
		return
	}
	const farAway = int(^uint(0) >> 1)
	var h []victim
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for _, e := range s.elements {
			dist := farAway
			if d, ok := m.predictDistance(e); ok {
				dist = d
			}
			h = append(h, victim{e, dist, e.lastUse.Load()})
		}
		s.mu.RUnlock()
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 && m.bytes.Load() > m.budget {
		v := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		if m.remove(v.e) {
			m.evicted.Add(1)
		}
	}
}

// victim is an element ranked for eviction: its predicted reuse distance and
// its last use when the sweep read them.
type victim struct {
	e    *Element
	dist int
	use  int64
}

// before reports whether a is evicted before b: farther predicted reuse
// first, then less recent use.
func (a victim) before(b victim) bool {
	return a.dist > b.dist || a.dist == b.dist && a.use < b.use
}

// siftDown restores the heap order of h below i.
func siftDown(h []victim, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// removeLocked takes e out of its home shard s, whose write lock the caller
// holds, and its bytes off the count.
func (s *managerShard) removeLocked(e *Element) {
	delete(s.elements, e.ID)
	if cur, ok := s.byCanon[e.canon]; ok && cur.ID == e.ID {
		delete(s.byCanon, e.canon)
	}
	e.leave()
}

// remove takes e out of the cache, holding one shard lock at a time, and
// reports whether it was still resident.
func (m *Manager) remove(e *Element) bool {
	s := m.shardFor(e.canon)
	s.mu.Lock()
	_, still := s.elements[e.ID]
	if still {
		s.removeLocked(e)
	}
	s.mu.Unlock()
	if still {
		m.unfile(e)
		m.gen.Add(1)
	}
	return still
}

// Remove evicts one element immediately (a no-op if it is already gone): the
// QPO's stale-epoch invalidation path, which must unlink a view before
// refetching so no later lookup can serve it.
func (m *Manager) Remove(e *Element) { m.remove(e) }

// Touch records a use of the element for LRU purposes. It is lock-free.
func (m *Manager) Touch(e *Element) {
	e.lastUse.Store(m.tick.Add(1))
	e.hits.Add(1)
}

// ExactMatch finds a published element whose definition exactly matches q up
// to variable renaming (result caching).
func (m *Manager) ExactMatch(q *caql.Query) *Element {
	return m.ExactMatchFor(q.AppendCanonical(nil), 0)
}

// ExactMatchFor is ExactMatch, by the bytes of a canonical form, restricted
// to elements visible to the given session: published elements plus the
// session's own in-flight prefetches. It allocates nothing: the map index
// converts the bytes without copying them.
func (m *Manager) ExactMatchFor(canon []byte, sid int64) *Element {
	s := &m.shards[shardIndex(canon)]
	s.mu.RLock()
	e := s.byCanon[string(canon)]
	s.mu.RUnlock()
	if e != nil && !e.visibleTo(sid) {
		return nil
	}
	return e
}

// CandidatesFor returns the published elements that may derive q or a
// conjunctive subquery of it.
func (m *Manager) CandidatesFor(q *caql.Query) []*Element {
	return m.CandidatesForSession(subsume.Prepare(q), 0)
}

// CandidatesForSession is the one place elements are enumerated for a query:
// it returns, in ascending ID order, the elements visible to the session that
// pass subsume.MayDerive — a superset of those subsume.Match accepts. It
// reads the signature index (see Manager), so its cost follows the number of
// constant-free definitions over q's relations, not the number of elements
// resident. Each shard that holds one of q's keys is read under a read lock,
// so concurrent lookups proceed in parallel.
func (m *Manager) CandidatesForSession(q *subsume.Prepared, sid int64) []*Element {
	return m.appendCandidates(nil, q, sid)
}

// appendCandidates is CandidatesForSession appending to dst, so that a caller
// with a slice to reuse allocates nothing.
func (m *Manager) appendCandidates(dst []*Element, q *subsume.Prepared, sid int64) []*Element {
	// Two atoms of q can ask for one bucket; visiting each once means no
	// element is met twice, since each is filed once.
	var buf [16]uint64
	keys := buf[:0]
	add := func(k uint64) {
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	for _, a := range q.Query.Rels {
		add(sigKey(a, -1))
		for p, t := range a.Args {
			if t.IsConst() {
				add(sigKey(a, p))
			}
		}
	}
	out := dst
	var read [numShards]bool
	for i, k := range keys {
		si := k % numShards
		if read[si] {
			continue
		}
		read[si] = true
		s := &m.shards[si]
		s.mu.RLock()
		for _, k := range keys[i:] {
			if k%numShards != si {
				continue
			}
			for _, e := range s.bySig[k] {
				if e.visibleTo(sid) && subsume.MayDerive(e.sig, q) {
					out = append(out, e)
				}
			}
		}
		s.mu.RUnlock()
	}
	// Ascending ID makes every choice among equals downstream independent of
	// shard iteration order.
	slices.SortFunc(out[len(dst):], func(a, b *Element) int { return a.ID - b.ID })
	return out
}

// Elements returns a snapshot of all elements.
func (m *Manager) Elements() []*Element {
	var out []*Element
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for _, e := range s.elements {
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	return out
}

// Model returns the cache model (Section 5.4: "the cache model represents
// the state and statistical information about the cache") as a relation, so
// the IE can query it through the normal interface.
func (m *Manager) Model() *relation.Relation {
	schema := relation.NewSchema(
		relation.Attr{Name: "e_id", Kind: relation.KindInt},
		relation.Attr{Name: "e_def", Kind: relation.KindString},
		relation.Attr{Name: "size_bytes", Kind: relation.KindInt},
		relation.Attr{Name: "hits", Kind: relation.KindInt},
		relation.Attr{Name: "last_use", Kind: relation.KindInt},
		relation.Attr{Name: "advice_name", Kind: relation.KindString},
	)
	out := relation.New("cache_model", schema)
	for _, e := range m.Elements() {
		out.MustAppend(relation.Tuple{
			relation.Int(int64(e.ID)),
			relation.Str(e.Def.String()),
			relation.Int(e.SizeBytes()),
			relation.Int(e.hits.Load()),
			relation.Int(e.lastUse.Load()),
			relation.Str(e.AdviceName),
		})
	}
	return out.SortBy([]int{0})
}
