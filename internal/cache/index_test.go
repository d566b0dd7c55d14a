package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/caql"
	"repro/internal/relation"
	"repro/internal/subsume"
)

// indexShapes are the definitions and queries the superset oracle draws
// from; $1..$3 each take a small constant, so that elements and queries meet.
// The first block is caql_cold's statements verbatim, then write_mix's two
// views, E9's element mix and probe, then the shapes the matcher and the
// index have special cases for: a repeated variable, a constant in two
// positions, !=, =, float and string bounds, var-vs-var and constant-only
// comparisons, a constant on the second atom only, three atoms.
var indexShapes = []string{
	`q(P, Q) :- shipment($1, P, Q)`,
	`q(C, W) :- part($1, C, W)`,
	`q(S, P, Q) :- shipment(S, P, Q) & S >= $1 & S < $2 & Q >= 30$3`,
	`q(P, Q, C, W) :- shipment($1, P, Q) & part(P, C, W)`,
	`n(P, Q) :- shipment($1, P, Q) & Q >= 250`,
	`n(C, W) :- part($1, C, W) & W >= 50.0`,
	`n(S, P, Q) :- shipment(S, P, Q) & S >= $1 & S < $2 & Q >= 460`,
	`n(P, Q, C, W) :- shipment($1, P, Q) & part(P, C, W) & W >= 50.0`,

	`va(S, N, C) :- supplier(S, N, C) & S >= $1 & S < 1$2`,
	`vb(P, C, W) :- part(P, C, W) & P >= $1 & P < 1$2`,

	`e(X, Z) :- b3(X, "c2", Z) & X >= $1`,
	`e(X, Y, Z) :- b3(X, Y, Z) & Z < 4$1`,
	`e(X, W) :- b2(X, Z) & b3(Z, "c2", W) & X >= $1`,
	`e(Z) :- b3($1, "c2", Z)`,
	`q(X, Z) :- b3(X, "c2", Z) & X >= 3 & X < 20`,

	`all(S, P, Q) :- shipment(S, P, Q)`,
	`diag(S, Q) :- shipment(S, S, Q)`,
	`two(Q) :- shipment($1, $2, Q)`,
	`two(Q) :- shipment($1, $2.0, Q)`,
	`ne(S, P, Q) :- shipment(S, P, Q) & S != $1`,
	`eq(S, P, Q) :- shipment(S, P, Q) & S = $1`,
	`fl(P, C, W) :- part(P, C, W) & W >= $1.5 & W < 9.5`,
	`st(S, N) :- supplier(S, N, C) & N >= "n$1"`,
	`red(P, W) :- part(P, "c$1", W)`,
	`vv(S, P) :- shipment(S, P, Q) & S < P & Q > $1`,
	`never(S) :- supplier(S, N, C) & $1 < 3`,
	`late(S, P, C) :- shipment(S, P, Q) & part(P, C, $1)`,
	`three(S, N, C) :- supplier(S, N, R) & shipment(S, P, Q) & part(P, C, W) & S <= $1`,
	`self(P, Q) :- shipment(S, P, Q) & shipment($1, P, Q2)`,
}

func randomShape(rng *rand.Rand) *caql.Query {
	shape := indexShapes[rng.Intn(len(indexShapes))]
	c := func() string { return fmt.Sprint(rng.Intn(6)) }
	return caql.MustParse(strings.NewReplacer("$1", c(), "$2", c(), "$3", c()).Replace(shape))
}

func emptyElement(m *Manager, def *caql.Query) *Element {
	attrs := make([]relation.Attr, len(def.Head.Args))
	for i := range attrs {
		attrs[i] = relation.Attr{Name: fmt.Sprintf("c%d", i), Kind: relation.KindInt}
	}
	ext := relation.New(def.Name(), relation.NewSchema(attrs...))
	return newExtensionElement(m.NewElementID(), def, def.Canonical(), ext)
}

// TestIndexSupersetOfFullScan is the signature index's oracle: whatever it
// leaves out, a full scan of the cache with the real matcher must leave out
// too. The full scan is the reference and stays here.
func TestIndexSupersetOfFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := NewManager(0)
	for m.Len() < 400 {
		m.Insert(emptyElement(m, randomShape(rng)))
	}
	check := func(stage string) (matches int) {
		all := m.Elements()
		for i := 0; i < 300; i++ {
			q := randomShape(rng)
			pq := subsume.Prepare(q)
			got := map[int]bool{}
			last := 0
			for _, e := range m.CandidatesFor(q) {
				if e.ID <= last {
					t.Fatalf("%s: survivors not in ascending ID order, or repeated, at E%d", stage, e.ID)
				}
				last = e.ID
				got[e.ID] = true
			}
			for _, e := range all {
				for _, needed := range []map[string]bool{q.Head.VarSet(), neededVars(q)} {
					if len(subsume.Match(e.Def, q, needed)) == 0 {
						continue
					}
					matches++
					if !subsume.MayDerive(e.sig, pq) {
						t.Fatalf("%s: MayDerive refuses what Match accepts\nE: %s\nQ: %s", stage, e.Def, q)
					}
					if !got[e.ID] {
						t.Fatalf("%s: the index does not return an element Match accepts\nE: %s\nQ: %s", stage, e.Def, q)
					}
				}
			}
		}
		checkIndexFilesResident(t, m)
		return matches
	}
	if matches := check("full"); matches < 1000 {
		t.Fatalf("only %d accepted (element, query) pairs: the shapes no longer meet", matches)
	}
	// Removal and re-insertion maintain the index.
	for i, e := range m.Elements() {
		if i%2 == 0 {
			m.Remove(e)
		}
	}
	check("after removal")
	for m.Len() < 400 {
		m.Insert(emptyElement(m, randomShape(rng)))
	}
	check("after re-insertion")
}

// checkIndexFilesResident walks every bucket of every shard: the index must
// file exactly the resident elements, each once, in the shard of its key,
// keep no empty bucket, and count in Manager.filed what it files.
func checkIndexFilesResident(t *testing.T, m *Manager) {
	t.Helper()
	filed := map[int]bool{}
	var counts [filedSlots]int32
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, bucket := range s.bySig {
			if len(bucket) == 0 {
				t.Fatalf("empty bucket %x left in the index", k)
			}
			if k%numShards != uint64(i) {
				t.Fatalf("bucket %x is in shard %d, not its key's", k, i)
			}
			counts[k%filedSlots] += int32(len(bucket))
			for _, e := range bucket {
				if filed[e.ID] {
					t.Fatalf("E%d is filed twice", e.ID)
				}
				filed[e.ID] = true
			}
		}
		s.mu.RUnlock()
	}
	for i := range counts {
		if got := m.filed[i].Load(); got != counts[i] {
			t.Fatalf("filed slot %d counts %d elements, the index files %d there", i, got, counts[i])
		}
	}
	all := m.Elements()
	if len(filed) != len(all) {
		t.Fatalf("index files %d elements, cache holds %d", len(filed), len(all))
	}
	for _, e := range all {
		if !filed[e.ID] {
			t.Fatalf("resident element E%d is not in the index", e.ID)
		}
	}
}

// TestProbeFlatInResidentElements: what a probe costs must not depend on how
// many elements are resident when they pin constants the query does not
// have. Counted, not timed: survivors returned and objects allocated.
func TestProbeFlatInResidentElements(t *testing.T) {
	type reading struct{ missAllocs, hitAllocs float64 }
	var readings []reading
	for _, n := range []int{100, 10_000} {
		m := NewManager(0)
		for i := 0; i < n; i++ {
			m.Insert(emptyElement(m, caql.MustParse(fmt.Sprintf(`p%d(P, Q) :- shipment(%d, P, Q)`, i, i))))
			m.Insert(emptyElement(m, caql.MustParse(fmt.Sprintf(`j%d(P, Q, C, W) :- shipment(%d, P, Q) & part(P, C, W)`, i, n+i))))
		}
		// A range definition is walked, not hashed to; this one excludes both
		// probes' constants.
		m.Insert(emptyElement(m, caql.MustParse(`r(S, P, Q) :- shipment(S, P, Q) & S >= 1000000 & S < 1000009`)))

		fresh := subsume.Prepare(caql.MustParse(fmt.Sprintf(`q(P, Q) :- shipment(%d, P, Q)`, 3*n)))
		if got := m.CandidatesForSession(fresh, 0); len(got) != 0 {
			t.Fatalf("n=%d: a fresh point query has %d survivors, want 0", n, len(got))
		}
		// No survivor, so nothing at all is allocated: not in subsume, and
		// not for the probe's own bookkeeping either.
		var r reading
		if r.missAllocs = testing.AllocsPerRun(20, func() { m.CandidatesForSession(fresh, 0) }); r.missAllocs != 0 {
			t.Errorf("n=%d: a probe that finds nothing allocates %v objects, want 0", n, r.missAllocs)
		}

		m.Insert(emptyElement(m, caql.MustParse(`all(S, P, Q) :- shipment(S, P, Q)`)))
		known := subsume.Prepare(caql.MustParse(`q(P, Q) :- shipment(7, P, Q)`))
		got := m.CandidatesForSession(known, 0)
		if len(got) > 2 {
			t.Fatalf("n=%d: %d survivors for a point query, want at most 2 (its own element and the whole relation)", n, len(got))
		}
		for _, e := range got {
			if _, ok := e.sig.DeriveFull(known, nil); !ok {
				t.Errorf("n=%d: survivor %s does not derive the query", n, e.Def)
			}
		}
		r.hitAllocs = testing.AllocsPerRun(20, func() { m.CandidatesForSession(known, 0) })
		readings = append(readings, r)
	}
	if readings[0] != readings[1] {
		t.Errorf("probe allocations depend on residency: %+v with 100 point elements, %+v with 10 000", readings[0], readings[1])
	}
}

// TestIndexConcurrentMaintenance: inserts, removals (explicit and by budget
// eviction) and probes from several goroutines at once leave the index filing
// exactly the resident elements. Under -race this is the index's share of
// the shard-lock discipline.
func TestIndexConcurrentMaintenance(t *testing.T) {
	m := NewManager(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 300; i++ {
				q := randomShape(rng)
				switch {
				case g%2 == 0:
					e := emptyElement(m, q)
					e.size = 512 // enough to make the budget evict
					m.Insert(e)
					if i%3 == 0 {
						m.Remove(e)
					}
				default:
					pq := subsume.Prepare(q)
					for _, e := range m.CandidatesForSession(pq, 0) {
						if !subsume.MayDerive(e.sig, pq) {
							t.Errorf("probe returned E%d, which MayDerive refuses", e.ID)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkIndexFilesResident(t, m)
	if m.Evictions() == 0 {
		t.Error("budget too loose: nothing was evicted")
	}
}
