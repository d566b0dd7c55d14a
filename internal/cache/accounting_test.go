package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/caql"
	"repro/internal/relation"
)

// rowsElement is an element of the i-th of a few definitions, with rows rows
// over two int columns to build indexes on.
func rowsElement(m *Manager, i, rows int) *Element {
	def := caql.MustParse(fmt.Sprintf(`q(X, Y) :- acct(X, Y, %d)`, i))
	ext := relation.New("q", relation.NewSchema(
		relation.Attr{Name: "x", Kind: relation.KindInt},
		relation.Attr{Name: "y", Kind: relation.KindInt}))
	for r := 0; r < rows; r++ {
		ext.MustAppend(relation.Tuple{relation.Int(int64(r % 7)), relation.Int(int64(r))})
	}
	return newExtensionElement(m.NewElementID(), def, def.Canonical(), ext)
}

// residentSum is the sum the Manager's byte count stands for.
func residentSum(m *Manager) int64 {
	var n int64
	for _, e := range m.Elements() {
		n += e.SizeBytes()
	}
	return n
}

// TestManagerBytesAreResidentSum: inserts, replacements by canonical form,
// removals, budget evictions, index builds on resident and departed elements
// and publishes, all at once, leave the Manager's running byte count equal to
// the sum of its resident elements' sizes. Under -race this is the count's
// share of the shard → element lock order: a build racing a removal neither
// leaks its index's bytes nor counts them twice.
func TestManagerBytesAreResidentSum(t *testing.T) {
	m := NewManager(48 << 10)
	var (
		mu  sync.Mutex
		all []*Element // every element ever inserted, resident or not
	)
	pick := func(rng *rand.Rand) *Element {
		mu.Lock()
		defer mu.Unlock()
		if len(all) == 0 {
			return nil
		}
		return all[rng.Intn(len(all))]
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + g)))
			for i := 0; i < 400; i++ {
				switch op := rng.Intn(10); {
				case op < 4:
					// Forty definitions among eight goroutines: most inserts
					// replace a resident element of the same canonical form.
					e := rowsElement(m, rng.Intn(40), 1+rng.Intn(60))
					if rng.Intn(3) == 0 {
						e.Index(rng.Intn(2), true) // indexed before it is resident
					}
					if rng.Intn(2) == 0 {
						e.ownerSID.Store(int64(g + 1))
					}
					m.Insert(e)
					mu.Lock()
					all = append(all, e)
					mu.Unlock()
				case op < 6:
					if e := pick(rng); e != nil {
						m.Remove(e)
					}
				case op < 9:
					if e := pick(rng); e != nil {
						e.Index(rng.Intn(2), true)
					}
				default:
					if e := pick(rng); e != nil {
						m.publish(e)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := m.SizeBytes(), residentSum(m); got != want {
		t.Fatalf("byte count %d, resident elements sum to %d", got, want)
	}
	if m.Evictions() == 0 {
		t.Error("budget too loose: nothing was evicted")
	}
	if m.SizeBytes() > m.budget {
		t.Errorf("cache over its %d-byte budget: %d", m.budget, m.SizeBytes())
	}
	checkIndexFilesResident(t, m)
	// Everything removed, the count is back to nothing.
	for _, e := range m.Elements() {
		m.Remove(e)
	}
	if got := m.SizeBytes(); got != 0 {
		t.Fatalf("empty cache counts %d bytes", got)
	}
}

// countingPredictor registers a predictor over dist (absent: no prediction)
// and returns the number of times it has been asked.
func countingPredictor(m *Manager, dist map[int]int) *atomic.Int64 {
	var calls atomic.Int64
	m.RegisterPredictor(1, func(e *Element) (int, bool) {
		calls.Add(1)
		d, ok := dist[e.ID]
		return d, ok
	})
	return &calls
}

// TestEvictionSweepVisitsOnce: a sweep that evicts k of n elements asks the
// predictors about each element once — n questions, not k·n — and evicts
// exactly the elements of picking the farthest-predicted, least recently used
// one again after every eviction, on a population of varied sizes with tied
// distances and elements no prediction covers.
func TestEvictionSweepVisitsOnce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(0)
		const n = 200
		dist := map[int]int{}
		var els []*Element
		for i := 0; i < n; i++ {
			e := emptyElement(m, caql.MustParse(fmt.Sprintf(`q(X) :- acct(X, %d)`, i)))
			e.size = int64(100 + rng.Intn(900))
			m.Insert(e)
			if rng.Intn(4) != 0 {
				dist[e.ID] = rng.Intn(3) // ties, broken by last use
			}
			els = append(els, e)
		}
		for i := 0; i < n; i++ {
			m.Touch(els[rng.Intn(n)])
		}
		calls := countingPredictor(m, dist)

		// The reference: the argmax loop, one full pass per victim, taking
		// the farthest prediction (none is farthest of all), then the least
		// recent use.
		m.budget = m.SizeBytes() - int64(2_000+rng.Intn(20_000))
		var want []int
		left, size := slices.Clone(els), m.SizeBytes()
		for size > m.budget {
			best := 0
			for i, e := range left {
				d, ok := dist[e.ID]
				bd, bok := dist[left[best].ID]
				switch {
				case ok != bok:
					if !ok {
						best = i
					}
				case !ok || d == bd:
					if e.lastUse.Load() < left[best].lastUse.Load() {
						best = i
					}
				case d > bd:
					best = i
				}
			}
			want = append(want, left[best].ID)
			size -= left[best].SizeBytes()
			left = slices.Delete(left, best, best+1)
		}

		var got []int
		m.ensureSpace()
		for _, e := range els {
			if _, resident := m.shardFor(e.canon).elements[e.ID]; !resident {
				got = append(got, e.ID)
			}
		}
		if c := calls.Load(); c != n {
			t.Fatalf("seed %d: evicting %d of %d elements asked the predictor %d times, want %d", seed, len(want), n, c, n)
		}
		if int(m.Evictions()) != len(want) {
			t.Fatalf("seed %d: %d evictions, the reference makes %d", seed, m.Evictions(), len(want))
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: evicted %v, the reference evicts %v", seed, got, want)
		}
		if m.SizeBytes() > m.budget || m.SizeBytes() != residentSum(m) {
			t.Fatalf("seed %d: %d bytes after the sweep (sum %d), budget %d", seed, m.SizeBytes(), residentSum(m), m.budget)
		}
	}
}

// TestInsertWithRoomVisitsNoElement: under a budget with room to spare, an
// insert neither sweeps nor asks about any other element.
func TestInsertWithRoomVisitsNoElement(t *testing.T) {
	m := NewManager(1 << 30)
	calls := countingPredictor(m, map[int]int{})
	for i := 0; i < 500; i++ {
		if !m.Insert(rowsElement(m, i, 10)) {
			t.Fatalf("insert %d not stored", i)
		}
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("500 inserts with room asked the predictor %d times, want 0", c)
	}
	if m.Evictions() != 0 || m.SizeBytes() != residentSum(m) {
		t.Fatalf("%d evictions, %d bytes counted, %d resident", m.Evictions(), m.SizeBytes(), residentSum(m))
	}
}
