package remotedb

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/relation"
)

// fill adds vals to a fresh column, in order.
func fill(vals []relation.Value) *colAcc {
	c := &newTableMeta(1).cols[0]
	for _, v := range vals {
		c.add(v)
	}
	return c
}

// Up to statsK distinct values the count is exact. Ints equal to floats are
// one value (so are −0 and +0), every NULL is one value and every NaN is
// another, and a repeated value counts once. A repeat moves no bound: the
// max stays the int that came before its equal float.
func TestColStatsExactBelowK(t *testing.T) {
	for _, n := range []int{1, 2, 100, statsK - 1, statsK} {
		var vals []relation.Value
		distinct := n
		if n >= 3 {
			vals = append(vals, relation.Null(), relation.Float(math.NaN()), relation.Null(), relation.Float(-math.NaN()))
			distinct -= 2
		}
		for i := 0; i < distinct; i++ {
			vals = append(vals, relation.Int(int64(i)), relation.Float(float64(i)))
		}
		vals = append(vals, relation.Float(math.Copysign(0, -1)), vals[len(vals)-1])
		c := fill(vals)
		if got := c.ndv(); got != n || c.over {
			t.Errorf("%d distinct values in %d: NDV %d, estimated %v; want %d, exact", n, len(vals), got, c.over, n)
		}
		if top := relation.Int(int64(distinct - 1)); !c.max.Equal(top) || c.max.Kind() != relation.KindInt {
			t.Errorf("%d distinct values: max %v, want %v", n, c.max, top)
		}
	}
	vals := make([]relation.Value, statsK+1)
	for i := range vals {
		vals[i] = relation.Int(int64(i))
	}
	if c := fill(vals); !c.over {
		t.Errorf("%d distinct values: still exact", len(vals))
	}
}

// Above statsK the estimate is within 5 % of the distinct count, for ints,
// floats and strings, each added twice, on five seeds. Through every
// compaction the sketch keeps the statsK smallest hashes: its statsK-th is
// the statsK-th of all the values' hashes. The million-value columns are
// left to runs without the race detector, which one goroutine's arithmetic
// gives nothing to check and which makes them take half a minute.
func TestColStatsEstimate(t *testing.T) {
	sizes := []int{10_000, 100_000, 1_000_000}
	if testing.Short() || raceEnabled {
		sizes = sizes[:2]
	}
	var buf []byte
	worst := 0.0
	for _, n := range sizes {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			base, stride := rng.Int63n(1<<40), 1+rng.Int63n(1000)
			for _, kind := range []string{"int", "float", "string"} {
				c := &newTableMeta(1).cols[0]
				all := make([]uint64, 0, n)
				for i := 0; i < 2*n; i++ {
					x := base + int64(i%n)*stride
					var v relation.Value
					switch kind {
					case "int":
						v = relation.Int(x)
					case "float":
						v = relation.Float(float64(x) + 0.5)
					default:
						buf = strconv.AppendInt(append(buf[:0], 's'), x, 36)
						v = relation.Str(string(buf))
					}
					c.add(v)
					if i < n {
						all = append(all, sketchHash(v))
					}
				}
				slices.Sort(all)
				if kth := c.kthHash(); kth != all[statsK-1] {
					t.Errorf("%d distinct %ss, seed %d: the sketch's %d-th hash is %x, the values' is %x", n, kind, seed, statsK, kth, all[statsK-1])
				}
				got := c.ndv()
				worst = math.Max(worst, math.Abs(float64(got-n))/float64(n))
				if !c.over || math.Abs(float64(got-n)) > 0.05*float64(n) {
					t.Errorf("%d distinct %ss, seed %d: NDV %d (estimated %v), want within 5 %%", n, kind, seed, got, c.over)
				}
			}
		}
	}
	t.Logf("largest relative error: %.2f %%", 100*worst)
}

// retained returns the heap bytes build's result keeps alive. Each reading
// follows two collections: one can leave garbage the sweep has not freed.
func retained(build func() any) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	kept := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(kept)
	return float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
}

// A column's sketch keeps at most 64 KB however many values it has seen,
// and at most 16 bytes a distinct value below statsK. The memory measured is
// the sketches' alone: the accumulators are allocated before, and the values
// are ints and floats, so min and max pin nothing. Small sketches are
// measured over many columns, so that the collector's noise averages out.
func TestColStatsBoundedMemory(t *testing.T) {
	for _, n := range []int{100, 1000, statsK, 1_000_000} {
		cols := max(8, 1<<16/n)
		m := newTableMeta(cols)
		per := retained(func() any {
			for i := 0; i < n; i++ {
				for j := range m.cols {
					v := relation.Int(int64(i)*int64(cols) + int64(j))
					if j%2 == 1 {
						v = relation.Float(float64(i) / 7)
					}
					m.cols[j].add(v)
				}
			}
			return m
		}) / float64(cols)
		t.Logf("%d distinct values: %.0f bytes a column", n, per)
		if limit := math.Min(16*float64(n), 64<<10); per > limit {
			t.Errorf("%d distinct values: a column keeps %.0f bytes, limit %.0f", n, per, limit)
		}
	}
}

// Stats reads the sketches: on a table with more than statsK distinct values
// per column its allocations do not grow with the rows. The rescan it once
// made built a map of Key strings per column. A relation appended to behind
// the engine's back is sketched afresh.
func TestEngineStatsNoRescan(t *testing.T) {
	var allocs []float64
	for _, rows := range []int{10_000, 100_000} {
		e := NewEngine()
		r := relation.New("t", relation.NewSchema(
			relation.Attr{Name: "a", Kind: relation.KindInt},
			relation.Attr{Name: "b", Kind: relation.KindString}))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Str(fmt.Sprint(i % 3000))})
		}
		e.LoadTable(r)
		var st TableStats
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			st, _ = e.Stats("t")
		}))
		if st.Rows != rows || math.Abs(float64(st.Distinct[0]-rows)) > 0.05*float64(rows) || st.Distinct[1] != 3000 {
			t.Fatalf("%d rows: stats %+v", rows, st)
		}
		r.MustAppend(relation.Tuple{relation.Int(-1), relation.Str("new")})
		if st, _ = e.Stats("t"); st.Rows != rows+1 || st.Distinct[1] != 3001 {
			t.Fatalf("%d rows, one appended behind the engine: stats %+v", rows, st)
		}
	}
	if allocs[0] > 1 || allocs[1] != allocs[0] {
		t.Fatalf("Stats allocations at 10k and 100k rows: %v, want 1 each", allocs)
	}
}

// Readers under the engine's read lock fill a column's cached estimate
// concurrently: each computes the same statsK-th hash and stores it
// atomically. An insert empties the cache under the write lock.
func TestColStatsConcurrentReaders(t *testing.T) {
	e := NewEngine()
	r := relation.New("t", relation.NewSchema(relation.Attr{Name: "a", Kind: relation.KindInt}))
	for i := 0; i < 2*statsK; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i))})
	}
	e.LoadTable(r)
	for round := 0; round < 3; round++ {
		if err := e.Insert("t", []relation.Tuple{{relation.Int(int64(-1 - round))}}); err != nil {
			t.Fatal(err)
		}
		want := buildTableMeta(e.tables["t"]).cols[0].ndv()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := e.Stats("t")
				cs, err2 := e.ColStats("t")
				_, _, err3 := e.ExecuteSQL("SELECT a FROM t WHERE a = 7")
				if err != nil || err2 != nil || err3 != nil || st.Distinct[0] != want || cs[0].NDV != want {
					t.Errorf("round %d: Stats %v (%v), ColStats %v (%v), query %v; want NDV %d", round, st, err, cs, err2, err3, want)
				}
			}()
		}
		wg.Wait()
	}
}

// A restarted engine has the statistics it had: recovery rebuilds the
// sketches from a checkpoint and from replayed inserts, and the hash is
// deterministic.
func TestColStatsSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	mut := func(d *Durability) { d.Fsync, d.SegmentBytes = FsyncOff, 64<<10 }
	e, _ := openDurable(t, dir, mut)
	r := relation.New("t", relation.NewSchema(
		relation.Attr{Name: "a", Kind: relation.KindInt},
		relation.Attr{Name: "b", Kind: relation.KindFloat},
		relation.Attr{Name: "c", Kind: relation.KindString}))
	for i := 0; i < 3*statsK; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Float(float64(i % 100)), relation.Str(fmt.Sprint("s", i))})
	}
	e.LoadTable(r)
	for b := 0; b < 40; b++ {
		rows := make([]relation.Tuple, 100)
		for i := range rows {
			k := 3*statsK + b*100 + i
			rows[i] = relation.Tuple{relation.Int(int64(k)), relation.Float(0.5), relation.Str(fmt.Sprint("s", k))}
		}
		if err := e.Insert("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.ColStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st := e.WALStats(); st.Rotations == 0 {
		t.Fatalf("no checkpoint was written: %+v", st)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	e2, st := openDurable(t, dir, mut)
	defer e2.CloseWAL()
	if st.CheckpointTables == 0 || st.Replayed == 0 {
		t.Fatalf("recovery used no checkpoint or replayed nothing: %+v", st)
	}
	after, err := e2.ColStats("t")
	if err != nil {
		t.Fatal(err)
	}
	same := len(before) == len(after)
	for i := 0; same && i < len(before); i++ {
		b, a := before[i], after[i]
		same = b.NDV == a.NDV && b.Exact == a.Exact && b.HasMinMax == a.HasMinMax &&
			b.Min.Kind() == a.Min.Kind() && b.Min.Equal(a.Min) && b.Max.Kind() == a.Max.Kind() && b.Max.Equal(a.Max)
	}
	if !same || before[0].Exact || !before[1].Exact {
		t.Fatalf("column statistics before the restart %+v, after %+v", before, after)
	}
}

var metaSink *tableMeta

// BenchmarkColStatsAdd builds a table's statistics: three columns, a key, a
// float of 1 000 values and a string of 500.
func BenchmarkColStatsAdd(b *testing.B) {
	for _, rows := range []int{3000, 100_000} {
		r := relation.New("t", relation.NewSchema(
			relation.Attr{Name: "k", Kind: relation.KindInt},
			relation.Attr{Name: "v", Kind: relation.KindFloat},
			relation.Attr{Name: "g", Kind: relation.KindString}))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Tuple{relation.Int(int64(i) * 7919), relation.Float(float64(i%1000) / 4), relation.Str(fmt.Sprint("g", i%500))})
		}
		b.Run(strconv.Itoa(rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				metaSink = buildTableMeta(r)
			}
		})
	}
}
