package remotedb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// randomValue draws one relation.Value covering every kind, including Null.
func randomValue(rng *rand.Rand) relation.Value {
	switch rng.Intn(5) {
	case 0:
		return relation.Null()
	case 1:
		return relation.Int(rng.Int63() - rng.Int63())
	case 2:
		return relation.Float(rng.NormFloat64() * 1e6)
	case 3:
		n := rng.Intn(24)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256)) // arbitrary bytes, not just printable
		}
		return relation.Str(string(b))
	default:
		return relation.Bool(rng.Intn(2) == 0)
	}
}

// sameValue is identity, where Value.Equal is SQL equality: kinds must agree
// (Int(1) is not Float(1) on the wire) and floats compare by bits, so NaN and
// the sign of zero count.
func sameValue(a, b relation.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == relation.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Equal(b)
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// batchSeeds are the shapes the codec must get right by construction; they
// seed FuzzDecodeBatch and are round-tripped by TestBatchSeedsRoundTrip.
func batchSeeds() []struct {
	ncols  int
	tuples []relation.Tuple
} {
	return []struct {
		ncols  int
		tuples []relation.Tuple
	}{
		{0, nil},                          // zero columns, zero rows
		{0, []relation.Tuple{{}, {}, {}}}, // zero columns
		{3, nil},                          // zero rows
		{1, []relation.Tuple{{relation.Null()}, {relation.Null()}}}, // all NULL
		{2, []relation.Tuple{
			{relation.Int(math.MinInt64), relation.Float(math.NaN())},
			{relation.Int(math.MaxInt64), relation.Float(math.Copysign(0, -1))},
			{relation.Null(), relation.Float(math.Inf(-1))},
			{relation.Int(0), relation.Null()},
		}},
		{2, []relation.Tuple{
			{relation.Str(""), relation.Bool(true)},
			{relation.Str("\xff\xfe not utf-8 \x00"), relation.Bool(false)},
			{relation.Null(), relation.Null()},
			{relation.Str("héllo"), relation.Bool(true)},
		}},
		{1, []relation.Tuple{ // a mixed-kind column
			{relation.Int(7)}, {relation.Str("seven")}, {relation.Null()},
			{relation.Float(7.5)}, {relation.Bool(true)}, {relation.Str("")},
		}},
	}
}

func TestBatchSeedsRoundTrip(t *testing.T) {
	for i, s := range batchSeeds() {
		b := appendBatch(nil, s.ncols, s.tuples)
		if n := batchSize(s.ncols, s.tuples); n != len(b) {
			t.Fatalf("seed %d: batchSize %d, encoded %d bytes", i, n, len(b))
		}
		got, err := decodeBatch(b, s.ncols)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !sameTuples(got, s.tuples) {
			t.Fatalf("seed %d: got %v, want %v", i, got, s.tuples)
		}
	}
}

// TestQuickBatchRoundTrip: decode ∘ encode is the identity on batches of
// random shape whose columns are uniform, nullable or mixed at random, and
// batchSize is the encoding's length.
func TestQuickBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		ncols, nrows := rng.Intn(6), rng.Intn(40)
		uniform := make([]relation.Value, ncols) // Null: the column is mixed
		for c := range uniform {
			uniform[c] = randomValue(rng)
		}
		in := make([]relation.Tuple, nrows)
		for i := range in {
			in[i] = make(relation.Tuple, ncols)
			for c := range in[i] {
				v := randomValue(rng)
				for !uniform[c].IsNull() && !v.IsNull() && v.Kind() != uniform[c].Kind() {
					v = randomValue(rng)
				}
				in[i][c] = v
			}
		}
		b := appendBatch(nil, ncols, in)
		out, err := decodeBatch(b, ncols)
		return err == nil && sameTuples(out, in) && batchSize(ncols, in) == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBatchAppendsToDst: the encoder appends, so a stream can reuse one buffer
// and a caller can prefix a batch.
func TestBatchAppendsToDst(t *testing.T) {
	rows := []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}}
	b := appendBatch([]byte("xy"), 1, rows)
	if string(b[:2]) != "xy" {
		t.Fatalf("prefix clobbered: %q", b[:2])
	}
	if got, err := decodeBatch(b[2:], 1); err != nil || !sameTuples(got, rows) {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestBatchDecodeRejects: each way a batch can lie about itself is an error
// before it is a panic, an over-allocation or a tuple of the wrong arity.
func TestBatchDecodeRejects(t *testing.T) {
	rows := []relation.Tuple{
		{relation.Int(1), relation.Str("ab")},
		{relation.Int(2), relation.Str("cde")},
		{relation.Int(3), relation.Str("f")},
	}
	good := appendBatch(nil, 2, rows)
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	// Layout of good: header 9 | tag, bitmap, 3×8 ints = 26 | tag @35, bitmap
	// @36, 3×4 ends (2, 5, 6) @37, blob @49.
	const strTag, strEnds = 35, 37
	cases := map[string][]byte{
		"empty":           nil,
		"short header":    good[:batchHeader-1],
		"unknown format":  mutate(func(b []byte) []byte { b[0] = 9; return b }),
		"arity mismatch":  mutate(func(b []byte) []byte { le.PutUint32(b[1:], 3); return b }),
		"nrows too large": mutate(func(b []byte) []byte { le.PutUint32(b[5:], 1<<31); return b }),
		"nrows one more":  mutate(func(b []byte) []byte { le.PutUint32(b[5:], 4); return b }),
		"truncated":       good[:len(good)-1],
		"trailing bytes":  append(append([]byte(nil), good...), 0),
		"tag zero":        mutate(func(b []byte) []byte { b[strTag] = 0; return b }),
		"tag past enum":   mutate(func(b []byte) []byte { b[strTag] = colMixed + 1; return b }),
		"offsets decrease": mutate(func(b []byte) []byte {
			le.PutUint32(b[strEnds:], 5)
			le.PutUint32(b[strEnds+4:], 2)
			return b
		}),
		"offset past blob": mutate(func(b []byte) []byte { le.PutUint32(b[strEnds+4:], 7); return b }),
		"blob claim past payload": mutate(func(b []byte) []byte {
			le.PutUint32(b[strEnds+8:], 1<<30)
			return b
		}),
	}
	for name, b := range cases {
		if got, err := decodeBatch(b, 2); err == nil {
			t.Errorf("%s: decoded %v", name, got)
		}
	}
	if _, err := decodeBatch(good, 2); err != nil {
		t.Fatalf("the unmutated batch: %v", err)
	}
	// A mixed column: cell tag outside the enum, and string ends that run
	// backwards.
	mixed := appendBatch(nil, 1, []relation.Tuple{{relation.Str("ab")}, {relation.Int(1)}, {relation.Str("c")}})
	bad := append([]byte(nil), mixed...)
	bad[batchHeader+1] = 9
	if _, err := decodeBatch(bad, 1); err == nil {
		t.Error("mixed column: cell tag 9 accepted")
	}
	bad = append([]byte(nil), mixed...)
	le.PutUint64(bad[batchHeader+1+3+16:], 1) // third cell ends before the first
	if _, err := decodeBatch(bad, 1); err == nil {
		t.Error("mixed column: decreasing string offsets accepted")
	}
	// A batch with no columns cannot claim rows it carries no bits for.
	if _, err := decodeBatch(appendBatch(nil, 0, make([]relation.Tuple, 9))[:batchHeader+1], 0); err == nil {
		t.Error("zero-column batch of 9 rows with one witness byte accepted")
	}
}

// FuzzDecodeBatch: arbitrary bytes decode to a typed error or to tuples of the
// announced arity whose re-encoding decodes to the same tuples; never a panic.
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add(appendBatch(nil, s.ncols, s.tuples), s.ncols)
	}
	f.Add([]byte{batchFormat, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, colInt}, 1)
	f.Fuzz(func(t *testing.T, b []byte, ncols int) {
		if ncols < 0 || ncols > 64 {
			return
		}
		in := append([]byte(nil), b...)
		tuples, err := decodeBatch(in, ncols)
		if err != nil {
			return
		}
		for _, tu := range tuples {
			if len(tu) != ncols {
				t.Fatalf("tuple of arity %d in a batch of %d columns", len(tu), ncols)
			}
		}
		reencoded := appendBatch(nil, ncols, tuples)
		// A stream reads the next frame into the payload the tuples came
		// from: they must not alias it.
		for i := range in {
			in[i] = 0xAA
		}
		again, err := decodeBatch(reencoded, ncols)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !sameTuples(again, tuples) {
			t.Fatalf("re-encode changed the tuples, or overwriting the input did: %v → %v", tuples, again)
		}
	})
}

// frameTuples builds n (int, string, float) tuples, the shape bulk scans ship.
func frameTuples(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{
			relation.Int(int64(i) * 7919),
			relation.Str("g" + string(rune('a'+i%26)) + string(rune('a'+i/26%26))),
			relation.Float(float64(i) / 8),
		}
	}
	return out
}

// keepColumns returns tuples cut down to columns cols, in that order.
func keepColumns(tuples []relation.Tuple, cols []int) []relation.Tuple {
	out := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		out[i] = make(relation.Tuple, len(cols))
		for c, from := range cols {
			out[i][c] = tu[from]
		}
	}
	return out
}

// TestBatchDecodeAllocsConstant: decoding a frame's values allocates the
// value arena and one string per string column, whatever its row count.
func TestBatchDecodeAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, shape := range []struct {
		cols    []int // the columns of frameTuples kept
		strings int
	}{{[]int{0, 1, 2}, 1}, {[]int{0, 2}, 0}, {[]int{1, 0, 1}, 2}} {
		for _, rows := range []int{64, 4096} {
			ncols := len(shape.cols)
			b := appendBatch(nil, ncols, keepColumns(frameTuples(rows), shape.cols))
			got := testing.AllocsPerRun(50, func() {
				if _, _, err := decodeBatchValues(b, ncols); err != nil {
					t.Fatal(err)
				}
			})
			if want := float64(1 + shape.strings); got != want {
				t.Errorf("columns %v of (int, string, float) at %d rows: %v allocations, want %v", shape.cols, rows, got, want)
			}
		}
	}
}
