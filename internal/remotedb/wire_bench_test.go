package remotedb

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/relation"
)

// BenchmarkFrameRoundTrip is one response frame end to end, as a stream
// takes it: column batch encode into the stream's reused buffer, the frame
// written from the connection's reused write buffer and read into a pooled
// frame's payload, batch decode into one value arena, and the frame released.
// allocs/tuple is the number to watch: it falls as the frame grows, because a
// frame costs a constant: the arena and one string, plus the write buffer,
// payload and frame once the frame is past reuseLimit (4096 tuples is).
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			tuples := frameTuples(n)
			var pipe bytes.Buffer
			dec := bufio.NewReader(&pipe)
			var batch, wbuf []byte
			roundTrip := func() {
				batch = appendBatch(batch[:0], 3, tuples)
				if err := writeFrame(&pipe, &wbuf, &wireFrame{ID: 7, Kind: frameBatch, Batch: batch}); err != nil {
					b.Fatal(err)
				}
				f, err := readFrame(dec)
				if err != nil {
					b.Fatal(err)
				}
				_, rows, err := decodeBatchValues(f.Batch, 3)
				f.release()
				if err != nil || rows != n {
					b.Fatalf("decoded %d tuples, %v", rows, err)
				}
			}
			roundTrip() // buffers grow once, up front
			b.ReportAllocs()
			b.ResetTimer()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*n), "allocs/tuple")
		})
	}
}

// BenchmarkRelationBulkAppend measures the frame-decode materialization path:
// AppendAll validates arities then grows the tuple slice once per batch,
// where per-tuple Append pays amortized regrowth and a schema check per call.
func BenchmarkRelationBulkAppend(b *testing.B) {
	schema := relation.NewSchema(
		relation.Attr{Name: "id", Kind: relation.KindInt},
		relation.Attr{Name: "grp", Kind: relation.KindInt},
	)
	batch := make([]relation.Tuple, 512)
	for i := range batch {
		batch[i] = relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % 7))}
	}
	b.Run("append-per-tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := relation.New("out", schema)
			for _, t := range batch {
				if err := r.Append(t); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("append-all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := relation.New("out", schema)
			if err := r.AppendAll(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
