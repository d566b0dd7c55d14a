package remotedb

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// discardConn is a connection that takes every write whole and reads
// nothing: what a frame writer sees of a peer that keeps up.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// shipSQL streams sql through e's frame writer into a discarding connection
// of frameTuples-row frames, as a served exec request does, and returns the
// rows shipped and the stream's DOP.
func shipSQL(t *testing.T, e *Engine, sql string, frameTuples int) (rows int64, dop int) {
	t.Helper()
	fc := &framedConn{s: NewServer(e), conn: discardConn{}, frameTuples: frameTuples}
	ps, ok := e.ExecuteSQLPipelineCtx(context.Background(), sql)
	if !ok {
		t.Fatalf("pipeline declined %q", sql)
	}
	rows, _ = fc.streamScan(context.Background(), 1, ps, func() {}, false, nil)
	if err := ps.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, ps.DOP()
}

// TestShipBytesPerRow holds the server's wire path to a budget of bytes per
// shipped row: the join at the top of the plan writes each row into one
// reused row, or, at dop 2, each worker copies it into its exchange batch's
// recycled value block, and ship copies it into its pooled staging buffer,
// so nothing is allocated per row or per frame. It ships
// TestJoinProjectBytes' 10 000-row join, which drains through PlanStream.Next
// and so keeps every row. It reads the fewest bytes of three rounds of five
// streams: a collection that empties shipBufs mid-round makes the next
// stream grow its buffers again, about 3 B a row over a round.
func TestShipBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const sql = "SELECT big.id, big.v, dim.dname FROM big, dim WHERE big.g = dim.g"
	e := newParallelEngine(t, 10000)
	e.SetParallelMinRows(1)
	for _, dop := range []int{1, 2} {
		e.SetParallelism(dop)
		shipSQL(t, e, sql, DefaultFrameTuples) // compiles and caches the plan
		const runs = 5
		perRow := math.Inf(1)
		for round := 0; round < 3; round++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var rows int64
			got := 0
			for i := 0; i < runs; i++ {
				rows, got = shipSQL(t, e, sql, DefaultFrameTuples)
			}
			runtime.ReadMemStats(&m1)
			if rows != 10000 || got != dop {
				t.Fatalf("dop %d: %d rows at dop %d, want 10000 at dop %d", dop, rows, got, dop)
			}
			perRow = min(perRow, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(runs*rows))
		}
		t.Logf("dop %d: %.1f B per shipped row", dop, perRow)
		if perRow > 8 {
			t.Errorf("dop %d: %.1f B allocated per shipped row, budget 8", dop, perRow)
		}
	}
}

// TestShipBufferKeepsNothing checks that ship clears the buffers it puts
// back in shipBufs: after a stream of string rows, no pooled value holds a
// string, and no pooled row reaches one.
func TestShipBufferKeepsNothing(t *testing.T) {
	e := NewEngine()
	if _, _, err := e.ExecuteSQL("CREATE TABLE words (w TEXT, n INT)"); err != nil {
		t.Fatal(err)
	}
	vals := make([]string, 300)
	for i := range vals {
		vals[i] = fmt.Sprintf("('word%03d', %d)", i, i)
	}
	if _, _, err := e.ExecuteSQL("INSERT INTO words VALUES " + strings.Join(vals, ",")); err != nil {
		t.Fatal(err)
	}
	// The pool may drop what it is given (always under the race detector,
	// now and then), so stream until a used buffer comes back.
	for attempt := 0; attempt < 100; attempt++ {
		for _, sql := range []string{"SELECT w, n FROM words", "SELECT w FROM words WHERE n >= 10"} {
			if rows, _ := shipSQL(t, e, sql, 64); rows < 290 {
				t.Fatalf("%q shipped %d rows", sql, rows)
			}
		}
		b := shipBufs.Get().(*shipBuf)
		if cap(b.vals) == 0 {
			continue
		}
		for i, v := range b.vals[:cap(b.vals)] {
			if !v.IsNull() {
				t.Fatalf("pooled value %d of %d still holds %v", i, cap(b.vals), v)
			}
		}
		for i, row := range b.tuples[:cap(b.tuples)] {
			for _, v := range row {
				if !v.IsNull() {
					t.Fatalf("pooled row %d of %d still reaches %v", i, cap(b.tuples), row)
				}
			}
		}
		if len(b.vals) != 0 || len(b.tuples) != 0 || b.dirty != 0 {
			t.Fatalf("pooled buffer not reset: %d values, %d rows, dirty %d", len(b.vals), len(b.tuples), b.dirty)
		}
		return
	}
	t.Fatal("no used buffer came back from the pool in 100 streams")
}
