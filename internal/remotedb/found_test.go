package remotedb_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/remotedb"
	"repro/internal/workload"
)

// TestFoundStatementsExamineTheirRows runs the point, range and join that
// caql_cold's server answers, over its data and its two indexes
// (shipment on sid, part on pid). Each examines at most twice its result
// plus 32 rows, the examined rows being the statement's ops less the one op
// a row the final projection charges. The range examined every shipment row
// (16 008 ops for 8 rows) before it read the sorted order of the sid index,
// and the join every part row (8 027 for 9) before it probed the pid index.
func TestFoundStatementsExamineTheirRows(t *testing.T) {
	e := suppliersEngine(t)
	for _, c := range []struct{ sql, path string }{
		{"SELECT pid, qty FROM shipment WHERE sid = 17", "scan shipment via index(sid)"},
		{"SELECT sid, pid, qty FROM shipment WHERE sid >= 100 AND sid < 105 AND qty >= 300", "scan shipment via index(sid) range"},
		{"SELECT s.pid, s.qty, p.color, p.weight FROM shipment AS s, part AS p WHERE s.sid = 17 AND s.pid = p.pid", "index join [s.pid = p.pid] (probe p via index(pid), outer streams)"},
	} {
		rel, ops, err := e.ExecuteSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := e.ExecuteSQL("EXPLAIN " + c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var explain strings.Builder
		for _, l := range plan.Tuples() {
			explain.WriteString(l[0].AsString() + "\n")
		}
		t.Logf("%d rows, %d ops: %s\n%s", rel.Len(), ops, c.sql, explain.String())
		if examined, bound := ops-int64(rel.Len()), 2*int64(rel.Len())+32; examined > bound {
			t.Errorf("%s: examines %d rows for %d, at most %d", c.sql, examined, rel.Len(), bound)
		}
		if !strings.Contains(explain.String(), c.path) {
			t.Errorf("%s: EXPLAIN names no %q", c.sql, c.path)
		}
	}
}

// suppliersEngine loads workload.Suppliers(1, 2000) and the bench's two
// indexes, shipment on sid and part on pid.
func suppliersEngine(t *testing.T) *remotedb.Engine {
	t.Helper()
	e := remotedb.NewEngine()
	for _, r := range workload.Suppliers(1, 2000).Tables {
		e.LoadTable(r)
	}
	for _, ix := range []struct {
		table string
		cols  []int
	}{{"shipment", []int{0}}, {"part", []int{0}}} {
		if err := e.CreateIndex(ix.table, ix.cols); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestRangeEstimateIsOneInterval: the bounds a statement puts on one column
// are estimated as one interval between the column's min and max, so the
// Found range, about 16 rows by its interval and 8 in fact, reads within
// twice 16, where the product of its bounds' selectivities read 318. A
// one-sided bound on each of two columns still multiplies, as before.
func TestRangeEstimateIsOneInterval(t *testing.T) {
	e := suppliersEngine(t)
	stats, err := e.ColStats("shipment")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0.0
	if rel, _, err := e.ExecuteSQL("SELECT COUNT(*) FROM shipment"); err == nil {
		rows = rel.Tuple(0)[0].AsFloat()
	}
	// above is the share of the column's min..max span at or above v.
	above := func(col int, v float64) float64 {
		lo, hi := stats[col].Min.AsFloat(), stats[col].Max.AsFloat()
		return 1 - (v-lo)/(hi-lo)
	}
	for _, c := range []struct {
		sql    string
		lo, hi float64
	}{
		{"SELECT sid, pid, qty FROM shipment WHERE sid >= 100 AND sid < 105 AND qty >= 300", 8, 32},
		{"SELECT sid FROM shipment WHERE sid >= 100 AND qty < 300", rows * above(0, 100) * (1 - above(2, 300)), 0},
		{"SELECT sid FROM shipment WHERE sid < 1500 AND qty > 100", rows * (1 - above(0, 1500)) * above(2, 100), 0},
	} {
		plan, _, err := e.ExecuteSQL("EXPLAIN " + c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var est float64
		header := plan.Tuple(0)[0].AsString()
		if _, err := fmt.Sscanf(header[strings.Index(header, "est rows"):], "est rows %g", &est); err != nil {
			t.Fatalf("%s: %q: %v", c.sql, header, err)
		}
		t.Logf("est rows %.1f: %s", est, c.sql)
		if c.hi == 0 && math.Abs(est-math.Round(c.lo)) > 0.5 || c.hi > 0 && (est < c.lo || est > c.hi) {
			t.Errorf("%s: est rows %.1f, want %.1f to %.1f", c.sql, est, c.lo, c.hi)
		}
	}
}
