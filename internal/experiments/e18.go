package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/remotedb"
)

// E18 prices durability (PR 9): the same insert workload runs against the
// engine under each WAL fsync policy — plus the in-memory engine as the
// no-WAL baseline — and recovery is measured against growing logs.
//
// Two claims are under test:
//
//   - the fsync spectrum behaves as designed: "off" writes at near-memory
//     speed, "interval" amortizes syncs over bursts, "always" pays one sync
//     per acknowledged batch (the price of the crash-durability invariant);
//   - recovery is correct and roughly linear in log size: every run of every
//     arm recovers exactly the rows it acknowledged (RowsOK — an invariant
//     the tests assert), and replay wall time grows with the record count,
//     not the write history's wall time.

// E18Arm is one fsync policy's best-of-rounds write measurement.
type E18Arm struct {
	Policy string // "memory" | "off" | "interval" | "always"
	Rows   int
	Syncs  int64   // WAL syncs in the measured round
	RowsPS float64 // best round
	RowsOK bool    // reopen recovered exactly the acked rows
}

// E18Recovery is one log size's best-of-rounds recovery measurement.
type E18Recovery struct {
	Rows       int
	Replayed   int
	RecoveryMS float64 // best (lowest) round
	RowsOK     bool
}

// E18Data is the result of one run.
type E18Data struct {
	Rounds     int
	Arms       []E18Arm
	Recoveries []E18Recovery

	// AlwaysVsOffSlowdown is write throughput off/always — the measured price
	// of the durability invariant (informational, machine-dependent).
	AlwaysVsOffSlowdown float64
	// RecoveryCorrect is the conjunction of every RowsOK above.
	RecoveryCorrect bool
}

const e18RowsPerBatch = 10

// e18WriteArm runs one policy round: open a fresh durable engine (or an
// in-memory one for "memory"), insert the workload, report rows/sec and —
// for durable arms — whether a reopen recovers exactly the acked rows.
func e18WriteArm(policy string, batches int) (rowsPS float64, syncs int64, rowsOK bool, err error) {
	rows := batches * e18RowsPerBatch
	var e *remotedb.Engine
	var dir string
	if policy == "memory" {
		e = remotedb.NewEngine()
	} else {
		if dir, err = os.MkdirTemp("", "braid-e18-*"); err != nil {
			return 0, 0, false, err
		}
		defer os.RemoveAll(dir)
		pol, perr := remotedb.ParseFsyncPolicy(policy)
		if perr != nil {
			return 0, 0, false, perr
		}
		e, _, err = remotedb.OpenEngine(remotedb.Durability{Dir: dir, Fsync: pol})
		if err != nil {
			return 0, 0, false, err
		}
	}
	if _, _, err = e.ExecuteSQL("CREATE TABLE w (k INT, v TEXT)"); err != nil {
		return 0, 0, false, err
	}
	started := time.Now()
	for b := 0; b < batches; b++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO w VALUES ")
		for i := 0; i < e18RowsPerBatch; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			k := b*e18RowsPerBatch + i
			fmt.Fprintf(&sb, "(%d,'v%d')", k, k)
		}
		if _, _, err = e.ExecuteSQL(sb.String()); err != nil {
			return 0, 0, false, err
		}
	}
	elapsed := time.Since(started)
	rowsPS = float64(rows) / elapsed.Seconds()
	syncs = e.WALStats().Syncs

	if policy == "memory" {
		return rowsPS, 0, true, nil
	}
	if err = e.CloseWAL(); err != nil {
		return 0, 0, false, err
	}
	r, _, err := remotedb.OpenEngine(remotedb.Durability{Dir: dir})
	if err != nil {
		return 0, 0, false, err
	}
	defer r.CloseWAL()
	rel, _, err := r.ExecuteSQL("SELECT k FROM w")
	if err != nil {
		return 0, 0, false, err
	}
	return rowsPS, syncs, rel.Len() == rows, nil
}

// e18Recovery builds a log of the given row count (fsync off: log size, not
// sync cost, is the variable) and measures one cold recovery.
func e18Recovery(rows int) (E18Recovery, error) {
	rec := E18Recovery{Rows: rows}
	dir, err := os.MkdirTemp("", "braid-e18-rec-*")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)
	e, _, err := remotedb.OpenEngine(remotedb.Durability{Dir: dir, Fsync: remotedb.FsyncOff})
	if err != nil {
		return rec, err
	}
	if _, _, err := e.ExecuteSQL("CREATE TABLE w (k INT, v TEXT)"); err != nil {
		return rec, err
	}
	const batch = 100
	for lo := 0; lo < rows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO w VALUES ")
		for i := lo; i < lo+batch && i < rows; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,'v%d')", i, i)
		}
		if _, _, err := e.ExecuteSQL(sb.String()); err != nil {
			return rec, err
		}
	}
	if err := e.CloseWAL(); err != nil {
		return rec, err
	}
	r, st, err := remotedb.OpenEngine(remotedb.Durability{Dir: dir})
	if err != nil {
		return rec, err
	}
	defer r.CloseWAL()
	rel, _, err := r.ExecuteSQL("SELECT k FROM w")
	if err != nil {
		return rec, err
	}
	rec.Replayed = st.Replayed
	rec.RecoveryMS = float64(st.WallTime.Microseconds()) / 1000
	rec.RowsOK = rel.Len() == rows
	return rec, nil
}

// RunE18 measures every arm: each policy inserts batches of ten rows, and a
// log of each size in recoveryRows is replayed cold. Rounds interleave across
// policies so machine phases spread instead of biasing one arm; each arm keeps
// its best round. RowsOK must hold on EVERY round, not just the best one —
// correctness is not a statistic.
func RunE18(batches, rounds int, recoveryRows []int) (*E18Data, error) {
	policies := []string{"memory", "off", "interval", "always"}
	d := &E18Data{Rounds: rounds, RecoveryCorrect: true}
	d.Arms = make([]E18Arm, len(policies))
	for i, p := range policies {
		d.Arms[i] = E18Arm{Policy: p, Rows: batches * e18RowsPerBatch, RowsOK: true}
	}
	for round := 0; round < rounds; round++ {
		for i, p := range policies {
			rowsPS, syncs, ok, err := e18WriteArm(p, batches)
			if err != nil {
				return nil, fmt.Errorf("arm %s: %w", p, err)
			}
			a := &d.Arms[i]
			if rowsPS > a.RowsPS {
				a.RowsPS = rowsPS
				a.Syncs = syncs
			}
			if !ok {
				a.RowsOK = false
				d.RecoveryCorrect = false
			}
		}
	}

	for _, rows := range recoveryRows {
		var best E18Recovery
		for round := 0; round < rounds; round++ {
			rec, err := e18Recovery(rows)
			if err != nil {
				return nil, fmt.Errorf("recovery at %d rows: %w", rows, err)
			}
			if round == 0 || rec.RecoveryMS < best.RecoveryMS {
				ok := best.RowsOK || round == 0
				best = rec
				best.RowsOK = rec.RowsOK && ok
			} else if !rec.RowsOK {
				best.RowsOK = false
			}
		}
		if !best.RowsOK {
			d.RecoveryCorrect = false
		}
		d.Recoveries = append(d.Recoveries, best)
	}

	var off, always float64
	for _, a := range d.Arms {
		switch a.Policy {
		case "off":
			off = a.RowsPS
		case "always":
			always = a.RowsPS
		}
	}
	if always > 0 {
		d.AlwaysVsOffSlowdown = off / always
	}
	return d, nil
}

// E18Render formats a measured run as the experiment table.
func E18Render(d *E18Data) *Table {
	t := &Table{
		ID:     "E18",
		Title:  "durability: write throughput by fsync policy; recovery time by log size",
		Claim:  "fsync=always buys crash durability for a bounded write slowdown; recovery replays the log correctly (every acked row, exactly once) in time linear in its size",
		Header: []string{"arm", "rows", "syncs", "rows/s", "recovered"},
	}
	for _, a := range d.Arms {
		okStr := "ok"
		if !a.RowsOK {
			okStr = "ROWS LOST"
		}
		if a.Policy == "memory" {
			okStr = "n/a (no WAL)"
		}
		t.AddRow(a.Policy, fi(int64(a.Rows)), fi(a.Syncs), ff(a.RowsPS), okStr)
	}
	for _, r := range d.Recoveries {
		ok := "ok"
		if !r.RowsOK {
			ok = "ROWS LOST"
		}
		t.AddRow(fmt.Sprintf("recover %dk rows", r.Rows/1000), fi(int64(r.Rows)),
			fi(int64(r.Replayed)), fmt.Sprintf("%.1f ms", r.RecoveryMS), ok)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d rounds per arm, interleaved, best round kept; RowsOK checked on every round", d.Rounds),
		fmt.Sprintf("fsync=always write cost: %.1fx slower than fsync=off on this machine", d.AlwaysVsOffSlowdown),
		"recovery arms build their log under fsync=off: the variable is log size, not sync cost")
	return t
}

// E18Durability runs the experiment at default scale.
func E18Durability() *Table {
	d, err := RunE18(150, 3, []int{1000, 4000, 16000})
	if err != nil {
		return failed("E18", err)
	}
	return E18Render(d)
}
