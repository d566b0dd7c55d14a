package remotedb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/relation"
)

// Crash recovery: OpenEngine rebuilds an engine from a data directory —
// newest checkpoint first, then the WAL tail replayed record by record
// through the same apply functions live mutations use (so replay cannot
// drift from the live semantics). See wal.go for the on-disk format and the
// torn-tail-vs-corruption rules.

// RecoveryStats describes one recovery pass; the server exports them as
// braid_engine_recovery_* metrics and braid-server prints them at boot.
type RecoveryStats struct {
	// Replayed counts WAL records applied (excluding the checkpoint).
	Replayed int
	// CheckpointTables counts tables restored from the checkpoint (0: no
	// checkpoint, generation-zero log).
	CheckpointTables int
	// TruncatedBytes is the torn tail dropped from the final segment (0:
	// clean shutdown or empty log).
	TruncatedBytes int64
	// WallTime is the end-to-end recovery duration.
	WallTime time.Duration
	// Gen is the live segment generation after recovery.
	Gen uint64
	// Epoch is the catalog epoch after recovery (past every epoch the
	// pre-crash engine could have acknowledged, given fsync=always).
	Epoch uint64
}

// OpenEngine opens (or creates) a durable engine on d.Dir: it recovers the
// persisted state, truncates a torn tail, appends a restart record that
// durably invalidates pre-crash resume tokens, and leaves the WAL open for
// the engine's subsequent mutations. Mid-log damage aborts with
// ErrWALCorrupt — recovery never silently drops acknowledged history.
func OpenEngine(d Durability) (*Engine, *RecoveryStats, error) {
	d = d.withDefaults()
	start := time.Now()
	_, sp := d.Tracer.Start(context.Background(), "engine.recover")
	defer sp.End()
	sp.Set("dir", d.Dir)

	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	segs, ckpts, err := walGens(d.Dir)
	if err != nil {
		return nil, nil, err
	}

	// The live generation is the newest checkpoint's (rotation writes the
	// checkpoint before the new segment, so a crash mid-rotation leaves a
	// checkpoint whose segment does not exist yet — an empty tail). With no
	// checkpoint at all the engine is on generation zero: either a fresh
	// directory or a log that never rotated.
	var gen uint64
	var ck *walCheckpoint
	if len(ckpts) > 0 {
		gen = ckpts[len(ckpts)-1]
		ck, err = readCheckpoint(d.Dir, gen)
		if err != nil {
			return nil, nil, err
		}
	} else if len(segs) > 0 {
		gen = segs[len(segs)-1]
	}

	e := NewEngine()
	st := &RecoveryStats{}
	recovered := false

	if ck != nil {
		for _, wr := range ck.Tables {
			r, err := wr.relation()
			if err != nil {
				return nil, nil, &WALCorruptError{Path: walCheckpointPath(d.Dir, gen), Reason: fmt.Sprintf("checkpoint table %s: %v", wr.Name, err)}
			}
			e.tables[r.Name] = r
			e.meta[r.Name] = buildTableMeta(r)
		}
		for n, v := range ck.Versions {
			e.versions[n] = v
		}
		for n, colsets := range ck.Indexes {
			t, ok := e.tables[n]
			if !ok {
				continue
			}
			for _, cols := range colsets {
				e.indexes[n] = append(e.indexes[n], relation.BuildOrderedIndex(t, cols))
			}
		}
		e.epoch.Store(ck.Epoch)
		st.CheckpointTables = len(ck.Tables)
		recovered = true
	}

	// Replay the live segment's tail through the normal apply path.
	var lastSeq uint64
	var segSize int64
	segPath := walSegmentPath(d.Dir, gen)
	if _, err := os.Stat(segPath); err == nil {
		res, err := scanWALSegment(segPath, true, func(rec *walRecord) error {
			return e.replayRecord(rec)
		})
		if err != nil {
			return nil, nil, err
		}
		if res.truncated > 0 {
			if err := os.Truncate(segPath, res.goodSize); err != nil {
				return nil, nil, err
			}
		}
		st.Replayed = res.records
		st.TruncatedBytes = res.truncated
		lastSeq = res.lastSeq
		segSize = res.goodSize
		if res.records > 0 {
			recovered = true
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}

	w, err := openWALSegment(d, gen, segSize, lastSeq)
	if err != nil {
		return nil, nil, err
	}
	e.wal = w
	if d.Tracer != nil {
		e.SetTracer(d.Tracer)
	}

	// One restart record per recovery of non-empty state: replaying it bumps
	// every table version and the epoch, so tokens and epochs minted before
	// the crash are refused — durably, because the bump itself is logged.
	if recovered {
		if err := e.logLocked(&walRecord{Kind: walRestart}); err != nil {
			w.Close()
			return nil, nil, err
		}
		if e.wal.fsync != FsyncAlways {
			// The restart record is a correctness barrier regardless of
			// policy: sync it even when ordinary appends do not.
			if err := w.f.Sync(); err != nil {
				w.Close()
				return nil, nil, err
			}
			w.syncs.Add(1)
		}
		e.applyRestart()
	}

	st.WallTime = time.Since(start)
	st.Gen = gen
	st.Epoch = e.epoch.Load()
	sp.Set("replayed", fmt.Sprintf("%d", st.Replayed))
	sp.Set("checkpoint_tables", fmt.Sprintf("%d", st.CheckpointTables))
	sp.Set("truncated_bytes", fmt.Sprintf("%d", st.TruncatedBytes))
	sp.Set("epoch", fmt.Sprintf("%d", st.Epoch))
	return e, st, nil
}

// replayRecord applies one logged mutation during recovery. Replay trusts
// the log's validation (rows were coerced before logging) but still refuses
// structurally impossible records — a decodable record referencing a table
// that never existed, or rows that are not a batch of its arity, mean the log
// is not the one this state was written by. scanWALSegment reports the error
// as corruption at the record's offset.
func (e *Engine) replayRecord(rec *walRecord) error {
	switch rec.Kind {
	case walCreateTable:
		sch, err := fromWireAttrs(rec.Attrs)
		if err != nil {
			return fmt.Errorf("replay create %s: %v", rec.Name, err)
		}
		e.applyCreateTable(rec.Name, sch)
	case walLoadTable:
		if rec.Rel == nil {
			return errors.New("replay load without a table")
		}
		r, err := rec.Rel.relation()
		if err != nil {
			return fmt.Errorf("replay load: %v", err)
		}
		e.applyLoadTable(r)
	case walInsert:
		t, ok := e.tables[rec.Name]
		if !ok {
			return fmt.Errorf("replay insert into unknown table %s", rec.Name)
		}
		rows, err := decodeBatch(rec.Rows, t.Schema().Arity())
		if err != nil {
			return fmt.Errorf("replay insert into %s: %v", rec.Name, err)
		}
		e.applyInsert(rec.Name, rows)
	case walCreateIndex:
		if _, ok := e.tables[rec.Name]; !ok {
			return fmt.Errorf("replay index on unknown table %s", rec.Name)
		}
		e.applyCreateIndex(rec.Name, rec.Cols)
	case walRestart:
		e.applyRestart()
	default:
		return fmt.Errorf("replay of unknown record kind %d", rec.Kind)
	}
	return nil
}
