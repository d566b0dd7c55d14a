package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/relation"
	"repro/internal/remotedb"
)

// Pinned runtime settings. The benchmark never takes these from the machine:
// a different core count would change the plans the engine picks (serial or
// morsel-parallel), not just how fast it runs them.
const (
	pinnedProcs       = 2
	pinnedGCPercent   = 100
	pinnedParallelism = 2
)

// stack is the server side of every workload plus the one pooled connection
// to it: a durable engine on dir, a server on loopback TCP in this process,
// and a PoolClient of size 1 (BrAID's callers each wait for their reply, so
// the loop is closed and one connection carries it).
type stack struct {
	dur  remotedb.Durability
	eng  *remotedb.Engine
	srv  *remotedb.Server
	pool *remotedb.PoolClient

	// loadRows rows went through the log at set-up as loadBytes bytes.
	loadRows, loadBytes int64
}

// indexSpec names one server-side hash index.
type indexSpec struct {
	table string
	cols  []int
}

// openStack opens a durable engine on dir with the stated flush policy
// (interval, 100 ms), loads the tables through the WAL, builds the indexes,
// listens and dials.
func openStack(dir string, segmentBytes int64, tables []*relation.Relation, indexes []indexSpec) (*stack, error) {
	s := &stack{dur: remotedb.Durability{
		Dir:          dir,
		Fsync:        remotedb.FsyncInterval,
		SegmentBytes: segmentBytes,
	}}
	var err error
	if s.eng, _, err = remotedb.OpenEngine(s.dur); err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	s.eng.SetParallelism(pinnedParallelism)
	for _, t := range tables {
		s.eng.LoadTable(t)
		s.loadRows += int64(t.Len())
	}
	s.loadBytes = s.eng.WALStats().Bytes
	for _, ix := range indexes {
		if err := s.eng.CreateIndex(ix.table, ix.cols); err != nil {
			s.close()
			return nil, fmt.Errorf("index %s: %w", ix.table, err)
		}
	}
	s.srv = remotedb.NewServer(s.eng)
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	if s.pool, err = remotedb.DialPool(addr, remotedb.PoolOptions{Size: 1, Costs: remotedb.DefaultCosts()}); err != nil {
		s.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return s, nil
}

// close stops the client, the server and the log, in that order, and waits
// for the server's handlers.
func (s *stack) close() error {
	if s == nil {
		return nil
	}
	var first error
	if s.pool != nil {
		first = s.pool.Close()
		s.pool = nil
	}
	if s.srv != nil {
		if err := s.srv.Close(); err != nil && first == nil {
			first = err
		}
		s.srv = nil
	}
	if s.eng != nil {
		if err := s.eng.CloseWAL(); err != nil && first == nil {
			first = err
		}
		s.eng = nil
	}
	return first
}

// freshDir returns an empty directory root/name.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
