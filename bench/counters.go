package main

import "repro/internal/bridge"

// Counter indexes. The counts come from the program's own counters
// (bridge.SourceStats, remotedb.Stats, PlanCacheStats, ParallelStats,
// WALStats); the benchmark only takes deltas.
const (
	cQueries = iota
	cCacheHits
	cExactHits
	cPartialHits
	cPrefetchHits
	cGeneralizations
	cEvictions
	cEpochInvalidations
	cLazyAnswers
	cRequests
	cTuples
	cServerOps
	cFramesSent
	cFramesRecv
	cStreams
	cFirstTupleNS
	cPlanHits
	cPlanMisses
	cParStreams
	cParMorsels
	cParFallbacks
	cWALAppends
	cWALSyncs
	cWALRotations
	cWALBytes
	nCounters
)

var counterNames = [nCounters]string{
	"Queries", "CacheHits", "ExactHits", "PartialHits", "PrefetchHits",
	"Generalizations", "Evictions", "EpochInvalidations", "LazyAnswers",
	"Requests", "Tuples", "ServerOps", "FramesSent", "FramesRecv", "Streams",
	"FirstTupleNS", "PlanHits", "PlanMisses", "ParStreams", "ParMorsels",
	"ParFallbacks", "WALAppends", "WALSyncs", "WALRotations", "WALBytes",
}

// counters is one reading of every counter; comparable with ==.
type counters [nCounters]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// readCounters takes a reading. src is nil on a workload without a CMS.
func readCounters(src bridge.DataSource, st *stack) counters {
	var c counters
	if src != nil {
		s := src.Stats()
		c[cQueries] = s.Queries
		c[cCacheHits] = s.CacheHits
		c[cExactHits] = s.ExactHits
		c[cPartialHits] = s.PartialHits
		c[cPrefetchHits] = s.PrefetchHits
		c[cGeneralizations] = s.Generalizations
		c[cEvictions] = s.Evictions
		c[cEpochInvalidations] = s.EpochInvalidations
		c[cLazyAnswers] = s.LazyAnswers
	}
	cs := st.pool.Stats()
	c[cRequests] = cs.Requests
	c[cTuples] = cs.TuplesReturned
	c[cServerOps] = cs.ServerOps
	c[cFramesSent] = cs.FramesSent
	c[cFramesRecv] = cs.FramesRecv
	c[cStreams] = cs.Streams
	c[cFirstTupleNS] = cs.FirstTupleNS
	e := st.eng
	pc := e.PlanCacheStats()
	c[cPlanHits], c[cPlanMisses] = pc.Hits, pc.Misses
	ps := e.ParallelStats()
	c[cParStreams], c[cParMorsels], c[cParFallbacks] = ps.Streams, ps.Morsels, ps.SerialFallbacks
	ws := e.WALStats()
	c[cWALAppends], c[cWALSyncs], c[cWALRotations], c[cWALBytes] = ws.Appends, ws.Syncs, ws.Rotations, ws.Bytes
	return c
}

// The counters the decorator-fidelity check compares between the traced pass
// and an untraced one: were they different, the client wrapper would have
// knocked the CMS off the streaming path it takes over a bare PoolClient.
var fidelityCounters = []int{cStreams, cFramesRecv, cCacheHits, cPartialHits, cRequests, cQueries, cTuples}

// Counters that do not repeat exactly from pass to pass: syncs follow a
// 100 ms timer, first-frame time is a time, and rotations depend on how much
// log earlier passes left in the segment.
var inexactCounters = map[int]bool{cWALSyncs: true, cFirstTupleNS: true, cWALRotations: true}
