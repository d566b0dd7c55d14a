// Package remotedb implements BrAID's remote DBMS substrate: a from-scratch
// relational engine with a SQL subset, a catalog with statistics, and two
// transports (in-process and TCP) behind one streaming Client contract. It
// stands in for the INGRES / Britton-Lee IDM-500 servers of the paper's
// prototype.
//
// Because the experiments measure *relative* costs (requests issued, tuples
// shipped, response time), the package includes a deterministic virtual cost
// model: every request is charged a fixed per-request latency (the paper's
// "cost of communicating with remote DBMS is significant", Section 5.3.3(c)),
// a per-tuple transfer cost, and a per-tuple server processing cost. The
// simulated time is reported alongside real results so benchmark shapes are
// reproducible independent of host hardware.
package remotedb

// Costs is the virtual cost model, in simulated milliseconds. The defaults
// model a late-1980s workstation/Ethernet/database-server setup scaled to
// convenient magnitudes: a remote round trip is ~50 ms, shipping a tuple
// ~0.2 ms, a server-side tuple operation ~0.02 ms, and a local (CMS) tuple
// operation ~0.005 ms (main memory).
type Costs struct {
	// PerRequest is the fixed cost of one round trip to the remote DBMS.
	PerRequest float64
	// PerTuple is the cost of transferring one result tuple to the caller.
	PerTuple float64
	// PerServerOp is the cost of one tuple operation (scan, probe, insert)
	// executed by the remote DBMS.
	PerServerOp float64
	// PerLocalOp is the cost of one tuple operation executed locally by the
	// CMS query processor. It lives here so that a single Costs value
	// describes the entire cost landscape of an experiment.
	PerLocalOp float64
}

// DefaultCosts returns the standard experiment cost model.
func DefaultCosts() Costs {
	return Costs{
		PerRequest:  50,
		PerTuple:    0.2,
		PerServerOp: 0.02,
		PerLocalOp:  0.005,
	}
}

// RequestCost returns the simulated cost of a request that returned tuples
// result tuples and performed ops tuple operations on the server.
func (c Costs) RequestCost(tuples, ops int64) float64 {
	return c.PerRequest + float64(tuples)*c.PerTuple + float64(ops)*c.PerServerOp
}

// Stats accumulates transfer statistics for a client connection. All fields
// are cumulative since the connection opened. Requests, tuples, server ops
// and simulated time are counted alike by every transport, streamed or not;
// the frame/stream counters exist on the framed wire only (PoolClient) and
// stay zero in-process.
type Stats struct {
	// Requests is the number of DML requests issued.
	Requests int64
	// CatalogRequests is the number of catalog requests issued: schema,
	// stats and table-list lookups.
	CatalogRequests int64
	// TuplesReturned is the total number of result tuples shipped.
	TuplesReturned int64
	// ServerOps is the total number of server-side tuple operations.
	ServerOps int64
	// SimMS is the accumulated simulated time in milliseconds.
	SimMS float64

	// FramesSent is the number of protocol frames written (requests, cancels).
	FramesSent int64
	// FramesRecv is the number of protocol frames received (headers, batches,
	// ends).
	FramesRecv int64
	// Streams is the number of streamed exec results opened.
	Streams int64
	// StreamsCanceled is how many streams were torn down mid-flight by caller
	// cancellation or Close (only that stream dies; the connection survives).
	StreamsCanceled int64
	// FirstTupleNS is the cumulative wall-clock time from issuing a streamed
	// exec to its first payload frame, over Streams streams; divide for the
	// mean first-tuple latency.
	FirstTupleNS int64

	// Epoch is the highest server clock this client has observed on any
	// response (0 until a response has carried one). It is a high-water
	// mark, not a sum.
	Epoch uint64
}
