package service

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"pdtl/internal/obs"
)

// Metrics is the service's cumulative counter set, exposed in Prometheus
// text exposition format on GET /metrics. The counters are plain atomics —
// every increment site predates the obs registry and is untouched — bridged
// into the registry as scrape-time CounterFuncs, so the rendered series
// names stay exactly what they have always been (`pdtl_cache_hits 1` greps
// keep working) while scrapes no longer build and sort a map per request.
// The histograms are registered by registerWith; all are nil-safe, so a
// zero Metrics (as tests construct) observes into the void.
type Metrics struct {
	// Engine runs: started counts actual executions (the run-counter the
	// single-flight assertions use); shared counts requests that joined an
	// in-flight identical run instead of starting their own.
	RunsStarted   atomic.Uint64
	RunsCompleted atomic.Uint64
	RunsFailed    atomic.Uint64
	RunsShared    atomic.Uint64

	// Result cache.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64

	// Streaming listings.
	StreamsStarted atomic.Uint64
	StreamsBroken  atomic.Uint64 // client gone / limit hit before the run finished
	TrianglesSent  atomic.Uint64

	// Registry churn.
	Registered atomic.Uint64
	Evicted    atomic.Uint64

	// Distributed runs: worker failures the cluster layer detected and
	// recovered from (the run still produced an exact result). A steadily
	// climbing value means a flaky worker is being carried by its peers.
	ClusterNodeFailures atomic.Uint64

	// Engine I/O attributed to runs the service executed: the reads that
	// are no worker's own (shared-window loads) and the per-worker reads. A cache hit adds exactly zero to both.
	SourceBytesRead atomic.Int64
	WorkerBytesRead atomic.Int64

	// Latency distributions, registered by registerWith (nil on a
	// bare Metrics, where observing is a no-op).

	// RunDuration is the wall time of executed (origin=run) engine runs.
	RunDuration *obs.Histogram
	// QueueWait is the time requests spent waiting for an admission slot.
	QueueWait *obs.Histogram
}

// counterBridge adapts one pre-existing atomic counter for CounterFunc.
func counterBridge(v *atomic.Uint64) func() float64 {
	return func() float64 { return float64(v.Load()) }
}

// registerWith bridges every counter into the registry (scrape-time reads;
// the increment sites keep writing the atomics directly) and creates the
// histograms. Registration order is render order, so the output is
// diff-stable without any per-scrape sorting.
func (m *Metrics) registerWith(r *obs.Registry) {
	r.CounterFunc("pdtl_runs_started", "Engine runs actually executed.", counterBridge(&m.RunsStarted))
	r.CounterFunc("pdtl_runs_completed", "Engine runs that finished successfully.", counterBridge(&m.RunsCompleted))
	r.CounterFunc("pdtl_runs_failed", "Engine runs that returned an error.", counterBridge(&m.RunsFailed))
	r.CounterFunc("pdtl_runs_shared", "Requests that joined an identical in-flight run.", counterBridge(&m.RunsShared))
	r.CounterFunc("pdtl_cache_hits", "Requests served from the memoized result cache.", counterBridge(&m.CacheHits))
	r.CounterFunc("pdtl_cache_misses", "Requests that missed the result cache.", counterBridge(&m.CacheMisses))
	r.CounterFunc("pdtl_streams_started", "Triangle listing streams started.", counterBridge(&m.StreamsStarted))
	r.CounterFunc("pdtl_streams_broken", "Listing streams that ended before the run finished.", counterBridge(&m.StreamsBroken))
	r.CounterFunc("pdtl_triangles_sent", "Triangles written to listing streams.", counterBridge(&m.TrianglesSent))
	r.CounterFunc("pdtl_graphs_registered", "Graph registrations accepted.", counterBridge(&m.Registered))
	r.CounterFunc("pdtl_graphs_evicted", "Graphs evicted via the API.", counterBridge(&m.Evicted))
	r.CounterFunc("pdtl_cluster_node_failures", "Worker failures distributed runs detected and recovered from.", counterBridge(&m.ClusterNodeFailures))
	r.CounterFunc("pdtl_source_bytes_read", "Scan-source disk bytes read by executed runs.", func() float64 { return float64(m.SourceBytesRead.Load()) })
	r.CounterFunc("pdtl_worker_bytes_read", "Per-worker disk bytes read by executed runs.", func() float64 { return float64(m.WorkerBytesRead.Load()) })

	m.RunDuration = r.Histogram("pdtl_run_duration_seconds",
		"Wall time of executed (origin=run) engine runs.", obs.DefDurationBuckets)
	m.QueueWait = r.Histogram("pdtl_queue_wait_seconds",
		"Time requests waited for an admission slot.", obs.DefDurationBuckets)
}

// buildInfoLabels renders the pdtl_build_info label set.
func buildInfoLabels() string {
	return fmt.Sprintf("go_version=%q,goos=%q,goarch=%q",
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
