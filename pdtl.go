// Package pdtl is a Go implementation of PDTL — Parallel and Distributed
// Triangle Listing for massive graphs (Giechaskiel, Panagopoulos, Yoneki;
// ICPP 2015 / UCAM-CL-TR-866).
//
// PDTL counts or lists the exact set of triangles of an undirected simple
// graph using external memory: instead of fitting (sub)graphs into RAM, it
// orients the graph by a degree-based order, replicates the oriented graph
// to every machine, assigns every processor a contiguous range of "pivot"
// edges, and streams the graph from disk once per memory-sized window of
// that range (an extension of Hu et al.'s MGT algorithm). CPU, I/O, memory
// and network use are all provably bounded; per-core memory need only hold
// twice the maximum oriented degree.
//
// The primary entry point is the Graph handle (see handle.go):
//
//   - Open — a long-lived handle on one graph store, with the orientation
//     and degree index computed once and reused by every run; all run
//     methods take a context.Context for cancellation;
//   - g.Count / g.List / g.Triangles / g.TriangleDegrees —
//     single-machine, multi-core runs;
//   - g.CountDistributed / ServeWorkerContext — the distributed protocol
//     with a master and TCP worker nodes;
//   - Generate* / Import* — dataset creation and ingest into the binary
//     store format (degree file + adjacency file + JSON metadata).
//
// For a resident, multi-tenant deployment, internal/service wraps a
// registry of these handles behind an HTTP/JSON API with admission
// control, result memoization (keyed by Options.Key), and per-graph
// single-flight; cmd/pdtl-serve is its daemon (DESIGN.md §8).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-reproduction results.
package pdtl

import (
	"fmt"
	"os"
	"time"

	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/sched"
)

// Options parameterize a local (single-machine) run.
type Options struct {
	// Workers is the number of concurrent MGT runners (P). Non-positive
	// selects the number of CPUs.
	Workers int
	// MemEdges is the per-worker memory budget M, in adjacency entries
	// (4 bytes each). Non-positive selects a 16 MiB default. Correctness
	// never depends on M; it only trades passes for memory. The workers
	// pool their budgets into one window of Workers·MemEdges entries,
	// loaded once per round, and are dealt the scan of the store in blocks
	// of a few thousand entries — whichever is free takes the next — so a
	// round balances itself and a store that fits the window is read
	// exactly once; a store smaller than the budget costs its own size.
	MemEdges int
	// Sched is validated ("static", empty, or "stealing") and otherwise
	// ignored: on one machine there is nothing for a schedule to decide —
	// cooperative windows deal every round dynamically. It is absent from
	// Key. The choice matters to ClusterOptions.Sched, where it decides how
	// the master hands the work to its nodes.
	Sched string
	// StoreFormat selects the on-disk encoding of the oriented store built
	// when the input is unoriented: "plain" (or empty — 4 bytes per
	// adjacency entry) or "compressed" (delta-varint/bitmap segments; see
	// DESIGN.md §10). An already-oriented input is used in the format it is
	// in. The triangle output is identical for either format.
	StoreFormat string
}

// Key returns the canonical identity of a run with these Options: what
// changes a local calculation, defaults resolved (toCore) — worker count and
// memory budget as given (not clipped to the store) and store format.
// Options that would execute the same calculation share a key even when one
// spells a default and the other leaves it zero, and runs with equal keys on
// one store produce the identical triangle set: Key is the query service's
// memoization and single-flight identity (internal/service) and a stable run
// label.
func (o Options) Key() (string, error) {
	copt, err := o.toCore()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("w%d m%d %s", copt.Workers, copt.MemEdges, copt.Store), nil
}

// toCore resolves o into the engine's options: every name parsed (Sched
// only validated), and Workers and MemEdges defaulted (core's
// WithDefaults). Every local run and Key start here.
func (o Options) toCore() (core.Options, error) {
	if _, err := sched.ParseMode(o.Sched); err != nil {
		return core.Options{}, err
	}
	format, err := graph.ParseFormat(o.StoreFormat)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Workers:  o.Workers,
		MemEdges: o.MemEdges,
		Store:    format,
	}.WithDefaults(), nil
}

// WorkerStats describes one runner's share of a run.
type WorkerStats struct {
	// Worker is the runner index.
	Worker int
	// EdgeLo and EdgeHi delimit the runner's pivot-edge range — the whole
	// store for every runner of a cooperative window, which share it. On a
	// cluster node they bound the (possibly non-contiguous) union of the
	// ranges the node drew.
	EdgeLo, EdgeHi uint64
	// Chunks is how many ranges the runner worked on: 1 for a local run,
	// the batches' ranges summed for a cluster node's runner.
	Chunks int
	// Triangles found in the range.
	Triangles uint64
	// Passes is the number of memory windows the runner iterated: its own,
	// or the rounds of the shared window it took part in (all of them).
	Passes int
	// CPUTime and IOTime split the runner's wall time into computation
	// and time spent inside disk reads.
	CPUTime, IOTime time.Duration
	// BytesRead is the runner's total disk read volume.
	BytesRead int64
}

// Result reports a local run.
type Result struct {
	// Triangles is the exact triangle count of the graph.
	Triangles uint64
	// OrientTime is the preprocessing time (zero if the input store was
	// already oriented).
	OrientTime time.Duration
	// PlanTime is the planning slice of CalcTime: about zero, as a local
	// run plans one range covered by windows of Workers·MemEdges entries.
	PlanTime time.Duration
	// CalcTime is the calculation phase (load balancing + slowest runner).
	CalcTime time.Duration
	// TotalTime is OrientTime + CalcTime.
	TotalTime time.Duration
	// MaxOutDegree is d*max of the orientation.
	MaxOutDegree uint32
	// Workers holds per-runner statistics.
	Workers []WorkerStats
	// OrientedBase is the path of the oriented store used (reusable as the
	// input of later runs to skip orientation).
	OrientedBase string
	// MemEdges is the run's shared window, Workers·M clipped to the store
	// size, and Windows how many of them the store is: the rounds of the
	// run, each runner's Passes.
	MemEdges, Windows int
	// SourceBytesRead is the disk volume that is no worker's own: the loads
	// of the windows the workers share.
	SourceBytesRead int64
	// Batches is, for a LiveGraph count, how many mutation batches the
	// counted view holds; zero for an immutable graph.
	Batches uint64
}

// ReadTriangleFile decodes a List output file.
func ReadTriangleFile(path string) ([][3]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mgt.ReadTriangles(f)
}

// resultFrom folds the engine's result into the public one: what every
// local run reports, static or live.
func resultFrom(cres *core.Result) *Result {
	res := &Result{
		Triangles:       cres.Triangles,
		PlanTime:        cres.PlanTime,
		CalcTime:        cres.CalcTime,
		TotalTime:       cres.TotalTime,
		OrientedBase:    cres.OrientedBase,
		MemEdges:        int(cres.Plan.MemEdges),
		Windows:         int(cres.Plan.Windows),
		SourceBytesRead: cres.SourceIO.BytesRead,
	}
	for _, w := range cres.Workers {
		res.Workers = append(res.Workers, workerStats(w))
	}
	return res
}

// workerStats is one runner's share of a run, local or on a cluster node.
func workerStats(w core.WorkerStat) WorkerStats {
	return WorkerStats{
		Worker:    w.Worker,
		EdgeLo:    w.Range.Lo,
		EdgeHi:    w.Range.Hi,
		Chunks:    w.Chunks,
		Triangles: w.Stats.Triangles,
		Passes:    w.Stats.Passes,
		CPUTime:   w.Stats.CPUTime(),
		IOTime:    w.Stats.IO.IOTime(),
		BytesRead: w.Stats.IO.BytesRead,
	}
}
