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
//   - Open — a long-lived handle on one graph store, with the orientation,
//     degree index, and load-balance plan computed once and reused by every
//     run; all run methods take a context.Context for cancellation;
//   - g.Count / g.List / g.ForEach / g.Triangles / g.TriangleDegrees —
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
	"runtime"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// Options parameterize a local (single-machine) run.
type Options struct {
	// Workers is the number of concurrent MGT runners (P). Non-positive
	// selects the number of CPUs.
	Workers int
	// MemEdges is the per-worker memory budget M, in adjacency entries
	// (4 bytes each). Non-positive selects a 16 MiB default. Correctness
	// never depends on M; it only trades passes for memory. By default the
	// workers pool their budgets into one window of Workers·MemEdges
	// entries (see ScanSource); a store smaller than the budget costs its
	// own size.
	MemEdges int
	// NaiveBalance disables the paper's in-degree load balancer and splits
	// edges equally instead (the "w/o LB" ablation of Figure 9). It decides
	// the ranges of runners with private windows — a named ScanSource, or a
	// cluster's nodes; the default local run splits nothing.
	NaiveBalance bool
	// BufBytes is each runner's sequential read buffer under a named
	// ScanSource; non-positive selects 1 MiB.
	BufBytes int
	// ScanSource selects how adjacency data reaches the runners. "auto" (or
	// empty) is cooperative windows: the workers share one window of
	// Workers·MemEdges entries, loaded once per round, and are dealt the
	// scan of the store in blocks of a few thousand entries — whichever is
	// free takes the next — so a round balances itself and a store that
	// fits the window is read exactly once. Naming a source selects the
	// paper's layout instead — every worker a range of the load-balance
	// plan and a private MemEdges-entry window — fed by "buffered" (the
	// paper's configuration: every runner scans the file itself) or
	// "shared" (one sequential reader broadcasts to all runners). Any other
	// name is an error. The triangle set is identical for every choice.
	ScanSource string
	// Kernel selects how a cone vertex's list N(u) is intersected with the
	// in-memory lists of its out-neighbours: "auto" (or empty — N(u) is
	// marked once in a direct-addressed array over the vertex ids and every
	// in-memory list is probed against it) or "merge" (the paper's
	// two-pointer merge, once per list pair — its ablation). Any other name
	// is an error. The triangle output is identical for either choice.
	Kernel string
	// Sched names the schedule: "static" (or empty) or "stealing". It is
	// validated, reported and part of Key, but on one machine there is
	// nothing left for it to decide: cooperative windows deal every round
	// dynamically, and a named ScanSource binds one range to each worker
	// either way. The choice matters to ClusterOptions, where it decides
	// how the master hands the plan to its nodes.
	Sched string
	// Chunks is the chunks-per-worker factor K of a stealing plan
	// (ClusterOptions.Chunks); a local run ignores it.
	Chunks int
	// StoreFormat selects the on-disk encoding of the oriented store built
	// when the input is unoriented: "plain" (or empty — 4 bytes per
	// adjacency entry) or "compressed" (delta-varint/bitmap segments; see
	// DESIGN.md §10). An already-oriented input is used in the format it is
	// in. The triangle output is identical for either format.
	StoreFormat string
}

// Key returns the canonical identity of a run with these Options: every
// default is resolved (worker count, memory budget, balance strategy, scan
// source, kernel, scheduler, chunk count), so two Options values that would
// execute the same calculation map to the same key even when one spells a
// default explicitly and the other leaves it zero. Two runs with equal keys
// on the same store produce the identical triangle set, which makes Key the
// memoization and single-flight identity of the query service
// (internal/service); it doubles as a stable human-readable run label.
func (o Options) Key() (string, error) {
	copt, err := o.toCore()
	if err != nil {
		return "", err
	}
	workers := copt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	mem := copt.MemEdges
	if mem <= 0 {
		mem = core.DefaultMemEdges
	}
	chunks := 0
	if copt.Sched == sched.Stealing {
		chunks = sched.ChunksFor(workers, copt.Chunks)
	}
	store := copt.Store
	if store == "" {
		store = graph.FormatPlain
	}
	return fmt.Sprintf("w%d m%d %s %s %s %s c%d %s",
		workers, mem, copt.Strategy, copt.Sched, copt.Scan.OrAuto(), copt.Kernel, chunks, store), nil
}

func (o Options) toCore() (core.Options, error) {
	strategy := balance.InDegree
	if o.NaiveBalance {
		strategy = balance.Naive
	}
	scanKind, err := scan.ParseSource(o.ScanSource)
	if err != nil {
		return core.Options{}, err
	}
	kernelKind, err := mgt.ParseKernel(o.Kernel)
	if err != nil {
		return core.Options{}, err
	}
	schedMode, err := sched.ParseMode(o.Sched)
	if err != nil {
		return core.Options{}, err
	}
	format, err := graph.ParseFormat(o.StoreFormat)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Workers:  o.Workers,
		MemEdges: o.MemEdges,
		Strategy: strategy,
		BufBytes: o.BufBytes,
		Scan:     scanKind,
		Kernel:   kernelKind,
		Sched:    schedMode,
		Chunks:   o.Chunks,
		Store:    format,
	}, nil
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
	// PlanTime is the load-balance planning slice of CalcTime (~zero when
	// the handle's plan cache hits).
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
	// ScanSource is the scan source the run used ("auto" — cooperative
	// windows — "buffered", or "shared").
	ScanSource string
	// Sched is the schedule the run was asked for ("static" or "stealing").
	Sched string
	// MemEdges is the run's window, clipped to the store size —
	// Workers·M under "auto", M under a named source — and Windows how many
	// of them the store is: the rounds of a cooperative run (each runner's
	// Passes), or the passes a single runner with a private window would
	// need, the least the runners' Passes can sum to.
	MemEdges, Windows int
	// SourceBytesRead is the disk volume that is no worker's own: under
	// "auto" the loads of the windows the workers share; otherwise what
	// the scan source read on its own behalf — the shared broadcaster's
	// single scan per round of passes; zero for
	// "buffered", whose scans are charged to the per-worker BytesRead
	// instead.
	SourceBytesRead int64
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

func defaultWorkers() int { return runtime.NumCPU() }

// VerifySmallDegree checks the paper's small-degree assumption
// (d*max ≤ M/2) for an oriented store and budget; the returned error is
// advisory — counting stays exact without it, only the CPU bound weakens.
func VerifySmallDegree(orientedBase string, memEdges int) error {
	d, err := graph.Open(orientedBase)
	if err != nil {
		return err
	}
	return mgt.CheckSmallDegree(d, memEdges)
}
