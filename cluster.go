package pdtl

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pdtl/internal/cluster"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/sched"
)

// ClusterOptions parameterize a distributed run.
type ClusterOptions struct {
	// Workers is P, the processor count per node (master included).
	Workers int
	// MemEdges is M per processor, in adjacency entries.
	MemEdges int
	// UplinkBytesPerSec rate-limits the master's aggregate outgoing graph
	// copies (0 = unlimited); it models a shared NIC.
	UplinkBytesPerSec int64
	// Sched selects the scheduler: "static" (or empty — the paper's
	// up-front pre-split of the global plan across nodes) or "stealing"
	// (the master cuts the scan of the local engine's windows of
	// Workers·MemEdges entries into units — a window and a run of its cone
	// blocks — and dispenses them to nodes one at a time on demand, so a
	// node that finishes early pulls the work a slow node would have stalled
	// on, and a node keeps its last unit's window loaded for the next one).
	// A stealing listing is byte for byte the local listing at the same
	// Workers and MemEdges.
	Sched string
	// Chunks is K, the stealing units per processor; non-positive selects
	// the default (8). Ignored under "static".
	Chunks int
	// MaxRetries bounds how many times one unit of failed work (a static
	// range group or a stealing chunk batch) may be reassigned to another
	// node after a worker failure before the run gives up with the joined
	// node errors. Zero selects the default (2); negative disables
	// recovery entirely, so the first worker failure aborts the run.
	// Recovered failures are reported in ClusterResult.Failures either
	// way — partial degradation is observable, not fatal.
	MaxRetries int
	// HeartbeatInterval is how often the master pings each worker to
	// detect partitioned or wedged nodes (crashes are caught faster, by
	// the TCP connection dying); after three consecutive missed
	// heartbeats the worker is declared dead and its work reassigned.
	// Zero selects the default (2s); negative disables the heartbeat.
	HeartbeatInterval time.Duration
	// StoreFormat selects the on-disk encoding of the oriented store the
	// master builds and replicates when the input is unoriented: "plain" (or
	// empty) or "compressed" (see Options.StoreFormat). An already-oriented
	// input is replicated in the format it is in.
	StoreFormat string
	// List requests triangle listing into ListPath (12-byte triples). The
	// listing is published by rename: ListPath may be absent, a regular
	// file, or a symlink, whose target is then replaced; anything else — a
	// FIFO, a device — is refused before the run starts.
	List     bool
	ListPath string
	// Log, when non-nil, receives a structured warning for every worker
	// failure the run detects, as it happens (the failures still appear in
	// ClusterResult.Failures either way). Like the fault-tolerance knobs it
	// never changes what a run computes, so it is absent from Key.
	Log *slog.Logger
}

// Key returns the canonical identity of a distributed run with these
// options against the given worker set — the distributed counterpart of
// Options.Key, and the memoization/single-flight identity the query service
// uses for cluster-backed counts. Listing runs (List=true) are not
// memoizable (their product is a file, not a count), so their key embeds
// the output path to keep them distinct. The fault-tolerance knobs
// (MaxRetries, HeartbeatInterval) are deliberately absent: they change how
// a run survives failures, never what it computes, so runs differing only
// in them share a cache entry.
func (o ClusterOptions) Key(workerAddrs []string) (string, error) {
	cfg, format, err := o.toCluster()
	if err != nil {
		return "", err
	}
	chunks := 0
	if cfg.Sched == sched.Stealing {
		chunks = sched.ChunksFor(cfg.Workers, cfg.Chunks)
	}
	key := fmt.Sprintf("nodes=%s w%d m%d %s c%d %s",
		strings.Join(workerAddrs, ","), cfg.Workers, cfg.MemEdges, cfg.Sched, chunks, format)
	if o.List {
		key += " list=" + o.ListPath
	}
	return key, nil
}

// toCluster resolves o into the cluster engine's configuration and the
// oriented store's format: every name parsed, and Workers and MemEdges
// defaulted as the engine defaults them (cluster.Config). Key and
// CountDistributed both start here.
func (o ClusterOptions) toCluster() (cluster.Config, graph.Format, error) {
	mode, err := sched.ParseMode(o.Sched)
	if err != nil {
		return cluster.Config{}, "", err
	}
	format, err := graph.ParseFormat(o.StoreFormat)
	if err != nil {
		return cluster.Config{}, "", err
	}
	cfg := cluster.Config{
		Workers:           o.Workers,
		MemEdges:          o.MemEdges,
		UplinkBytesPerSec: o.UplinkBytesPerSec,
		Sched:             mode,
		Chunks:            o.Chunks,
		MaxRetries:        o.MaxRetries,
		HeartbeatInterval: o.HeartbeatInterval,
		List:              o.List,
		ListPath:          o.ListPath,
		Log:               o.Log,
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MemEdges <= 0 {
		cfg.MemEdges = core.DefaultMemEdges
	}
	return cfg, format, nil
}

// NodeStats reports one node's share of a distributed run; node 0 is the
// master itself.
type NodeStats struct {
	Name      string
	Addr      string
	CopyTime  time.Duration
	CopyBytes int64
	CalcTime  time.Duration
	Triangles uint64
	// CPUTime and IOTime aggregate the node's runners.
	CPUTime, IOTime time.Duration
	// SourceBytesRead is the disk volume that is none of the node's workers'
	// own: the loads of the windows they share.
	SourceBytesRead int64
	// Workers holds the node's per-runner breakdown.
	Workers []WorkerStats
}

// NodeFailure reports one detected worker failure during a distributed
// run — the per-run failure log of the fault-tolerance layer (DESIGN.md
// §9). A failure on a successful run means the work was recovered: the
// count and listing are exact regardless.
type NodeFailure struct {
	// Node is the worker's self-reported name ("" if it failed before the
	// handshake).
	Node string
	// Addr is the worker's RPC address.
	Addr string
	// Slot is the node's index in the run (the master is 0).
	Slot int
	// Chunk is the global plan index of the failed work unit's first
	// range, or -1 when the node failed outside a calculation (dial,
	// handshake, or replica copy).
	Chunk int
	// Ranges is how many plan ranges the failed unit held.
	Ranges int
	// Retries is how many times the unit had already been reassigned when
	// this failure happened.
	Retries int
	// Err is the failure's error text.
	Err string
	// Time is when the master detected the failure.
	Time time.Time
}

// ClusterResult reports a distributed run.
type ClusterResult struct {
	Triangles  uint64
	OrientTime time.Duration
	// CalcTime is the slowest node's calculation time (the "struggler"
	// rule of the paper's Section V-E3).
	CalcTime  time.Duration
	TotalTime time.Duration
	// NetworkBytes is the master's total payload exchanged with clients
	// (Theorem IV.3's Θ(N·(P+|E|)+T) traffic).
	NetworkBytes int64
	Nodes        []NodeStats
	OrientedBase string
	// Failures lists every worker failure the run detected and recovered
	// from, in detection order; empty for a fully healthy run. The failed
	// workers' shares were reassigned to the survivors (or run on the
	// master), so Triangles and any listing are exact regardless.
	Failures []NodeFailure
}

// CountDistributed runs the full PDTL protocol with this handle's graph:
// the master (this process) replicates the handle's cached oriented store
// to every worker address, assigns contiguous edge ranges, and sums the
// results. The orientation is performed at most once per handle — repeated
// distributed (or mixed local/distributed) runs reuse it. With an empty
// address list the protocol degrades to a local run through the same path.
//
// Worker failure mid-run is survived, not fatal: a crashed, unreachable,
// or wedged worker is detected (connection errors, plus a heartbeat for
// silent partitions) and its unfinished share is reassigned to the
// surviving workers — or run on the master as the last resort — bounded
// by opt.MaxRetries reassignments per work unit. The count (and listing)
// stay exact, and the detected failures are reported in
// ClusterResult.Failures so degraded runs are observable.
//
// Cancelling ctx aborts the whole protocol: local runners stop within one
// memory window, in-flight graph copies stop at the next chunk, and remote
// nodes are told (via a Cancel RPC) to abandon their calculation;
// CountDistributed then returns ctx.Err().
func (g *Graph) CountDistributed(ctx context.Context, workerAddrs []string, opt ClusterOptions) (*ClusterResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, format, err := opt.toCluster()
	if err != nil {
		return nil, err
	}
	g.runs.Add(1)
	start := time.Now()
	d, orientedBase, ores, err := g.ensureOriented(ctx, cfg.Workers, format)
	if err != nil {
		return nil, err
	}
	cfg.GraphBase, cfg.Disk, cfg.GraphName = orientedBase, d, filepath.Base(g.base)
	cres, err := cluster.Run(ctx, cfg, workerAddrs)
	if err != nil {
		return nil, err
	}
	res := clusterResultFrom(cres)
	if ores != nil {
		res.OrientTime = ores.Duration
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

func clusterResultFrom(cres *cluster.Result) *ClusterResult {
	res := &ClusterResult{
		Triangles:    cres.Triangles,
		CalcTime:     cres.CalcTime,
		NetworkBytes: cres.NetworkBytes,
		OrientedBase: cres.OrientedBase,
	}
	for _, f := range cres.Failures {
		res.Failures = append(res.Failures, NodeFailure{
			Node: f.Node, Addr: f.Addr, Slot: f.Slot, Chunk: f.Chunk,
			Ranges: f.Ranges, Retries: f.Retries, Err: f.Err, Time: f.Time,
		})
	}
	for _, n := range cres.Nodes {
		ns := NodeStats{
			Name:            n.Name,
			Addr:            n.Addr,
			CopyTime:        n.CopyTime,
			CopyBytes:       n.CopyBytes,
			CalcTime:        n.CalcTime,
			Triangles:       n.Triangles,
			SourceBytesRead: n.SourceIO.BytesRead,
		}
		for _, w := range n.Workers {
			ns.CPUTime += w.Stats.CPUTime()
			ns.IOTime += w.Stats.IO.IOTime()
			ns.Workers = append(ns.Workers, workerStats(w))
		}
		res.Nodes = append(res.Nodes, ns)
	}
	return res
}

// WorkerServer is a running PDTL worker node.
type WorkerServer struct {
	srv  *cluster.Server
	done chan struct{}
	once sync.Once
}

// ServeWorkerContext starts a worker node that stores graph replicas under
// workDir and serves the PDTL protocol on addr (use ":0" to pick a free
// port). The server runs until Close or until ctx is cancelled, when it
// stops accepting, aborts its in-flight calculations, and closes — the
// lifecycle hook for daemons wiring SIGINT/SIGTERM to a context (as
// cmd/pdtl-worker does).
func ServeWorkerContext(ctx context.Context, addr, name, workDir string) (*WorkerServer, error) {
	srv, err := cluster.Listen(cluster.NewNode(name, workDir, 0), addr)
	if err != nil {
		return nil, err
	}
	w := &WorkerServer{srv: srv, done: make(chan struct{})}
	if ctx != nil {
		go func() {
			select {
			case <-ctx.Done():
				w.Close()
			case <-w.done:
			}
		}()
	}
	return w, nil
}

// Addr reports the worker's listen address.
func (w *WorkerServer) Addr() string { return w.srv.Addr() }

// Done is closed when the worker has stopped (by Close or by its context).
func (w *WorkerServer) Done() <-chan struct{} { return w.done }

// Close stops the worker, cancelling any in-flight calculations.
func (w *WorkerServer) Close() error {
	var err error
	w.once.Do(func() {
		err = w.srv.Close()
		close(w.done)
	})
	return err
}

// WorkerPool is a set of local in-process worker nodes, convenient for
// examples and tests.
type WorkerPool struct {
	lc *cluster.LocalCluster
}

// StartLocalWorkers starts n in-process worker nodes on loopback TCP, each
// with its own replica directory under dir.
func StartLocalWorkers(n int, dir string) (*WorkerPool, error) {
	lc, err := cluster.StartLocal(n, dir)
	if err != nil {
		return nil, err
	}
	return &WorkerPool{lc: lc}, nil
}

// Addrs lists the pool's worker addresses.
func (p *WorkerPool) Addrs() []string { return p.lc.Addrs() }

// Close stops all workers in the pool.
func (p *WorkerPool) Close() error { return p.lc.Close() }
