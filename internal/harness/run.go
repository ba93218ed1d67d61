package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/cluster"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
)

// counter for unique scratch paths.
var scratchSeq atomic.Int64

// ctx resolves the harness's run context (nil field means Background).
func (h *Harness) ctx() context.Context {
	if h.Ctx != nil {
		return h.Ctx
	}
	return context.Background()
}

// OrientTimed orients a dataset into a fresh scratch store (bypassing the
// orientation cache) so the orientation itself can be timed at a given
// parallelism — the Figure 2 / Table IX measurements. The cleanup removes
// the scratch files.
func (h *Harness) OrientTimed(key string, workers int) (string, *orient.Result, func(), error) {
	base, err := h.Store(key)
	if err != nil {
		return "", nil, nil, err
	}
	dst := filepath.Join(h.cacheDir, fmt.Sprintf("%s.ot%d", key, scratchSeq.Add(1)))
	res, err := orient.Orient(base, dst, workers)
	if err != nil {
		return "", nil, nil, err
	}
	cleanup := func() {
		os.Remove(graph.MetaPath(dst))
		os.Remove(graph.DegPath(dst))
		os.Remove(graph.AdjPath(dst))
		os.Remove(orient.InDegPath(dst))
	}
	return dst, res, cleanup, nil
}

// CalcLocal runs the local calculation phase (cached orientation, so
// orientation time is excluded) with the given worker count and memory.
func (h *Harness) CalcLocal(key string, workers, memEdges int, strategy balance.Strategy) (*core.Result, error) {
	return h.calcLocal(key, workers, memEdges, strategy, h.Scan)
}

// CalcLocalSplit is CalcLocal for the experiments that compare splits of
// the store between the workers. A split is something only private windows
// have — the default's cooperative windows deal every plan the same — so
// these name their source: SplitScan.
func (h *Harness) CalcLocalSplit(key string, workers, memEdges int, strategy balance.Strategy) (*core.Result, error) {
	return h.calcLocal(key, workers, memEdges, strategy, h.SplitScan())
}

// SplitScan is the harness's layout if it was given one, and the paper's
// layout — one private window per range — if not.
func (h *Harness) SplitScan() scan.SourceKind {
	if h.Scan.IsAuto() {
		return scan.SourceBuffered
	}
	return h.Scan
}

func (h *Harness) calcLocal(key string, workers, memEdges int, strategy balance.Strategy, source scan.SourceKind) (*core.Result, error) {
	orientedBase, _, err := h.Oriented(key, 2)
	if err != nil {
		return nil, err
	}
	return core.Process(h.ctx(), orientedBase, core.Options{
		Workers:  workers,
		MemEdges: memEdges,
		Strategy: strategy,
		Scan:     source,
		Kernel:   h.Kernel,
	})
}

// ClusterRun is a distributed run plus the cached orientation time, which
// the paper's "total" columns include.
type ClusterRun struct {
	*cluster.Result
	OrientTime time.Duration
	// Total is orientation + distribution + calculation.
	Total time.Duration
}

// RunCluster starts `nodes-1` in-process client nodes (the master is node
// 0), runs the distributed protocol on the dataset's oriented store, and
// tears the cluster down.
func (h *Harness) RunCluster(key string, nodes, workersPerNode, memEdges int, uplink int64) (*ClusterRun, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("harness: need ≥ 1 node")
	}
	orientedBase, ores, err := h.Oriented(key, 2)
	if err != nil {
		return nil, err
	}
	var addrs []string
	if nodes > 1 {
		lc, err := cluster.StartLocal(nodes-1, filepath.Join(h.cacheDir, fmt.Sprintf("cl%d", scratchSeq.Add(1))))
		if err != nil {
			return nil, err
		}
		defer lc.Close()
		addrs = lc.Addrs()
	}
	cres, err := cluster.Run(h.ctx(), cluster.Config{
		GraphBase:         orientedBase,
		GraphName:         key,
		Workers:           workersPerNode,
		MemEdges:          memEdges,
		Strategy:          balance.InDegree,
		UplinkBytesPerSec: uplink,
		Scan:              h.Scan,
		Kernel:            h.Kernel,
		Sched:             h.Sched,
		Chunks:            h.Chunks,
	}, addrs)
	if err != nil {
		return nil, err
	}
	return &ClusterRun{
		Result:     cres,
		OrientTime: ores.Duration,
		Total:      ores.Duration + cres.TotalTime,
	}, nil
}

// MemFull returns a memory budget that lets `processors` runners cover the
// dataset in a single pass each — the "plenty of RAM" setting.
func (h *Harness) MemFull(key string, processors int) (int, error) {
	_, ores, err := h.Oriented(key, 2)
	if err != nil {
		return 0, err
	}
	var entries uint64
	for _, d := range ores.OutDegrees {
		entries += uint64(d)
	}
	m := int(entries)/processors + 1
	return m, nil
}

// MemTight returns a deliberately small budget — max(2·d*max, |E*|/(16·P))
// — forcing multiple passes per runner, the "8 GB" analog of Figure 5.
func (h *Harness) MemTight(key string, processors int) (int, error) {
	_, ores, err := h.Oriented(key, 2)
	if err != nil {
		return 0, err
	}
	var entries uint64
	for _, d := range ores.OutDegrees {
		entries += uint64(d)
	}
	m := int(entries) / (16 * processors)
	if min := 2 * int(ores.MaxOutDegree); m < min {
		m = min
	}
	if m < 1 {
		m = 1
	}
	return m, nil
}

// AggCPUIO sums CPU and I/O time over a set of worker stats.
func AggCPUIO(workers []core.WorkerStat) (cpu, io time.Duration) {
	for _, w := range workers {
		cpu += w.Stats.CPUTime()
		io += w.Stats.IO.IOTime()
	}
	return cpu, io
}

// Work is the machine-independent CPU-work proxy of a set of runners:
// intersection merge steps plus all adjacency entries streamed (scan +
// window loads). The struggler node's Work is what distributed scaling
// divides — the host's physical core count caps wall-clock speedups (this
// harness may run on a 2-core machine) but not this metric.
func Work(workers []core.WorkerStat) uint64 {
	var w uint64
	for _, ws := range workers {
		// BytesRead covers both the sequential scans and the window loads,
		// so entries-streamed is BytesRead/EntrySize.
		w += ws.Stats.CmpOps + uint64(ws.Stats.IO.BytesRead)/graph.EntrySize
	}
	return w
}

// coreWorker aliases core.WorkerStat for brevity in the experiment code.
type coreWorker = core.WorkerStat

// WorkOne is Work for a single runner.
func WorkOne(w core.WorkerStat) uint64 { return Work([]core.WorkerStat{w}) }

// MaxWorkerWork is the struggler runner's work within one result.
func MaxWorkerWork(workers []core.WorkerStat) uint64 {
	var maxW uint64
	for _, w := range workers {
		if ww := WorkOne(w); ww > maxW {
			maxW = ww
		}
	}
	return maxW
}

// MaxNodeWork computes the struggler work over per-node runner groups.
func MaxNodeWork(nodes [][]core.WorkerStat) uint64 {
	var maxW uint64
	for _, n := range nodes {
		if w := Work(n); w > maxW {
			maxW = w
		}
	}
	return maxW
}
