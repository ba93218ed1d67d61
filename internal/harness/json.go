package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/live"
	"pdtl/internal/mgt"
	"pdtl/internal/sched"
)

// BenchSchema names the JSON layout BenchJSON emits; bump it when a field
// changes meaning. Consumers (the BENCH_*.json perf trajectory) key on it.
// /2 added environment provenance (go_version, hostname alongside
// gomaxprocs) so trajectories recorded on different machines are
// attributable before they are compared.
// /3 added the compressed-store ablation fields: store_format,
// bytes_per_edge (oriented adjacency bytes per directed edge — the
// compression ratio axis), and segments_skipped (header-only segment
// rejections by the block-skipping kernel; 0 under every other kernel).
// /4 added the live-graph churn fields: delta_edges (undirected delta-layer
// edges overlaid on the base snapshot at count time) and compactions
// (completed delta-into-snapshot rewrites). Both are zero for static-store
// runs; `pdtl-bench -json -churn N` emits the live rows that populate them.
// /5 added the vectorized-kernel ablation: every (dataset, scheduler) now
// emits a count-only row (mode "count" — the closure-free CountKernel hot
// path) and a listing row (mode "listing" — sinks attached), plus word_ops
// (64-bit word operations by the word-parallel bitmap kernels and the
// 8-wide varint decoder) and fast_decodes (segments decoded by
// graph.DecodeSegmentFast). Both counters are zero on plain stores.
// /6 added the per-phase wall breakdown the run tracer records: plan_ns
// (the load-balance planning slice of wall_ns — in-degree load plus
// range/chunk splitting) alongside the existing wall_ns (calculation) and
// orient_ns (preprocessing), so a trajectory regression is attributable to
// a phase without re-running under -trace.
// (PR 25 deleted the block-skipping and word-parallel kernels without a
// bump: under the default kernel, the only one /3 and /5 rows ever carried
// unless -kernel was passed, segments_skipped and word_ops count what they
// always did — the header-pruned pass and the unrolled decoder.)
const BenchSchema = "pdtl-bench/6"

// BenchRun is one (dataset, scheduler) measurement — the machine-readable
// counterpart of the human tables, with the per-run wall/CPU/IO split and
// the worker-imbalance straggler factor the load-balance ablation tracks.
type BenchRun struct {
	Dataset  string `json:"dataset"`
	Workers  int    `json:"workers"`
	MemEdges int    `json:"mem_edges"`
	Sched    string `json:"sched"`
	Chunks   int    `json:"chunks,omitempty"`
	Scan     string `json:"scan"`
	Kernel   string `json:"kernel"`
	// Mode is "count" (no sinks attached) or "listing" (per-slot sinks
	// attached); the /5 row pair isolates the cost of triangle
	// materialization. Counts are identical by construction.
	Mode string `json:"mode"`
	// StoreFormat is the oriented store's adjacency encoding ("plain" or
	// "compressed"); BytesPerEdge is its adjacency bytes (including the
	// compressed index) per directed edge — 4.0 for plain by construction,
	// the compression ratio axis for compressed.
	StoreFormat  string  `json:"store_format"`
	BytesPerEdge float64 `json:"bytes_per_edge"`
	Triangles    uint64  `json:"triangles"`
	// WallNS is the calculation phase (load balancing + slowest runner);
	// OrientNS the one-time preprocessing, reported separately; PlanNS the
	// load-balance planning slice of the calculation phase.
	WallNS   int64 `json:"wall_ns"`
	OrientNS int64 `json:"orient_ns"`
	PlanNS   int64 `json:"plan_ns"`
	// CPUNS and IONS aggregate the runners; SourceBytes is the scan
	// source's own I/O (shared broadcasts, shared-window loads).
	CPUNS       int64 `json:"cpu_ns"`
	IONS        int64 `json:"io_ns"`
	BytesRead   int64 `json:"bytes_read"`
	SourceBytes int64 `json:"source_bytes_read"`
	// WorkerImbalance is max/mean per-worker work (intersection steps +
	// adjacency entries streamed) — 1.0 is a perfectly flat run; the
	// static-vs-stealing delta on skewed datasets is the point of the
	// load-balance ablation.
	WorkerImbalance float64 `json:"worker_imbalance"`
	// MaxWorkerWall is the straggler runner's wall time.
	MaxWorkerWallNS int64 `json:"max_worker_wall_ns"`
	// SegmentsSkipped counts compressed segments the header-pruned pass
	// rejected on their headers alone (summed over runners); zero for plain
	// stores.
	SegmentsSkipped uint64 `json:"segments_skipped"`
	// DeltaEdges is the live overlay's undirected delta size at count time
	// and Compactions its completed compaction count; both zero outside the
	// -churn live rows.
	DeltaEdges  uint64 `json:"delta_edges"`
	Compactions uint64 `json:"compactions"`
	// WordOps counts the 8-wide blocks of the unrolled varint decoder and
	// FastDecodes the segments decoded through graph.DecodeSegmentFast;
	// both are zero on plain stores, where no compressed payloads exist.
	WordOps     uint64 `json:"word_ops"`
	FastDecodes uint64 `json:"fast_decodes"`
}

// BenchReport is the top-level document: one run per (dataset, scheduler).
// The GoVersion/GoMaxProc/Hostname trio is the environment provenance that
// makes BENCH_*.json trajectories comparable across machines: a wall-time
// regression means nothing until the runs are known to come from the same
// toolchain, parallelism, and host.
type BenchReport struct {
	Schema    string     `json:"schema"`
	Generated time.Time  `json:"generated"`
	GoVersion string     `json:"go_version"`
	GoMaxProc int        `json:"gomaxprocs"`
	Hostname  string     `json:"hostname"`
	Runs      []BenchRun `json:"runs"`
}

// workerImbalance is max/mean of the per-worker work proxy.
func workerImbalance(workers []core.WorkerStat) float64 {
	if len(workers) == 0 {
		return 1
	}
	total := Work(workers)
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(workers))
	return float64(MaxWorkerWork(workers)) / mean
}

// BenchJSON runs the local calculation phase for every requested dataset
// under each scheduler in modes (nil means both) and writes one
// BenchReport to w — the machine-readable output behind
// `pdtl-bench -json`. Since /5 every (dataset, scheduler) measures twice:
// a count-only run (no sinks) immediately
// followed by a listing run (discard sinks attached), in that row order,
// so the trajectory tracks both the production counting speed and the
// materialization overhead. The caller passes modes explicitly because
// the Mode zero value is Static: a "-sched static" flag would otherwise
// be indistinguishable from the flag being absent.
func (h *Harness) BenchJSON(w io.Writer, keys []string, workers, memEdges int, modes []sched.Mode) error {
	if workers <= 0 {
		workers = 4
	}
	report := BenchReport{
		Schema:    BenchSchema,
		Generated: time.Now().UTC(),
		GoVersion: runtime.Version(),
		GoMaxProc: runtime.GOMAXPROCS(0),
		Hostname:  hostname(),
	}
	if len(modes) == 0 {
		modes = []sched.Mode{sched.Static, sched.Stealing}
	}
	for _, key := range keys {
		mem := memEdges
		if mem <= 0 {
			var err error
			if mem, err = h.MemTight(key, workers); err != nil {
				return err
			}
		}
		orientedBase, ores, err := h.Oriented(key, 2)
		if err != nil {
			return err
		}
		ometa, err := graph.ReadMeta(orientedBase)
		if err != nil {
			return err
		}
		adjBytes, err := graph.StoreAdjBytes(orientedBase)
		if err != nil {
			return err
		}
		bytesPerEdge := 0.0
		if ometa.NumEdges > 0 {
			bytesPerEdge = float64(adjBytes) / float64(ometa.NumEdges)
		}
		for _, mode := range modes {
			for _, benchMode := range []string{"count", "listing"} {
				opt := core.Options{
					Workers:  workers,
					MemEdges: mem,
					Strategy: balance.InDegree,
					Scan:     h.Scan,
					Kernel:   h.Kernel,
					Sched:    mode,
					Chunks:   h.Chunks,
				}
				if benchMode == "listing" {
					// Discard sinks force the listing path: one per worker.
					sinks := make([]mgt.Sink, workers)
					for i := range sinks {
						sinks[i] = &mgt.CountSink{}
					}
					opt.Sinks = sinks
				}
				res, err := core.Process(h.ctx(), orientedBase, opt)
				if err != nil {
					return fmt.Errorf("harness: bench %s/%s/%s: %w", key, mode, benchMode, err)
				}
				run := h.benchRun(res, key, workers, mem)
				run.Sched = mode.String()
				run.Mode = benchMode
				run.StoreFormat = string(ometa.Format.OrPlain())
				run.BytesPerEdge = bytesPerEdge
				run.OrientNS = int64(ores.Duration)
				if mode == sched.Stealing {
					for _, w := range res.Workers {
						run.Chunks += w.Chunks
					}
				}
				report.Runs = append(report.Runs, run)
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// benchRun aggregates one calculation's worker stats into the common
// BenchRun core; callers fill in the run-type fields (sched, store format,
// orientation time, live delta gauges).
func (h *Harness) benchRun(res *core.Result, dataset string, workers, mem int) BenchRun {
	cpu, io := AggCPUIO(res.Workers)
	var bytesRead int64
	var maxWall time.Duration
	var segSkipped, wordOps, fastDecodes uint64
	for _, ws := range res.Workers {
		bytesRead += ws.Stats.IO.BytesRead
		segSkipped += ws.Stats.SegmentsSkipped
		wordOps += ws.Stats.WordOps
		fastDecodes += ws.Stats.FastDecodes
		if ws.Stats.Wall > maxWall {
			maxWall = ws.Stats.Wall
		}
	}
	return BenchRun{
		Dataset:         dataset,
		Workers:         workers,
		MemEdges:        mem,
		Scan:            string(res.Scan),
		Kernel:          h.Kernel.String(),
		SegmentsSkipped: segSkipped,
		WordOps:         wordOps,
		FastDecodes:     fastDecodes,
		Triangles:       res.Triangles,
		WallNS:          int64(res.CalcTime),
		PlanNS:          int64(res.PlanTime),
		CPUNS:           int64(cpu),
		IONS:            int64(io),
		BytesRead:       bytesRead,
		SourceBytes:     res.SourceIO.BytesRead,
		WorkerImbalance: workerImbalance(res.Workers),
		MaxWorkerWallNS: int64(maxWall),
	}
}

// BenchChurnJSON measures the live-graph churn path for the perf
// trajectory (`pdtl-bench -json -churn N`): each dataset's oriented store
// is wrapped in a live overlay, a seeded burst of N edge mutations is
// applied, and the merged view is counted twice — once against the
// populated delta ("<key>+live" rows, delta_edges > 0) and once after a
// forced compaction folded it into a fresh snapshot ("<key>+compacted"
// rows, compactions = 1, delta_edges = 0). The two rows bracket the read
// overhead the delta overlay adds and the wall cost compaction pays to
// remove it.
func (h *Harness) BenchChurnJSON(w io.Writer, keys []string, workers, memEdges, churnEdges int) error {
	if workers <= 0 {
		workers = 4
	}
	if churnEdges <= 0 {
		churnEdges = 1000
	}
	report := BenchReport{
		Schema:    BenchSchema,
		Generated: time.Now().UTC(),
		GoVersion: runtime.Version(),
		GoMaxProc: runtime.GOMAXPROCS(0),
		Hostname:  hostname(),
	}
	for _, key := range keys {
		mem := memEdges
		if mem <= 0 {
			var err error
			if mem, err = h.MemTight(key, workers); err != nil {
				return err
			}
		}
		orientedBase, ores, err := h.Oriented(key, 2)
		if err != nil {
			return err
		}
		ometa, err := graph.ReadMeta(orientedBase)
		if err != nil {
			return err
		}
		adjBytes, err := graph.StoreAdjBytes(orientedBase)
		if err != nil {
			return err
		}
		bytesPerEdge := 0.0
		if ometa.NumEdges > 0 {
			bytesPerEdge = float64(adjBytes) / float64(ometa.NumEdges)
		}
		lg, err := live.Open(orientedBase, live.Config{
			Dir:         h.cacheDir,
			Name:        fmt.Sprintf("%s.bench%d", key, scratchSeq.Add(1)),
			Workers:     2,
			MemEdges:    mem,
			StoreFormat: h.StoreFormat,
		})
		if err != nil {
			return err
		}
		err = func() error {
			defer lg.Close()
			// A seeded burst: deletes where the merged view has the edge,
			// inserts elsewhere, never touching an edge twice in the batch.
			rng := rand.New(rand.NewSource(99))
			maxV := uint32(lg.Stats().NumVertices + 64)
			updates := make([]live.Update, 0, churnEdges)
			touched := make(map[[2]uint32]bool, churnEdges)
			for len(updates) < churnEdges {
				u, v := rng.Uint32()%maxV, rng.Uint32()%maxV
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				k := [2]uint32{u, v}
				if touched[k] {
					continue
				}
				touched[k] = true
				updates = append(updates, live.Update{
					U: graph.Vertex(u), V: graph.Vertex(v),
					Del: lg.HasEdge(graph.Vertex(u), graph.Vertex(v)),
				})
			}
			if err := lg.ApplyBatch(updates); err != nil {
				return fmt.Errorf("harness: churn bench %s: %w", key, err)
			}
			opt := core.Options{Workers: workers, MemEdges: mem, Strategy: balance.InDegree}
			for _, stage := range []string{"live", "compacted"} {
				if stage == "compacted" {
					if err := lg.CompactNow(h.ctx()); err != nil {
						return fmt.Errorf("harness: churn bench %s compaction: %w", key, err)
					}
				}
				res, err := lg.Count(h.ctx(), opt)
				if err != nil {
					return fmt.Errorf("harness: churn bench %s/%s: %w", key, stage, err)
				}
				st := lg.Stats()
				run := h.benchRun(res, key+"+"+stage, workers, mem)
				run.Sched = sched.Static.String()
				run.Mode = "count" // live counts never attach sinks
				run.StoreFormat = string(ometa.Format.OrPlain())
				run.BytesPerEdge = bytesPerEdge
				run.OrientNS = int64(ores.Duration)
				run.DeltaEdges = uint64(st.DeltaEdges)
				run.Compactions = st.Compactions
				report.Runs = append(report.Runs, run)
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// hostname is os.Hostname with an explicit marker when the platform
// refuses to say — an absent field would read as schema breakage.
func hostname() string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return "unknown"
	}
	return h
}
