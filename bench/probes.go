package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pdtl"
	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
)

// Layer probes. They run after the traced op, never on the timed path, and
// call only the probe surface listed in README.md. Intersection kernels are
// deliberately not called directly: their numbers come from the engine's
// own TotalStats.

// probeStore fills the graph and balance layers' metrics for the oriented
// store at base; every workload has one.
func probeStore(ms metricSet, base string, p int) (*graph.Disk, error) {
	var d *graph.Disk
	var opens []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		var err error
		if d, err = graph.Open(base); err != nil {
			return nil, err
		}
		opens = append(opens, float64(time.Since(start).Nanoseconds())/1e6)
	}
	ms["graph.open_ms"] = median(opens)
	adj := fileMB(graph.AdjPath(base), graph.CAdjPath(base), graph.CIdxPath(base))
	ms["graph.store_mb"] = adj + fileMB(graph.DegPath(base), graph.MetaPath(base), orient.InDegPath(base))
	ms["graph.bytes_per_edge"] = adj * 1e6 / float64(d.Meta.AdjEntries)

	start := time.Now()
	plan, err := core.Plan(d, base, p, balance.InDegree)
	if err != nil {
		return nil, err
	}
	ms["balance.plan_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	ms["balance.imbalance"] = plan.Imbalance()
	return d, nil
}

// probeDecode pushes every segment of a compressed store through
// graph.DecodeSegmentFast, off one bare buffered scan.
func probeDecode(ms metricSet, d *graph.Disk) error {
	if d.Format() != graph.FormatCompressed {
		return nil
	}
	src, err := scan.New(scan.SourceBuffered, d, scan.Config{})
	if err != nil {
		return err
	}
	defer src.Close()
	h, err := src.Handle(nil)
	if err != nil {
		return err
	}
	defer h.Close()
	sc, err := h.Scan(0)
	if err != nil {
		return err
	}
	defer sc.Close()
	csc, ok := sc.(scan.CompressedScan)
	if !ok {
		return fmt.Errorf("compressed store's scan does not deliver encoded lists")
	}
	var segs, entries int64
	var decode time.Duration
	buf := make([]graph.Vertex, 0, graph.SegmentEntries)
	for {
		_, cl, ok := csc.NextCompressed()
		if !ok {
			break
		}
		start := time.Now()
		it := cl.Segments()
		for {
			seg, ok := it.Next()
			if !ok {
				break
			}
			out, _, err := graph.DecodeSegmentFast(seg, buf[:0])
			if err != nil {
				return err
			}
			segs++
			entries += int64(len(out))
		}
		decode += time.Since(start)
		if err := it.Err(); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if segs > 0 && decode > 0 {
		ms["graph.decode_ns_per_seg"] = float64(decode.Nanoseconds()) / float64(segs)
		ms["graph.decode_mb_per_s"] = float64(entries*graph.EntrySize) / 1e6 / decode.Seconds()
	}
	return nil
}

// probeDrain opens p handles on one source of the given kind and drains one
// full scan pass through each, concurrently, with no intersections: the
// rate at which the scan layer alone delivers adjacency data (MB of decoded
// entries per second, summed over the handles).
func probeDrain(ctx context.Context, d *graph.Disk, kind scan.SourceKind, p int) (float64, error) {
	src, err := scan.New(kind, d, scan.Config{Ctx: ctx})
	if err != nil {
		return 0, err
	}
	defer src.Close()
	handles := make([]scan.Handle, p)
	for i := range handles {
		if handles[i], err = src.Handle(nil); err != nil {
			for _, h := range handles[:i] {
				h.Close()
			}
			return 0, err
		}
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	start := time.Now()
	for i, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A shared source counts open handles to start a round, so a
			// handle closes as soon as its pass is done.
			defer h.Close()
			sc, err := h.Scan(0)
			if err != nil {
				errs[i] = err
				return
			}
			for {
				if _, _, ok := sc.Next(); !ok {
					break
				}
			}
			errs[i] = sc.Err()
			if cerr := sc.Close(); errs[i] == nil {
				errs[i] = cerr
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(p) * float64(d.Meta.AdjEntries*graph.EntrySize) / 1e6 / wall, nil
}

// probeEngine runs the engine once more through core.Process with the
// workload's options and reads the scan, mgt and core layers' counters off
// its Result; then one plain single-threaded runner over the whole range,
// the base of the parallel-efficiency figure.
func probeEngine(ctx context.Context, ms metricSet, d *graph.Disk, base string, opt pdtl.Options, listing bool) error {
	// The handle API always plans with the in-degree balancer; core.Options'
	// zero Strategy is the naive split, so it is spelled out.
	copt := core.Options{Workers: opt.Workers, MemEdges: opt.MemEdges, Strategy: balance.InDegree}
	if listing {
		// Sinks select the listing path of the kernels, as ListFile does.
		for i := 0; i < opt.Workers; i++ {
			copt.Sinks = append(copt.Sinks, &mgt.CountSink{})
		}
	}
	res, err := core.Process(ctx, base, copt)
	if err != nil {
		return err
	}
	total := res.TotalStats()
	ms["scan.cmp_ops"] = float64(total.CmpOps)
	ms["scan.intersections"] = float64(total.Intersections)
	ms["scan.segments_skipped"] = float64(total.SegmentsSkipped)
	ms["scan.word_ops"] = float64(total.WordOps)
	ms["scan.fast_decodes"] = float64(total.FastDecodes)
	ms["scan.source_mb"] = float64(res.SourceIO.BytesRead) / 1e6
	ms["mgt.passes"] = float64(total.Passes)
	ms["mgt.edges_loaded"] = float64(total.EdgesLoaded)
	ms["mgt.large_vertices"] = float64(total.LargeVertices)
	ms["mgt.io_wait_s"] = total.IO.IOTime().Seconds()
	var cpu time.Duration
	var walls []float64
	maxPasses := 0
	for _, w := range res.Workers {
		cpu += w.CPUTime()
		walls = append(walls, w.Wall.Seconds())
		if w.Passes > maxPasses {
			maxPasses = w.Passes
		}
	}
	ms["mgt.max_runner_passes"] = float64(maxPasses)
	if total.CmpOps > 0 {
		ms["scan.ns_per_cmp"] = float64(cpu.Nanoseconds()) / float64(total.CmpOps)
	}
	ms["core.calc_s"] = res.CalcTime.Seconds()
	ms["core.plan_ms"] = float64(res.PlanTime.Nanoseconds()) / 1e6
	ms["core.worker_imbalance"] = maxOverMean(walls)

	mem := opt.MemEdges
	if mem <= 0 {
		mem = core.DefaultMemEdges
	}
	r, err := mgt.NewRunner(d, mgt.Config{MemEdges: mem})
	if err != nil {
		return err
	}
	defer r.Close()
	var sink mgt.Sink
	if listing {
		sink = &mgt.CountSink{}
	}
	single, err := r.RunRange(ctx, mgt.FullRange(d), sink)
	if err != nil {
		return err
	}
	ms["mgt.single_runner_wall_s"] = single.Wall.Seconds()
	ms["core.parallel_efficiency"] = single.Wall.Seconds() / (float64(opt.Workers) * res.CalcTime.Seconds())
	return nil
}

// resultLayers fills what the traced op's own public Result says about the
// sched and pdtl layers.
func resultLayers(ms metricSet, res *pdtl.Result, wall time.Duration) {
	var walls []float64
	chunks := 0
	for _, w := range res.Workers {
		walls = append(walls, (w.CPUTime + w.IOTime).Seconds())
		chunks += w.Chunks
	}
	ms["sched.chunks"] = float64(chunks)
	ms["sched.worker_imbalance"] = maxOverMean(walls)
	ms["orient.wall_s"] = res.OrientTime.Seconds()
	// Whatever the handle method spent outside the engine's own total:
	// listing reassembly for ListFile, ~nothing for Count.
	ms["pdtl.assemble_s"] = (wall - res.TotalTime).Seconds()
}

// traceLayers fills what the program's own trace of the traced op says.
func traceLayers(ms metricSet, tr *obs.Trace) {
	rounds := 0
	for _, sp := range tr.Spans() {
		if sp.Name == obs.SpanScanRound {
			rounds++
		}
	}
	ms["scan.rounds"] = float64(rounds)
	ms["obs.spans_dropped"] = float64(tr.Dropped())
}

// maxUnattributed is how much of a local workload's traced wall may fall
// outside every span around a layer call before the trace is considered
// broken.
const maxUnattributed = 0.05

func (l *local) layers(ctx context.Context, ms metricSet) error {
	if f := ms["obs.unattributed_frac"]; f > maxUnattributed {
		return fmt.Errorf("span self times leave %.1f%% of the traced wall unattributed (limit %.0f%%)", f*100, maxUnattributed*100)
	}
	name := l.cfg.Workload.Name
	resultLayers(ms, l.last, l.lastWall)
	traceLayers(ms, l.lastTr)
	ms["pdtl.open_ms"] = float64(l.openWall.Nanoseconds()) / 1e6
	if name == wListInmem {
		ms["pdtl.listing_mb"] = float64(l.in.Triangles*12) / 1e6
	}

	d, err := probeStore(ms, l.base, l.cfg.P)
	if err != nil {
		return err
	}
	if err := probeDecode(ms, d); err != nil {
		return err
	}
	if err := probeEngine(ctx, ms, d, l.base, l.opt, name == wListInmem); err != nil {
		return err
	}
	if ms["scan.shared_drain_mb_per_s"], err = probeDrain(ctx, d, scan.SourceShared, l.cfg.P); err != nil {
		return err
	}
	if ms["scan.buffered_drain_mb_per_s"], err = probeDrain(ctx, d, scan.SourceBuffered, l.cfg.P); err != nil {
		return err
	}

	switch name {
	case wCountOOC:
		// The stealing scheduler on the workload whose static plan is most
		// uneven in passes: one rep each way, on the open handle.
		walls := map[string]float64{}
		for _, mode := range []string{"static", "stealing"} {
			opt := l.opt
			opt.Sched = mode
			start := time.Now()
			res, err := l.g.Count(ctx, opt)
			if err != nil {
				return err
			}
			if res.Triangles != l.in.Triangles {
				return fmt.Errorf("sched=%s counted %d triangles, baseline says %d", mode, res.Triangles, l.in.Triangles)
			}
			walls[mode] = time.Since(start).Seconds()
		}
		ms["sched.steal_wall_ratio"] = walls["stealing"] / walls["static"]
	case wColdBuild:
		ms["extsort.import_s"] = l.importWall.Seconds()
		ms["extsort.written_mb"] = fileMB(graph.AdjPath(l.imported), graph.DegPath(l.imported), graph.MetaPath(l.imported))
		ores, err := orient.OrientFormat(l.imported, l.imported+".probe", l.cfg.P, graph.FormatPlain)
		if err != nil {
			return err
		}
		ms["orient.io_mb"] = float64(ores.IO.BytesRead+ores.IO.BytesWritten) / 1e6
		ms["orient.max_out_degree"] = float64(ores.MaxOutDegree)
	}
	return nil
}
