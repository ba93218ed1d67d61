package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pdtl"
	"pdtl/internal/graph"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
)

// dist is a set-up copy of a distributed workload: the bench process is the
// master (node 0, one worker) and one real pdtl-worker subprocess on
// loopback is node 1 (one worker). Every op runs the whole protocol — copy,
// dispatch, remote calc, fold — as the cluster layer does it today.
type dist struct {
	cfg    *runConfig
	in     inputGraph
	base   string
	g      *pdtl.Graph
	worker *child
	addr   string
	opt    pdtl.ClusterOptions

	last     *pdtl.ClusterResult
	lastWall time.Duration
	lastTr   *obs.Trace
}

func newDist(ctx context.Context, cfg *runConfig, man *manifest, dir string) (instance, error) {
	d := &dist{cfg: cfg, in: man.Graphs[0], base: filepath.Join(dir, "g.oriented")}
	d.opt = pdtl.ClusterOptions{Workers: 1, Sched: "static"}
	if cfg.Workload.Name == wDistSteal {
		d.opt.Sched = "stealing"
	}
	if _, err := orient.OrientFormat(d.in.Path, d.base, cfg.P, graph.FormatPlain); err != nil {
		return nil, fmt.Errorf("pre-orient: %w", err)
	}
	var err error
	if d.g, err = pdtl.Open(d.base); err != nil {
		return nil, err
	}
	wdir := filepath.Join(dir, "worker")
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return nil, err
	}
	if d.addr, err = freeLoopbackAddr(); err != nil {
		return nil, err
	}
	d.worker, err = startChild(cfg.P, false, filepath.Join(cfg.BinDir, "pdtl-worker"), "-addr", d.addr, "-dir", wdir, "-name", "w1")
	if err != nil {
		return nil, err
	}
	if err := waitTCP(ctx, d.worker, d.addr); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *dist) pids() []int { return []int{d.worker.pid()} }

func (d *dist) close() {
	if d.worker != nil {
		d.worker.stop()
	}
	d.g.Close()
}

func (d *dist) op(ctx context.Context, rec *recorder, parent int) (opResult, error) {
	var err error
	d.lastWall, d.lastTr, err = spanned(ctx, rec, parent, "pdtl.CountDistributed", func(ctx context.Context) (err error) {
		d.last, err = d.g.CountDistributed(ctx, []string{d.addr}, d.opt)
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	res := d.last

	out := opResult{Attempted: 1}
	for _, n := range res.Nodes {
		out.IOBytes += n.SourceBytesRead
		for _, w := range n.Workers {
			out.IOBytes += w.BytesRead
		}
	}
	if res.Triangles != d.in.Triangles {
		fmt.Fprintf(os.Stderr, "bench: %s: counted %d triangles, baseline says %d\n", d.cfg.Workload.Name, res.Triangles, d.in.Triangles)
		out.Failed = 1
	}
	return out, nil
}

func (d *dist) layers(ctx context.Context, ms metricSet) error {
	res := d.last
	ms["dist_net_mb"] = float64(res.NetworkBytes) / 1e6
	var copyMax time.Duration
	var copyBytes int64
	var calcs []float64
	for _, n := range res.Nodes {
		if n.CopyTime > copyMax {
			copyMax = n.CopyTime
		}
		copyBytes += n.CopyBytes
		calcs = append(calcs, n.CalcTime.Seconds())
	}
	calcMax := 0.0
	for _, c := range calcs {
		if c > calcMax {
			calcMax = c
		}
	}
	ms["cluster.copy_s"] = copyMax.Seconds()
	ms["cluster.copy_mb"] = float64(copyBytes) / 1e6
	ms["cluster.node_calc_max_s"] = calcMax
	ms["cluster.node_imbalance"] = maxOverMean(calcs)
	ms["cluster.overhead_s"] = d.lastWall.Seconds() - copyMax.Seconds() - calcMax
	ms["cluster.failures"] = float64(len(res.Failures))
	batches := 0
	for _, sp := range d.lastTr.Spans() {
		if sp.Name == obs.SpanDispatch {
			batches++
		}
	}
	ms["cluster.batches"] = float64(batches)
	traceLayers(ms, d.lastTr)
	_, err := probeStore(ms, d.base, 2) // the global plan: two nodes × one worker
	return err
}
