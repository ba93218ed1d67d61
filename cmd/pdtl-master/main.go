// Command pdtl-master runs the distributed PDTL protocol: it orients the
// input graph, replicates the oriented store to every worker, assigns each
// worker its processors' contiguous edge ranges, and sums the results
// (Section IV-B of the paper).
//
// Usage:
//
//	pdtl-master -graph path/to/store -nodes host1:7100,host2:7100 \
//	            [-workers P] [-mem ENTRIES] [-uplink BYTES/S] [-list out.bin]
//
// The master participates as node 0. With no -nodes it runs the protocol
// locally. SIGINT/SIGTERM cancel the run cooperatively: local runners stop
// at their next memory window, in-flight replica copies stop at the next
// chunk, and remote nodes are told to abandon their calculation.
//
// Worker failure mid-run is survived: the dead worker's share is
// reassigned to the survivors (or the master itself), bounded by
// -max-retries, and the recovered failures are printed in a "failures:"
// section — the run's count and listing stay exact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pdtl"
	"pdtl/internal/obs"
)

func main() {
	graphBase := flag.String("graph", "", "graph store base path (required)")
	nodes := flag.String("nodes", "", "comma-separated worker addresses")
	workers := flag.Int("workers", 1, "processors per node")
	mem := flag.Int("mem", 0, "memory budget per processor, in adjacency entries")
	uplink := flag.Int64("uplink", 0, "master uplink rate limit in bytes/s (0 = unlimited)")
	naive := flag.Bool("naive-balance", false, "disable in-degree load balancing")
	scanSource := flag.String("scan", "auto",
		"per-node layout: auto (a node's workers share one window and are dealt the scan) or buffered (one range and one private window per worker)")
	store := flag.String("store", "",
		"oriented-store encoding built and replicated to workers: plain or compressed (default plain; already-oriented input is replicated as-is)")
	schedMode := flag.String("sched", "static",
		"chunk scheduler: static (pre-split plan, the paper's) or stealing (master dispenses chunk batches on demand)")
	chunks := flag.Int("chunks", 0, "chunks per processor for -sched stealing (default 8)")
	maxRetries := flag.Int("max-retries", 0,
		"reassignments allowed per work unit after a worker failure (0 = default 2, negative = fail fast on the first failure)")
	heartbeat := flag.Duration("heartbeat", 0,
		"worker liveness ping interval (0 = default 2s, negative = disabled); a worker missing 3 pings is declared dead and its work reassigned")
	list := flag.String("list", "", "write triangle listing to this file")
	tracePath := flag.String("trace", "", "write the run's merged phase trace (Chrome trace_event JSON, worker spans included) to this file")
	logFormat := flag.String("log-format", "text", "structured log format on stderr: text or json")
	flag.Parse()

	if *graphBase == "" {
		fmt.Fprintln(os.Stderr, "pdtl-master: -graph is required")
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-master:", err)
		os.Exit(2)
	}
	var addrs []string
	if *nodes != "" {
		addrs = strings.Split(*nodes, ",")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Worker failures are slog'd the moment the fault-tolerance layer sees
	// them (stderr, so stdout's triangles:/failures: report stays clean);
	// the trace cursor rides the same context into the cluster layer.
	var tr *obs.Trace
	if *tracePath != "" {
		tr = obs.NewTrace(0)
		ctx = obs.ContextWithCursor(ctx, obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
	}
	g, err := pdtl.Open(*graphBase)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-master:", err)
		os.Exit(1)
	}
	defer g.Close()
	res, err := g.CountDistributed(ctx, addrs, pdtl.ClusterOptions{
		Log:               logger,
		Workers:           *workers,
		MemEdges:          *mem,
		NaiveBalance:      *naive,
		UplinkBytesPerSec: *uplink,
		ScanSource:        *scanSource,
		StoreFormat:       *store,
		Sched:             *schedMode,
		Chunks:            *chunks,
		MaxRetries:        *maxRetries,
		HeartbeatInterval: *heartbeat,
		List:              *list != "",
		ListPath:          *list,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "pdtl-master: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "pdtl-master:", err)
		os.Exit(1)
	}
	fmt.Printf("triangles: %d\n", res.Triangles)
	fmt.Printf("orientation: %v  calculation: %v  total: %v\n", res.OrientTime, res.CalcTime, res.TotalTime)
	fmt.Printf("network: %d bytes across %d nodes\n", res.NetworkBytes, len(res.Nodes))
	for i, n := range res.Nodes {
		fmt.Printf("  node %d (%s @ %s): triangles %d calc %v copy %v (%d bytes) cpu %v io %v\n",
			i, n.Name, n.Addr, n.Triangles, n.CalcTime, n.CopyTime, n.CopyBytes, n.CPUTime, n.IOTime)
	}
	if len(res.Failures) > 0 {
		fmt.Printf("failures: %d (worker failures recovered; results are exact)\n", len(res.Failures))
		for _, f := range res.Failures {
			unit := "pre-calculation (dial/handshake/copy)"
			if f.Chunk >= 0 {
				unit = fmt.Sprintf("work unit at plan index %d (%d ranges)", f.Chunk, f.Ranges)
			}
			fmt.Printf("  node %d (%s @ %s): %s, retries %d: %s\n",
				f.Slot, f.Node, f.Addr, unit, f.Retries, f.Err)
		}
	}
	if *list != "" {
		fmt.Printf("listing: %s\n", *list)
	}
	if tr != nil {
		if err := tr.WriteFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "pdtl-master:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s (%d spans, %d dropped)\n", *tracePath, len(tr.Spans()), tr.Dropped())
	}
}
