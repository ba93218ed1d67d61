// Command pdtl-serve runs the resident triangle query service: a registry
// of named, long-lived graph handles behind an HTTP/JSON API, with an
// admission controller bounding concurrent engine runs and a memoizing
// result cache with per-graph single-flight (see internal/service and
// DESIGN.md §8).
//
// Usage:
//
//	pdtl-serve -addr :7200 -graph lj=/data/lj -graph tw=/data/twitter
//	pdtl-serve -addr :7200 -slots 4 -queue 64 -max-graphs 8
//	pdtl-serve -addr :7200 -cluster node1:7100,node2:7100
//	                                # enables ?distributed=1 counts
//	pdtl-serve -addr :7200 -live -compact-edges 100000 -graph lj=/data/lj
//	                                # mutable graphs: POST …/edges applies
//	                                # batched inserts/deletes (DESIGN.md §11)
//
// Endpoints:
//
//	POST   /v1/graphs                      register {"name":..., "base":..., "live":...}
//	GET    /v1/graphs                      list registered graphs
//	GET    /v1/graphs/{name}               one graph's status
//	DELETE /v1/graphs/{name}               evict (close) a graph
//	GET    /v1/graphs/{name}/count        exact count (?workers= &mem=
//	                                       &store= &timeout= &distributed=,
//	                                       and with it &sched= &chunks=)
//	GET    /v1/graphs/{name}/triangles    NDJSON stream (?limit=)
//	GET    /v1/graphs/{name}/degrees      per-vertex triangle counts (?top=)
//	POST   /v1/graphs/{name}/estimate     the exact default count, static
//	                                       or live (the cache slot of a bare
//	                                       …/count)
//	POST   /v1/graphs/{name}/edges        apply a mutation batch to a live
//	                                       graph {"insert":[[u,v],...],"delete":[...]}
//	POST   /v1/graphs/{name}/compact      fold the delta into a fresh snapshot
//	GET    /healthz                        liveness (503 while draining)
//	GET    /metrics                        plain-text counters and gauges
//
// SIGINT/SIGTERM start a graceful drain: queued requests are shed with
// 503s, in-flight engine runs (including streaming listings) are cancelled
// through the engine's context plumbing, and the process exits once every
// handler has returned or the drain timeout expires.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pdtl"
	"pdtl/internal/obs"
	"pdtl/internal/service"
)

// graphFlags collects repeated -graph name=path arguments.
type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ",") }
func (g *graphFlags) Set(v string) error {
	*g = append(*g, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":7200", "HTTP listen address")
	slots := flag.Int("slots", 0, "concurrent engine-run slots (0 = CPU count)")
	queue := flag.Int("queue", 32, "requests allowed to wait for a run slot (-1 = none)")
	maxGraphs := flag.Int("max-graphs", 16, "open graph handles kept (LRU eviction past this)")
	workers := flag.Int("workers", 0, "default worker count per run (0 = CPU count)")
	mem := flag.Int("mem", 0, "default per-worker memory budget in adjacency entries (0 = engine default)")
	cluster := flag.String("cluster", "", "comma-separated PDTL worker node addresses for ?distributed=1 counts")
	clusterRetries := flag.Int("cluster-retries", 0,
		"reassignments allowed per work unit after a worker failure in distributed counts (0 = default 2, negative = fail fast)")
	clusterHeartbeat := flag.Duration("cluster-heartbeat", 0,
		"worker liveness ping interval for distributed counts (0 = default 2s, negative = disabled)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown timeout")
	live := flag.Bool("live", false, "register graphs as mutable delta overlays (enables POST …/edges and …/compact)")
	compactEdges := flag.Int("compact-edges", 0,
		"auto-compact a live graph once its delta holds this many edge mutations (0 = manual compaction only)")
	liveDir := flag.String("live-dir", "", "directory for compacted live snapshots (default: next to each store)")
	liveFormat := flag.String("live-format", "", "on-disk format for compacted snapshots: plain or compressed (default plain)")
	debugAddr := flag.String("debug-addr", "", "optional listen address exposing /debug/pprof (disabled when empty)")
	logFormat := flag.String("log-format", "text", "structured log format on stderr: text or json")
	var graphs graphFlags
	flag.Var(&graphs, "graph", "pre-register a graph as name=storepath (repeatable)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-serve:", err)
		os.Exit(2)
	}
	if *debugAddr != "" {
		bound, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdtl-serve:", err)
			os.Exit(1)
		}
		logger.Info("debug server listening", "addr", bound)
	}

	cfg := service.Config{
		Log:        logger,
		MaxGraphs:  *maxGraphs,
		RunSlots:   *slots,
		QueueDepth: *queue,
		Defaults:   pdtl.Options{Workers: *workers, MemEdges: *mem},
		Live:       *live,
		LiveDefaults: pdtl.LiveOptions{
			Dir:          *liveDir,
			CompactEdges: *compactEdges,
			StoreFormat:  *liveFormat,
			MemEdges:     *mem,
			Workers:      *workers,
		},
	}
	if *cluster != "" {
		cfg.ClusterAddrs = strings.Split(*cluster, ",")
		cfg.ClusterDefaults = pdtl.ClusterOptions{
			Workers:           *workers,
			MemEdges:          *mem,
			MaxRetries:        *clusterRetries,
			HeartbeatInterval: *clusterHeartbeat,
		}
	}
	svc := service.New(cfg)
	for _, spec := range graphs {
		name, base, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "pdtl-serve: bad -graph %q (want name=storepath)\n", spec)
			os.Exit(2)
		}
		if err := svc.RegisterGraph(name, base); err != nil {
			fmt.Fprintf(os.Stderr, "pdtl-serve: register %s: %v\n", name, err)
			os.Exit(1)
		}
		mode := ""
		if *live {
			mode = " (live)"
		}
		fmt.Printf("pdtl-serve: registered %q from %s%s\n", name, base, mode)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("pdtl-serve: listening on %s (%d graphs, %s run slots)\n",
		*addr, len(graphs), slotsLabel(*slots))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "pdtl-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: shed queued work with 503s, cancel in-flight engine runs, then
	// close the listener once the handlers have returned.
	fmt.Println("pdtl-serve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-serve: drain incomplete:", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
	}
	fmt.Println("pdtl-serve: stopped")
}

func slotsLabel(n int) string {
	if n <= 0 {
		return "CPU-count"
	}
	return fmt.Sprint(n)
}
