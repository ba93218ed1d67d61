// Command pdtl counts or lists triangles of an on-disk graph store on a
// single machine, the local entry point of the PDTL framework.
//
// Usage:
//
//	pdtl count -graph path/to/store [-workers P] [-mem M] [-naive-balance]
//	pdtl list  -graph path/to/store -out triangles.bin [-workers P] [-mem M]
//	pdtl info  -graph path/to/store
//
// The graph store is the three-file binary layout produced by pdtl-gen (or
// the pdtl library's Generate/Import functions). Unoriented stores are
// oriented automatically; the oriented store is left next to the input for
// reuse. SIGINT/SIGTERM cancel the run cooperatively: the workers stop at
// their next memory window and the command exits cleanly instead of
// mid-write.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"pdtl"
	"pdtl/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "count":
		err = runCount(ctx, os.Args[2:])
	case "list":
		err = runList(ctx, os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "pdtl: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "pdtl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pdtl count -graph BASE [-workers P] [-mem ENTRIES] [-naive-balance]
             [-scan auto|buffered] [-kernel auto|merge]
             [-store plain|compressed] [-trace FILE]
  pdtl list  -graph BASE -out FILE [-workers P] [-mem ENTRIES] [-naive-balance]
             [-scan auto|buffered] [-kernel auto|merge]
             [-store plain|compressed] [-trace FILE]
  pdtl info  -graph BASE`)
}

func commonFlags(fs *flag.FlagSet) (graphBase *string, opt *pdtl.Options) {
	opt = &pdtl.Options{}
	graphBase = fs.String("graph", "", "graph store base path (required)")
	fs.IntVar(&opt.Workers, "workers", 0, "parallel workers (default: CPUs)")
	fs.IntVar(&opt.MemEdges, "mem", 0, "memory budget per worker, in adjacency entries")
	fs.BoolVar(&opt.NaiveBalance, "naive-balance", false, "split the ranges of -scan buffered equally instead of by in-degree")
	fs.StringVar(&opt.ScanSource, "scan", "auto",
		"layout: auto (the workers share one window of workers·mem entries and are dealt the scan) or buffered (the paper's layout: one range and one private window of mem entries per worker)")
	fs.StringVar(&opt.Kernel, "kernel", "auto",
		"cone routine: auto (mark N(u) once, probe every in-memory list) or merge (the paper's pairwise two-pointer merge)")
	fs.StringVar(&opt.StoreFormat, "store", "plain",
		"oriented-store format when orienting: plain or compressed")
	return graphBase, opt
}

// withTrace attaches a run trace to ctx when -trace was given; the
// returned flush writes it out after the run.
func withTrace(ctx context.Context, path string) (context.Context, func() error) {
	if path == "" {
		return ctx, func() error { return nil }
	}
	tr := obs.NewTrace(0)
	ctx = obs.ContextWithCursor(ctx, obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
	return ctx, func() error {
		if err := tr.WriteFile(path); err != nil {
			return err
		}
		fmt.Printf("trace: %s (%d spans, %d dropped)\n", path, len(tr.Spans()), tr.Dropped())
		return nil
	}
}

func runCount(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	graphBase, opt := commonFlags(fs)
	tracePath := fs.String("trace", "", "write the run's phase trace (Chrome trace_event JSON) to this file")
	fs.Parse(args)
	if *graphBase == "" {
		return fmt.Errorf("-graph is required")
	}
	g, err := pdtl.Open(*graphBase)
	if err != nil {
		return err
	}
	defer g.Close()
	ctx, flushTrace := withTrace(ctx, *tracePath)
	res, err := g.Count(ctx, *opt)
	if err != nil {
		return err
	}
	printResult(res)
	return flushTrace()
}

func runList(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	graphBase, opt := commonFlags(fs)
	out := fs.String("out", "", "output file for binary triangle triples (required)")
	tracePath := fs.String("trace", "", "write the run's phase trace (Chrome trace_event JSON) to this file")
	fs.Parse(args)
	if *graphBase == "" || *out == "" {
		return fmt.Errorf("-graph and -out are required")
	}
	g, err := pdtl.Open(*graphBase)
	if err != nil {
		return err
	}
	defer g.Close()
	ctx, flushTrace := withTrace(ctx, *tracePath)
	// ListFile writes through a temp file renamed into place, so an
	// interrupted listing never leaves a truncated file under the
	// requested name.
	res, err := g.ListFile(ctx, *out, *opt)
	if err != nil {
		return err
	}
	printResult(res)
	fmt.Printf("listing: %s (12 bytes per triangle)\n", *out)
	return flushTrace()
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	graphBase := fs.String("graph", "", "graph store base path (required)")
	fs.Parse(args)
	if *graphBase == "" {
		return fmt.Errorf("-graph is required")
	}
	g, err := pdtl.Open(*graphBase)
	if err != nil {
		return err
	}
	defer g.Close()
	info := g.Info()
	fmt.Printf("name:          %s\n", info.Name)
	fmt.Printf("vertices:      %d\n", info.NumVertices)
	fmt.Printf("edges:         %d\n", info.NumEdges)
	fmt.Printf("avg degree:    %.2f\n", info.AvgDegree)
	fmt.Printf("std degree:    %.2f\n", info.StdDegree)
	fmt.Printf("max degree:    %d\n", info.MaxDegree)
	fmt.Printf("oriented:      %v\n", info.Oriented)
	if info.Oriented {
		fmt.Printf("max outdegree: %d\n", info.MaxOutDegree)
	}
	fmt.Printf("ranked:        %v\n", info.Ranked)
	return nil
}

func printResult(res *pdtl.Result) {
	fmt.Printf("triangles: %d\n", res.Triangles)
	fmt.Printf("orientation: %v  calculation: %v  total: %v\n",
		res.OrientTime, res.CalcTime, res.TotalTime)
	// auto: the shared windows' loads; buffered: 0, the workers' own.
	fmt.Printf("scan source: %s (%d bytes read by the source)\n", res.ScanSource, res.SourceBytesRead)
	passes := make([]string, len(res.Workers))
	for i, w := range res.Workers {
		passes[i] = strconv.Itoa(w.Passes)
	}
	fmt.Printf("plan: windows=%d mem_edges=%d  passes per runner: %s\n",
		res.Windows, res.MemEdges, strings.Join(passes, " "))
	for _, w := range res.Workers {
		fmt.Printf("  worker %d: edges [%d,%d) chunks %d triangles %d passes %d cpu %v io %v\n",
			w.Worker, w.EdgeLo, w.EdgeHi, w.Chunks, w.Triangles, w.Passes, w.CPUTime, w.IOTime)
	}
}
