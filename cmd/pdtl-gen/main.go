// Command pdtl-gen creates graph stores — synthetic graphs (RMAT, uniform,
// complete, Chung–Lu power law) or conversions from edge-list files — and
// prints their exact triangle counts from the in-memory reference.
//
// Usage:
//
//	pdtl-gen rmat      -out BASE -scale 16 -edgefactor 16 [-seed S] [-format F]
//	pdtl-gen er        -out BASE -n 100000 -m 1000000 [-seed S] [-format F]
//	pdtl-gen complete  -out BASE -n 1000 [-format F]
//	pdtl-gen powerlaw  -out BASE -n 1024 -m 8192 [-exponent E] [-seed S] [-format F]
//	pdtl-gen from-text -out BASE -in edges.txt [-name NAME] [-format F]
//	pdtl-gen from-bin  -out BASE -in edges.bin [-name NAME] [-mem RECORDS] [-format F]
//	pdtl-gen convert   -in BASE -out BASE2 -format plain|compressed
//	pdtl-gen baseline  BASE...
//
// baseline prints "BASE <count>" per undirected store, counted in memory by
// internal/baseline: the ground truth CI's smoke jobs hold engine, cluster
// and service counts to. It refuses an oriented store, which holds each
// edge once. CI's tiny graph is
// `pdtl-gen powerlaw -out tiny -n 1024 -m 8192 -exponent 2.0 -seed 109`
// (11,871 triangles).
//
// Every subcommand takes -format plain|compressed to pick the store's
// adjacency encoding (default plain; compressed is the delta-varint/bitmap
// segment layout). convert re-encodes an existing store — in place when
// -out is omitted or equals -in.
//
// from-bin ingests binary uint32-pair edge files through the
// external-memory pipeline (one pass mirroring every edge into
// radix-sorted runs, a merge of the runs, a deduplicating emit), so inputs
// larger than RAM are fine. SIGINT/SIGTERM cancel an in-flight ingest
// cooperatively — the pipeline stops between record batches and the
// command exits cleanly (run files removed) instead of mid-write,
// matching the cancellation story of the other pdtl commands.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"pdtl"
	"pdtl/internal/baseline"
	"pdtl/internal/graph"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var info pdtl.GraphInfo
	var err error
	switch os.Args[1] {
	case "rmat":
		fs := flag.NewFlagSet("rmat", flag.ExitOnError)
		out := fs.String("out", "", "output store base path")
		scale := fs.Uint("scale", 16, "log2 of the vertex count")
		ef := fs.Int("edgefactor", 16, "edge samples per vertex")
		seed := fs.Int64("seed", 1, "random seed")
		format := formatFlag(fs)
		fs.Parse(os.Args[2:])
		info, err = generate(*out, *format, func() (pdtl.GraphInfo, error) {
			return pdtl.GenerateRMAT(*out, *scale, *ef, *seed)
		})
	case "er":
		fs := flag.NewFlagSet("er", flag.ExitOnError)
		out := fs.String("out", "", "output store base path")
		n := fs.Int("n", 1000, "vertex count")
		m := fs.Int("m", 10000, "edge samples")
		seed := fs.Int64("seed", 1, "random seed")
		format := formatFlag(fs)
		fs.Parse(os.Args[2:])
		info, err = generate(*out, *format, func() (pdtl.GraphInfo, error) {
			return pdtl.GenerateErdosRenyi(*out, *n, *m, *seed)
		})
	case "complete":
		fs := flag.NewFlagSet("complete", flag.ExitOnError)
		out := fs.String("out", "", "output store base path")
		n := fs.Int("n", 100, "vertex count")
		format := formatFlag(fs)
		fs.Parse(os.Args[2:])
		info, err = generate(*out, *format, func() (pdtl.GraphInfo, error) {
			return pdtl.GenerateComplete(*out, *n)
		})
	case "powerlaw":
		fs := flag.NewFlagSet("powerlaw", flag.ExitOnError)
		out := fs.String("out", "", "output store base path")
		n := fs.Int("n", 1000, "vertex count")
		m := fs.Int("m", 10000, "edge samples")
		exponent := fs.Float64("exponent", 2.0, "power-law exponent (lower = heavier tail)")
		seed := fs.Int64("seed", 1, "random seed")
		format := formatFlag(fs)
		fs.Parse(os.Args[2:])
		info, err = generate(*out, *format, func() (pdtl.GraphInfo, error) {
			return pdtl.GeneratePowerLaw(*out, *n, *m, *exponent, *seed)
		})
	case "baseline":
		if len(os.Args) < 3 {
			usage()
			os.Exit(2)
		}
		for _, base := range os.Args[2:] {
			var n uint64
			if n, err = baselineCount(base); err != nil {
				break
			}
			fmt.Printf("%s %d\n", base, n)
		}
		if err == nil {
			return
		}
	case "from-text":
		fs := flag.NewFlagSet("from-text", flag.ExitOnError)
		out := fs.String("out", "", "output store base path")
		in := fs.String("in", "", "input text edge list")
		name := fs.String("name", "imported", "dataset name")
		format := formatFlag(fs)
		fs.Parse(os.Args[2:])
		info, err = importText(*out, *in, *name)
		if err == nil {
			info, err = reencode(*out, *format)
		}
	case "from-bin":
		fs := flag.NewFlagSet("from-bin", flag.ExitOnError)
		out := fs.String("out", "", "output store base path")
		in := fs.String("in", "", "input binary edge file (uint32 pairs)")
		name := fs.String("name", "imported", "dataset name")
		mem := fs.Int("mem", 1<<22, "records held in memory while sorting, scratch included")
		format := formatFlag(fs)
		fs.Parse(os.Args[2:])
		if *out == "" || *in == "" {
			err = fmt.Errorf("-out and -in are required")
		} else {
			// Signal wiring is scoped to from-bin, the one subcommand whose
			// pipeline honors a context: a process-wide NotifyContext would
			// swallow SIGINT for the generators too, leaving them
			// uninterruptible (the default signal behavior — immediate
			// exit — is right for them).
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			info, err = pdtl.ImportEdgeFileBinaryFormat(ctx, *in, *out, *name, *mem, *format)
			stop()
		}
	case "convert":
		fs := flag.NewFlagSet("convert", flag.ExitOnError)
		in := fs.String("in", "", "input store base path")
		out := fs.String("out", "", "output store base path (default: convert in place)")
		format := fs.String("format", "", "target store format: plain or compressed (required)")
		fs.Parse(os.Args[2:])
		switch {
		case *in == "":
			err = fmt.Errorf("-in is required")
		case *format == "":
			err = fmt.Errorf("-format is required")
		default:
			dst := *out
			if dst == "" {
				dst = *in
			}
			info, err = pdtl.ConvertStoreFormat(*in, dst, *format)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "pdtl-gen: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "pdtl-gen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d vertices, %d edges, avg degree %.1f, max degree %d\n",
		info.Name, info.NumVertices, info.NumEdges, info.AvgDegree, info.MaxDegree)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pdtl-gen rmat      -out BASE -scale S -edgefactor F [-seed SEED] [-format F]
  pdtl-gen er        -out BASE -n N -m M [-seed SEED] [-format F]
  pdtl-gen complete  -out BASE -n N [-format F]
  pdtl-gen powerlaw  -out BASE -n N -m M [-exponent E] [-seed SEED] [-format F]
  pdtl-gen from-text -out BASE -in edges.txt [-name NAME] [-format F]
  pdtl-gen from-bin  -out BASE -in edges.bin [-name NAME] [-mem RECORDS] [-format F]
  pdtl-gen convert   -in BASE [-out BASE2] -format plain|compressed
  pdtl-gen baseline  BASE...
-format F is plain (default) or compressed (delta-varint/bitmap segments)`)
}

func formatFlag(fs *flag.FlagSet) *string {
	return fs.String("format", "plain", "store format: plain or compressed")
}

func generate(out, format string, fn func() (pdtl.GraphInfo, error)) (pdtl.GraphInfo, error) {
	if out == "" {
		return pdtl.GraphInfo{}, fmt.Errorf("-out is required")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return pdtl.GraphInfo{}, err
	}
	info, err := fn()
	if err != nil {
		return info, err
	}
	return reencode(out, format)
}

// reencode converts a freshly written plain store in place when a
// non-plain format was requested.
func reencode(base, format string) (pdtl.GraphInfo, error) {
	if format == "" || format == "plain" {
		return pdtl.Info(base)
	}
	return pdtl.ConvertStoreFormat(base, base, format)
}

func importText(out, in, name string) (pdtl.GraphInfo, error) {
	if out == "" || in == "" {
		return pdtl.GraphInfo{}, fmt.Errorf("-out and -in are required")
	}
	f, err := os.Open(in)
	if err != nil {
		return pdtl.GraphInfo{}, err
	}
	defer f.Close()
	return pdtl.ImportEdgeListText(f, out, name)
}

// baselineCount is the exact triangle count of the undirected store at base,
// computed in memory by the reference implementation (internal/baseline).
func baselineCount(base string) (uint64, error) {
	d, err := graph.Open(base)
	if err != nil {
		return 0, err
	}
	if d.Meta.Oriented {
		// The reference orients the undirected graph itself; an oriented
		// store holds each edge once and would count a different graph.
		return 0, fmt.Errorf("store %s is oriented, the baseline needs the undirected graph", base)
	}
	g, err := d.LoadCSR()
	if err != nil {
		return 0, err
	}
	return baseline.Forward(g), nil
}
