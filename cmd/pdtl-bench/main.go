// Command pdtl-bench regenerates the paper's evaluation tables and figures
// (Section V) against the laptop-scale stand-in datasets. Each experiment
// id corresponds to one table or figure; see DESIGN.md §4 for the index.
//
// Usage:
//
//	pdtl-bench -list                 # show available experiments
//	pdtl-bench -exp table2           # run one experiment
//	pdtl-bench -all                  # run everything (minutes)
//	pdtl-bench -all -cache ./cache   # persist generated datasets
//	pdtl-bench -exp fig6 -scan buffered -kernel merge
//	                                 # any experiment under a different
//	                                 # scan source / cone routine
//	pdtl-bench -json -datasets tiny  # machine-readable per-run results
//	                                 # (wall/CPU/IO/worker-imbalance) for
//	                                 # the BENCH_*.json perf trajectory;
//	                                 # schema pdtl-bench/5 emits a count-only
//	                                 # row and a listing row per config, with
//	                                 # word_ops / fast_decodes vectorization
//	                                 # gauges
//	pdtl-bench -json -churn 1000     # live-graph rows instead: count over a
//	                                 # populated delta overlay, then again
//	                                 # after a forced compaction
//	                                 # (delta_edges / compactions fields)
//
// -baseline accepts dataset keys or store base paths, so a smoke job can
// ground-truth a store pdtl-gen just wrote (e.g. `pdtl-gen stream -final`).
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

	"pdtl/internal/graph"
	"pdtl/internal/harness"
	"pdtl/internal/mgt"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiments")
	cache := flag.String("cache", "", "persistent dataset cache directory")
	scanSource := flag.String("scan", "",
		"override the scan source for every experiment: auto, buffered, or shared")
	kernel := flag.String("kernel", "",
		"override the cone routine for every experiment: auto (mark-and-probe) or merge (the paper's two-pointer merge)")
	schedMode := flag.String("sched", "",
		"override the chunk scheduler for every experiment: static or stealing")
	chunks := flag.Int("chunks", 0, "chunks per worker for the stealing scheduler (default 8)")
	store := flag.String("store", "",
		"override the oriented-store encoding for every experiment: plain or compressed")
	jsonOut := flag.Bool("json", false,
		"emit machine-readable per-run results (JSON) instead of the experiment tables")
	baselineOut := flag.Bool("baseline", false,
		"print the exact in-memory baseline triangle count per -datasets dataset "+
			"(independent ground truth for CI smoke cross-checks)")
	datasets := flag.String("datasets", "tiny,twitter-sim",
		"comma-separated dataset keys for -json")
	workers := flag.Int("workers", 4, "worker count for -json runs")
	mem := flag.Int("mem", 0, "memory budget per worker for -json runs (0 = tight default)")
	churn := flag.Int("churn", 0,
		"with -json: apply this many live edge mutations per dataset and report "+
			"delta-overlay and post-compaction rows instead of the static schedulers")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-8s %-14s %s\n", e.ID, e.Paper, e.Desc)
		}
		return
	}
	if !*all && *exp == "" && !*jsonOut && !*baselineOut {
		fmt.Fprintln(os.Stderr, "pdtl-bench: need -exp ID, -all, -json, -baseline, or -list")
		os.Exit(2)
	}
	h, err := harness.New(*cache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-bench:", err)
		os.Exit(1)
	}
	if h.Scan, err = scan.ParseSource(*scanSource); err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-bench:", err)
		os.Exit(2)
	}
	if h.Kernel, err = mgt.ParseKernel(*kernel); err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-bench:", err)
		os.Exit(2)
	}
	if h.Sched, err = sched.ParseMode(*schedMode); err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-bench:", err)
		os.Exit(2)
	}
	if h.StoreFormat, err = graph.ParseFormat(*store); err != nil {
		fmt.Fprintln(os.Stderr, "pdtl-bench:", err)
		os.Exit(2)
	}
	h.Chunks = *chunks
	// SIGINT/SIGTERM cancel the in-flight experiment's runners at their
	// next memory window instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h.Ctx = ctx
	switch {
	case *baselineOut:
		for _, key := range strings.Split(*datasets, ",") {
			var n uint64
			if n, err = h.BaselineCount(key); err != nil {
				break
			}
			fmt.Printf("%s %d\n", key, n)
		}
	case *jsonOut && *churn > 0:
		err = h.BenchChurnJSON(os.Stdout, strings.Split(*datasets, ","), *workers, *mem, *churn)
	case *jsonOut:
		// An explicit -sched narrows the report to that scheduler; the
		// default is one record per scheduler for the ablation trajectory.
		var modes []sched.Mode
		if *schedMode != "" {
			modes = []sched.Mode{h.Sched}
		}
		err = h.BenchJSON(os.Stdout, strings.Split(*datasets, ","), *workers, *mem, modes)
	case *all:
		err = h.RunAll(os.Stdout)
	default:
		err = h.Run(*exp, os.Stdout)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "pdtl-bench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "pdtl-bench:", err)
		os.Exit(1)
	}
}
