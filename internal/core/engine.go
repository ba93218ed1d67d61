// Package core is the PDTL engine of Section IV-B: the paper's primary
// contribution. It ties the substrates together on one machine —
// orientation (once), load balancing, and P concurrent modified-MGT runners
// over contiguous edge ranges — and exposes the per-worker accounting that
// the distributed layer and the paper-claims ledger (ledger_test.go) read.
//
// The distributed framework (package cluster) reuses this engine verbatim
// on every node: a node is just an engine fed externally computed ranges,
// which is exactly the paper's design ("every available processor is
// allocated a (contiguous) set of edges S, and is responsible for finding
// all triangles in the graph which contain pivot edges in S, by using
// MGT").
package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
)

// Options parameterize a local PDTL run.
type Options struct {
	// Workers is P, the number of concurrent MGT runners. Non-positive
	// selects runtime.NumCPU().
	Workers int
	// MemEdges is M, the per-worker memory budget in adjacency entries.
	// Non-positive selects DefaultMemEdges.
	MemEdges int
	// Strategy selects the load balancer of the paper's layout's ranges
	// (PlanFor). The zero value is Naive, the "w/o LB" ablation the ledger
	// compares with the paper's InDegree; cooperative windows split
	// nothing and ignore it.
	Strategy balance.Strategy
	// Sinks, when non-nil, must have one entry per runner (Runners); runner
	// i streams the triangles it finds to Sinks[i], in no order across
	// runners. Nil, with Out nil too, means counting only: the same cone
	// routine, the same count and steps, no triangle reported.
	Sinks []mgt.Sink
	// Out, when non-nil, receives the listing — 12-byte little-endian
	// triples — in an order that does not depend on timing (mgt.Listing):
	// range by range under a named source; under the default source what
	// one runner with a window of Workers·MemEdges entries lists, whatever
	// Workers is. Runners ahead of the output hold what they list in a
	// bounded amount of memory, and wait when it is full. Sinks must then be
	// nil.
	Out io.Writer
	// IDs, when non-nil, renames the vertices for Sinks and Out: they hear
	// of vertex u as IDs[u]. Execute sets it to a ranked store's Perm, so
	// that users see original ids; a cluster node leaves it nil and its
	// master maps what the nodes send back.
	IDs []graph.Vertex
	// KeepOriented leaves the oriented store on disk after the run (the
	// cluster layer relies on this to copy it to clients).
	KeepOriented bool
	// Scan selects the layout. The default (scan.SourceAuto, or empty) is
	// cooperative windows: the Workers runners share one window of
	// Workers·MemEdges entries and are dealt the cone blocks of every round
	// (mgt.RunDealt). scan.SourceBuffered is the paper's layout — one runner
	// per range, each a one-runner dealt run with its own MemEdges-entry
	// window (mgt.Runner); the ledger and the engine's tests select it, and
	// no public option does.
	Scan scan.SourceKind
	// Store selects the on-disk format of the oriented store the engine
	// builds when its input is unoriented (empty means graph.FormatPlain).
	// An already-oriented input is used in whatever format it is in — the
	// calculation phase is format-agnostic.
	Store graph.Format
	// Held, when non-nil, is the window the default source's runners load
	// every round into and leave loaded (mgt.DealConfig.Held): a cluster
	// node keeps one per replica. The run must have it to itself.
	Held *mgt.Window
}

// DefaultMemEdges is 1<<22 entries = 16 MiB per worker, the same order as
// the paper's 1 GB/core scaled to laptop-size datasets.
const DefaultMemEdges = 1 << 22

// WithDefaults resolves o's defaults: Workers to the CPU count, MemEdges to
// DefaultMemEdges.
func (o Options) WithDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.MemEdges <= 0 {
		o.MemEdges = DefaultMemEdges
	}
	return o
}

// WorkerStat is one runner's outcome. Under a named source Range is the
// runner's one range and Chunks is 1; a runner of a cooperative window took
// part in every span of the run, so Range is their hull and Chunks their
// number. The distributed master folds a node's batches by worker index, so
// across batches both accumulate (sched.Ledger).
type WorkerStat struct {
	Worker int
	Range  balance.Range
	Chunks int
	mgt.Stats
}

// Result is the outcome of a local PDTL run.
type Result struct {
	// Triangles is the exact triangle count.
	Triangles uint64
	// Orientation describes the preprocessing step; nil when the input was
	// already oriented.
	Orientation *orient.Result
	// Plan is the load-balancing assignment used.
	Plan balance.Plan
	// Workers holds per-runner statistics.
	Workers []WorkerStat
	// PlanTime is the load-balance planning slice of the calculation
	// phase (in-degree load + range/chunk splitting) — the per-phase wall
	// breakdown the bench schema reports.
	PlanTime time.Duration
	// CalcTime is the calculation phase: load balancing plus the slowest
	// runner (the "struggler" that the paper says determines overall
	// calculation time).
	CalcTime time.Duration
	// TotalTime is orientation + calculation.
	TotalTime time.Duration
	// OrientedBase is the path of the oriented store used.
	OrientedBase string
	// SourceIO is the I/O that is no runner's own: under the default source,
	// the loads of the windows the runners share; zero under the paper's
	// layout, whose runners each load their own.
	SourceIO ioacct.Stats
}

// TotalStats sums the runner statistics (Wall is the straggler max) plus
// the source-level I/O, so total byte volumes are comparable across scan
// sources.
func (r *Result) TotalStats() mgt.Stats {
	var total mgt.Stats
	for _, w := range r.Workers {
		total = total.Add(w.Stats)
	}
	total.IO = total.IO.Add(r.SourceIO)
	return total
}

// Process counts (or lists) the triangles of the graph stored at base.
// Unoriented inputs are oriented first into base+".oriented" (the paper's
// master-side preprocessing); oriented inputs go straight to the
// calculation phase. Cancelling ctx aborts the run within one memory window
// per runner and returns ctx.Err(); nil means context.Background().
func Process(ctx context.Context, base string, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.WithDefaults()
	//pdtl:nondeterministic-ok wall-clock feeds Result timing stats only, never listing order
	start := time.Now()
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	var ores *orient.Result
	if !d.Meta.Oriented {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		format, err := graph.ParseFormat(string(opt.Store))
		if err != nil {
			return nil, err
		}
		cur := obs.CursorFrom(ctx)
		osp := cur.Begin(obs.SpanOrient)
		ores, err = orient.OrientFormat(base, base+".oriented", opt.Workers, format)
		cur.End(osp)
		if err != nil {
			return nil, err
		}
		if d, err = graph.Open(base + ".oriented"); err != nil {
			return nil, err
		}
	}
	res, err := Execute(ctx, d, opt)
	if err != nil {
		return nil, err
	}
	res.Orientation = ores
	res.TotalTime = time.Since(start) //pdtl:nondeterministic-ok timing stat only
	return res, nil
}

// Execute is the calculation phase of a run over the oriented store d: the
// plan (LocalPlan) under a plan span that the plan explains, then RunRanges
// under a calc span, folded into a Result (TotalTime is CalcTime; a caller
// that oriented adds its own). The spans hang under ctx's cursor. A run
// that hands triangles out (Sinks or Out) hands out d's original ids.
// Process and the public handle both calculate here.
func Execute(ctx context.Context, d *graph.Disk, opt Options) (*Result, error) {
	if opt.Sinks != nil || opt.Out != nil {
		var err error
		if opt.IDs, err = d.Perm(); err != nil {
			return nil, err
		}
	}
	cur := obs.CursorFrom(ctx)
	//pdtl:nondeterministic-ok wall-clock feeds Result timing stats only, never listing order
	start := time.Now()
	psp := cur.Begin(obs.SpanPlan)
	p, err := LocalPlan(d, d.Base, opt)
	p.Explain(cur, psp)
	cur.End(psp)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Plan:         p,
		PlanTime:     time.Since(start), //pdtl:nondeterministic-ok timing stat only
		OrientedBase: d.Base,
	}
	csp := cur.Begin(obs.SpanCalc)
	calcCtx := ctx
	if cur.T != nil {
		calcCtx = obs.ContextWithCursor(ctx, cur.Child(csp))
	}
	calc, err := RunRanges(calcCtx, d, p.Ranges, opt)
	cur.End(csp)
	if err != nil {
		return nil, err
	}
	res.Workers, res.SourceIO = calc.Workers, calc.SourceIO
	for _, w := range calc.Workers {
		res.Triangles += w.Stats.Triangles
	}
	res.CalcTime = time.Since(start) //pdtl:nondeterministic-ok timing stat only
	res.TotalTime = res.CalcTime
	return res, nil
}

// LocalPlan is the plan of a single-machine run of opt over the oriented
// store d. Cooperative windows (the default source) need no cost model: the
// whole store is one range, covered by ⌈|E*|/(P·M)⌉ windows of P·M entries,
// and the plan only says so — the windows a stealing cluster master cuts its
// units from, too. A named source runs the paper's layout, one PlanFor range
// per worker, bound to its runner when the run starts.
func LocalPlan(d *graph.Disk, orientedBase string, opt Options) (balance.Plan, error) {
	opt = opt.WithDefaults()
	if !opt.Scan.IsAuto() {
		return PlanFor(d, orientedBase, opt)
	}
	total := d.Meta.AdjEntries
	window := max(min(uint64(opt.Workers)*uint64(opt.MemEdges), total), 1)
	return balance.Plan{
		Ranges:    []balance.Range{{Lo: 0, Hi: total}},
		Strategy:  opt.Strategy,
		MemEdges:  window,
		Windows:   max((total+window-1)/window, 1),
		ScanUnits: 1,
		Ranked:    d.Meta.Ranked,
	}, nil
}

// PlanFor computes the ranges a run of opt over the oriented store d hands
// to runners with private windows of opt.MemEdges entries
// (balance.PlanStore): one per worker. The distributed master's static
// schedule calls it with Workers = N·P to compute the global plan centrally
// (Section IV-B1).
func PlanFor(d *graph.Disk, orientedBase string, opt Options) (balance.Plan, error) {
	if opt.MemEdges <= 0 {
		opt.MemEdges = DefaultMemEdges
	}
	var inDeg []uint32
	if opt.Strategy == balance.InDegree {
		var err error
		inDeg, err = orient.LoadInDegrees(orientedBase, d.NumVertices())
		if err != nil {
			return balance.Plan{}, fmt.Errorf("core: load balancing needs the in-degree file: %w", err)
		}
	}
	return balance.PlanStore(d, inDeg, opt.Workers, opt.Strategy, opt.MemEdges)
}

// Plan is PlanFor for a static run of `processors` runners with the default
// window.
func Plan(d *graph.Disk, orientedBase string, processors int, strategy balance.Strategy) (balance.Plan, error) {
	return PlanFor(d, orientedBase, Options{Workers: processors, Strategy: strategy})
}

// Calc is the outcome of a calculation phase (RunRanges).
type Calc struct {
	// Workers holds one entry per runner.
	Workers []WorkerStat
	// SourceIO is the I/O that is no runner's own (Result.SourceIO).
	SourceIO ioacct.Stats
}

// Runners reports how many runners — and so how many sinks — RunRanges uses
// for n ranges: Workers sharing a window under the default source, one per
// range under a named one.
func (o Options) Runners(n int) int {
	if o.Scan.IsAuto() {
		return o.WithDefaults().Workers
	}
	return n
}

// RunRanges is the calculation phase on one machine: the triangles whose
// pivot edges lie in ranges, counted or listed against the oriented store d.
// The distributed layer calls it on every node with the ranges the master
// assigned.
//
// Under the default source the ranges only say which entries are this run's:
// adjacent ones are coalesced into spans, each span is covered by windows of
// Workers·MemEdges entries, and opt.Workers runners share every window
// (mgt.RunDealt).
//
// Under scan.SourceBuffered it runs the paper's layout: one runner per range,
// concurrently, each a one-runner dealt run with its own window (mgt.Runner),
// whose I/O — window loads included — is its own.
//
// ctx cancels the run cooperatively: every runner aborts within one cone
// block, and all descriptors are closed before RunRanges returns ctx.Err() —
// no goroutines or file descriptors outlive the call.
func RunRanges(ctx context.Context, d *graph.Disk, ranges []balance.Range, opt Options) (calc Calc, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.WithDefaults()
	if !d.Meta.Oriented {
		return Calc{}, fmt.Errorf("core: RunRanges requires an oriented store")
	}
	n := opt.Runners(len(ranges))
	if opt.Sinks != nil && opt.Out != nil {
		return Calc{}, fmt.Errorf("core: both sinks and an ordered output")
	}
	if opt.Sinks != nil && len(opt.Sinks) != n {
		return Calc{}, fmt.Errorf("core: %d sinks for %d runners", len(opt.Sinks), n)
	}
	if _, err := scan.ParseSource(string(opt.Scan)); err != nil {
		return Calc{}, err
	}
	if err := ctx.Err(); err != nil {
		return Calc{}, err
	}
	var list *mgt.Listing
	if opt.Out != nil {
		list = mgt.NewListing(opt.Out, n, opt.IDs)
		defer func() {
			// The runners wrote the listing as they went; what is left to
			// trace as its assembly is the close.
			cur := obs.CursorFrom(ctx)
			sp := cur.Begin(obs.SpanAssemble)
			cerr := list.Close()
			cur.End(sp)
			if err == nil {
				err = cerr
			}
		}()
	}
	if opt.IDs != nil && opt.Sinks != nil {
		sinks := make([]mgt.Sink, len(opt.Sinks))
		for i, s := range opt.Sinks {
			sinks[i] = mgt.Relabel(s, opt.IDs)
		}
		opt.Sinks = sinks
	}
	if opt.Scan.IsAuto() {
		return runDealt(ctx, d, ranges, opt, list)
	}
	stats := make([]WorkerStat, len(ranges))
	errs := make([]error, len(ranges))
	cur := obs.CursorFrom(ctx)
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r balance.Range) {
			defer wg.Done()
			// One context per runner, stamping its chunk spans with the
			// runner index (a traced run pays one allocation per runner
			// here; the per-chunk recording itself never allocates).
			rctx := ctx
			if cur.T != nil {
				rctx = obs.ContextWithCursor(ctx, cur.WithWorker(i))
			}
			stats[i] = WorkerStat{Worker: i, Range: r, Chunks: 1}
			if list != nil {
				// A runner that fails leaves its block unended: the
				// runners waiting for the head to reach theirs must wake.
				defer func() {
					if errs[i] != nil {
						list.Stop()
					}
				}()
			}
			runner, err := mgt.NewRunner(d, mgt.Config{MemEdges: opt.MemEdges})
			if err != nil {
				errs[i] = err
				return
			}
			defer runner.Close()
			var sink mgt.Sink
			var part *mgt.ListPart
			switch {
			case opt.Sinks != nil:
				sink = opt.Sinks[i]
			case list != nil:
				// Runner i's range is block i of the listing.
				part = list.Part(i)
				part.Begin(int64(i))
				sink = part
			}
			stats[i].Stats, errs[i] = runner.RunRange(rctx, r, sink)
			if part != nil && errs[i] == nil {
				if err := part.End(); err != nil {
					errs[i] = fmt.Errorf("core: write listing: %w", err)
				}
			}
		}(i, r)
	}
	wg.Wait()
	calc = Calc{Workers: stats}
	// A cancelled run reports the bare ctx.Err() regardless of which runner
	// surfaced the cancellation first.
	if err := ctx.Err(); err != nil {
		return calc, err
	}
	for _, err := range errs {
		if err != nil {
			return calc, err
		}
	}
	return calc, nil
}

// runDealt is RunRanges under the default source: cooperative windows over
// the spans the ranges coalesce into, listing to list when it is non-nil.
func runDealt(ctx context.Context, d *graph.Disk, ranges []balance.Range, opt Options, list *mgt.Listing) (Calc, error) {
	var spans []balance.Range
	for _, r := range ranges {
		switch n := len(spans); {
		case r.Lo == r.Hi: // more runners than data
		case n > 0 && spans[n-1].Hi == r.Lo:
			spans[n-1].Hi = r.Hi
		default:
			spans = append(spans, r)
		}
	}
	dealt, err := mgt.RunDealt(ctx, d, spans, mgt.DealConfig{
		Workers:  opt.Workers,
		MemEdges: opt.MemEdges,
		Sinks:    opt.Sinks,
		Listing:  list,
		Held:     opt.Held,
	})
	calc := Calc{SourceIO: dealt.WindowIO}
	hull := balance.Range{}
	if len(spans) > 0 {
		hull = balance.Range{Lo: spans[0].Lo, Hi: spans[len(spans)-1].Hi}
	}
	for i, st := range dealt.Runners {
		calc.Workers = append(calc.Workers, WorkerStat{Worker: i, Range: hull, Chunks: len(spans), Stats: st})
	}
	return calc, err
}
