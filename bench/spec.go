package main

import (
	"fmt"
	"sort"
)

// graphSpec names one generated input. Generator k of a workload is seeded
// with seed+k.
type graphSpec struct {
	Kind       string  // "rmat" or "powerlaw"
	Scale      uint    // rmat: 2^Scale vertices
	EdgeFactor int     // rmat: EdgeFactor·2^Scale edge samples
	N, M       int     // powerlaw: vertices, edge samples
	Exponent   float64 // powerlaw
	// Format is the encoding of the pre-oriented store the workload runs
	// on ("plain" or "compressed").
	Format string
	// EdgeFile writes the input as a shuffled binary edge file instead of a
	// store (cold-build ingests it every rep).
	EdgeFile bool
}

func (g graphSpec) String() string {
	if g.Kind == "rmat" {
		return fmt.Sprintf("rmat scale=%d edgefactor=%d", g.Scale, g.EdgeFactor)
	}
	return fmt.Sprintf("powerlaw n=%d m=%d exponent=%g", g.N, g.M, g.Exponent)
}

// workloadSpec is one benchmark workload at one scale.
type workloadSpec struct {
	Name   string
	Graphs []graphSpec
	// PassesPerRunner, when non-zero, sets MemEdges = ⌈|E*|/(PassesPerRunner·P)⌉
	// so the window is a fixed fraction of the store; zero keeps the
	// engine's default window.
	PassesPerRunner int
	// Serve script: per client and cycle, one cold count, CachedPerCycle
	// cached counts, one full stream.
	CachedPerCycle int
}

// Workload names are permanent: BENCHMARK.json, the pins and every later
// comparison key on them.
const (
	wCountInmem = "count-inmem"
	wCountOOC   = "count-ooc"
	wListInmem  = "list-inmem"
	wColdBuild  = "cold-build"
	wDistStatic = "dist-static"
	wDistSteal  = "dist-steal"
	wServeMixed = "serve-mixed"
)

// workloads returns the seven workloads at the given scale. "full" is the
// benchmark (sizes chosen so one operation takes 0.3–1.2 s on two cores and
// a whole run — inputs, three set-ups, the timed reps — fits the contract's
// per-run budget); "smoke" is tiny graphs for the tests.
func workloads(scale string) ([]workloadSpec, error) {
	var big, mid, small, tiny uint
	var plN int
	cached := 0
	switch scale {
	case "full":
		big, mid, small, tiny, plN, cached = 17, 16, 15, 13, 1<<18, 1000
	case "smoke":
		big, mid, small, tiny, plN, cached = 9, 8, 8, 7, 1<<10, 20
	default:
		return nil, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
	}
	rmat := func(s uint) graphSpec {
		return graphSpec{Kind: "rmat", Scale: s, EdgeFactor: 16, Format: "plain"}
	}
	edgeFile := rmat(mid)
	edgeFile.EdgeFile = true
	return []workloadSpec{
		{Name: wCountInmem, Graphs: []graphSpec{rmat(big)}},
		{Name: wCountOOC, PassesPerRunner: 24, Graphs: []graphSpec{
			{Kind: "powerlaw", N: plN, M: 8 * plN, Exponent: 1.9, Format: "compressed"}}},
		{Name: wListInmem, Graphs: []graphSpec{rmat(small)}},
		{Name: wColdBuild, Graphs: []graphSpec{edgeFile}},
		{Name: wDistStatic, Graphs: []graphSpec{rmat(mid)}},
		{Name: wDistSteal, Graphs: []graphSpec{rmat(mid)}},
		{Name: wServeMixed, CachedPerCycle: cached, Graphs: []graphSpec{rmat(small), rmat(tiny)}},
	}, nil
}

func findWorkload(scale, name string) (workloadSpec, error) {
	all, err := workloads(scale)
	if err != nil {
		return workloadSpec{}, err
	}
	var names []string
	for _, w := range all {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen (per-layer
// metrics have none); Exact marks counts the program makes that must repeat
// bit for bit between two runs on the same inputs.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

// endToEnd lists what a user of the system sees, for every workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.2},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.2},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "io_read_mb", Unit: "MB", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// spanNames are the program's existing span names whose self times the
// traced rep rolls up.
var spanNames = []string{"count", "orient", "plan", "calc", "chunk", "scan.round", "assemble", "copy", "dispatch", "node.count"}

// perLayer lists the single-layer metrics, reported from the traced run
// only. A metric whose layer a workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	exact := func(m metricDef) metricDef { m.Exact = true; return m }
	defs := []metricDef{
		// Workload-specific user-visible numbers. They cannot be end-to-end
		// metrics under the contract (every run must report every one of
		// those, never as 0), so they ride here, unbounded.
		exact(lo("dist_net_mb", "MB")),
		lo("cold_count_ms_p50", "ms"),
		lo("cached_count_ms_p50", "ms"),
		hi("stream_mtri_per_s", "Mtri/s"),

		lo("gen.build_s", "s"),
		lo("extsort.import_s", "s"),
		lo("extsort.written_mb", "MB"),
		lo("graph.open_ms", "ms"),
		exact(lo("graph.store_mb", "MB")),
		exact(lo("graph.bytes_per_edge", "B")),
		lo("graph.decode_ns_per_seg", "ns"),
		hi("graph.decode_mb_per_s", "MB/s"),
		lo("orient.wall_s", "s"),
		exact(lo("orient.io_mb", "MB")),
		exact(lo("orient.max_out_degree", "count")),
		lo("balance.plan_ms", "ms"),
		exact(lo("balance.imbalance", "ratio")),
		exact(lo("scan.cmp_ops", "count")),
		exact(lo("scan.intersections", "count")),
		exact(hi("scan.segments_skipped", "count")),
		exact(lo("scan.word_ops", "count")),
		exact(lo("scan.fast_decodes", "count")),
		lo("scan.ns_per_cmp", "ns"),
		exact(lo("scan.source_mb", "MB")),
		exact(lo("scan.rounds", "count")),
		hi("scan.shared_drain_mb_per_s", "MB/s"),
		hi("scan.buffered_drain_mb_per_s", "MB/s"),
		exact(lo("mgt.passes", "count")),
		exact(lo("mgt.max_runner_passes", "count")),
		exact(lo("mgt.edges_loaded", "count")),
		exact(lo("mgt.large_vertices", "count")),
		lo("mgt.io_wait_s", "s"),
		lo("mgt.single_runner_wall_s", "s"),
		lo("sched.chunks", "count"),
		lo("sched.worker_imbalance", "ratio"),
		lo("sched.steal_wall_ratio", "ratio"),
		lo("core.calc_s", "s"),
		lo("core.plan_ms", "ms"),
		lo("core.worker_imbalance", "ratio"),
		hi("core.parallel_efficiency", "ratio"),
		lo("pdtl.open_ms", "ms"),
		lo("pdtl.assemble_s", "s"),
		exact(lo("pdtl.listing_mb", "MB")),
		lo("cluster.copy_s", "s"),
		exact(lo("cluster.copy_mb", "MB")),
		lo("cluster.node_calc_max_s", "s"),
		lo("cluster.node_imbalance", "ratio"),
		lo("cluster.overhead_s", "s"),
		lo("cluster.batches", "count"),
		exact(lo("cluster.failures", "count")),
		lo("service.cold_overhead_ms", "ms"),
		lo("service.cached_ms_p99", "ms"),
		lo("service.queue_wait_ms_p50", "ms"),
		hi("service.cache_hit_ratio", "ratio"),
		exact(lo("service.engine_runs", "count")),
		exact(lo("service.shed_total", "count")),
		lo("service.stream_ns_per_tri", "ns"),
		hi("service.req_per_s", "1/s"),
		lo("obs.trace_overhead_frac", "ratio"),
		lo("obs.spans", "count"),
		exact(lo("obs.spans_dropped", "count")),
		lo("obs.unattributed_frac", "ratio"),
	}
	for _, n := range spanNames {
		defs = append(defs, lo("obs.self_s."+n, "s"))
	}
	return defs
}()

// metricSet is one run's reported values by metric name.
type metricSet map[string]float64

// complete returns the values of exactly the metrics in defs, in
// definition order, reading absent ones as 0 (a layer the workload does not
// exercise), and fails on a value no definition names — so the set of
// emitted names can never drift from the declared one.
func (m metricSet) complete(defs []metricDef) ([]float64, error) {
	known := make(map[string]bool, len(defs))
	out := make([]float64, len(defs))
	for i, d := range defs {
		known[d.Name] = true
		out[i] = m[d.Name]
	}
	var stray []string
	for name := range m {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics emitted but not declared: %v", stray)
	}
	return out, nil
}
