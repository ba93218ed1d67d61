// Package balance implements PDTL's edge-range assignment (Section IV-B).
//
// Every one of the N·P processors receives a contiguous range of the
// oriented adjacency file — its pivot-edge responsibility. The naive
// assignment gives each processor the same number of edges. The paper's
// load-balancing step instead weighs vertex v by its post-orientation
// in-degree d_G(v) − d_G*(v): that is how many cone vertices u will have v
// in N+(u), i.e. how many sorted-array intersections will use Ev as their
// in-memory operand, so equalizing the in-degree mass equalizes the
// expected intersection work (Figure 9 measures up to 3× improvement).
package balance

import (
	"fmt"
	"time"

	"pdtl/internal/graph"
	"pdtl/internal/obs"
)

// Strategy selects how edge ranges are assigned to processors.
type Strategy int

const (
	// Naive splits the adjacency file into equal edge counts ("w/o LB" in
	// Figure 9 and Table X).
	Naive Strategy = iota
	// InDegree splits by the paper's in-degree weights ("w/ LB").
	InDegree
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case InDegree:
		return "indegree"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Range is a contiguous range [Lo, Hi) of global edge indices in the
// oriented adjacency file.
type Range struct {
	Lo, Hi uint64
}

// Len is the number of edges in the range.
func (r Range) Len() uint64 { return r.Hi - r.Lo }

// Plan is the result of a split: one range per processor, in order,
// covering [0, AdjEntries) exactly.
type Plan struct {
	Ranges   []Range
	Strategy Strategy
	// Weights is the estimated work per range under the strategy's cost
	// model (diagnostic; used by tests and by Table IV's imbalance
	// analysis).
	Weights []float64
	// Duration is the wall time spent computing the plan (the paper counts
	// load balancing toward calculation time).
	Duration time.Duration
	// MemEdges is the window size M the plan was made for, clipped to the
	// store size: every M ≥ |E*| yields the same single-window plan, so the
	// clipped value (with k and the strategy) identifies a plan.
	MemEdges uint64
	// Windows is W = ⌈|E*|/M⌉, the passes a single runner would need.
	Windows uint64
	// ScanUnits is the scan term of the per-edge weight: 1 for a
	// single-window plan (the paper's model), κ·W otherwise.
	ScanUnits float64
	// Ranked reports that the store is in rank space, where a round reads
	// only the lists from its window's first vertex on (graph.Meta.Ranked).
	// The scan term above still prices whole passes.
	Ranked bool
}

// Explain puts what decided the plan on the run's plan span, so "why this
// plan?" is answerable from the trace: the window the plan was made for,
// how many of them the store is, the scan term that followed (rounded),
// the most passes any one range costs its runner, and whether the store is
// ranked (1) — which says why a round read only part of it — or not (0).
func (p Plan) Explain(cur obs.Cursor, span obs.SpanID) {
	if cur.T == nil {
		return
	}
	maxPasses := 0
	for _, n := range p.Passes() {
		maxPasses = max(maxPasses, n)
	}
	cur.SetAttr(span, "mem_edges", int64(p.MemEdges))
	cur.SetAttr(span, "windows", int64(p.Windows))
	cur.SetAttr(span, "scan_units", int64(p.ScanUnits+0.5))
	cur.SetAttr(span, "est_max_passes", int64(maxPasses))
	var ranked int64
	if p.Ranked {
		ranked = 1
	}
	cur.SetAttr(span, "ranked", ranked)
}

// Passes is the number of memory windows — full scans of the store — each
// range of the plan costs its runner: ⌈len/M⌉.
func (p Plan) Passes() []int {
	passes := make([]int, len(p.Ranges))
	for i, r := range p.Ranges {
		if p.MemEdges > 0 {
			passes[i] = int((r.Len() + p.MemEdges - 1) / p.MemEdges)
		}
	}
	return passes
}

// Inputs bundles everything a split may need.
type Inputs struct {
	// Offsets is the oriented store's per-vertex entry offsets (n+1).
	Offsets []uint64
	// OutDeg is d_G*(v) per vertex.
	OutDeg []uint32
	// InDeg is d_G(v) − d_G*(v) per vertex (required by InDegree).
	InDeg []uint32
	// MemEdges is M, each runner's window in adjacency entries. A range of
	// L edges costs its runner ⌈L/M⌉ full scans of the store, so M decides
	// how much scanning an edge causes. Non-positive, or any M ≥ |E*|, is
	// the single-window case — the paper's model, blind to M.
	MemEdges int
	// Format is the store's encoding; it selects κ, the price of scanning
	// one entry in units of one merge step (see scanUnits).
	Format graph.Format
}

// PlanStore is the planner's one entry point for a run over an oriented
// store: k ranges (one per runner under the static scheduler, K per runner
// under stealing — the same cost model cut finer) for runners with windows
// of memEdges entries. inDeg is the post-orientation in-degree array; the
// Naive strategy ignores it.
func PlanStore(d *graph.Disk, inDeg []uint32, k int, strategy Strategy, memEdges int) (Plan, error) {
	in := Inputs{Offsets: d.Offsets, OutDeg: d.Degrees, InDeg: inDeg, MemEdges: memEdges, Format: d.Format()}
	plan, err := SplitInputs(in, k, strategy)
	plan.Ranked = d.Meta.Ranked
	return plan, err
}

// Per-format κ: what scanning one adjacency entry in a pass costs a runner,
// in merge steps of an intersection — the unit of the in-degree term.
// DESIGN.md §7 derives both from the benchmark's per-layer numbers: a pass
// delivers a plain entry in 3.8 ns and a compressed one in 27.5 ns
// (scan.shared_drain_mb_per_s), a merge step takes 5.2 ns
// (scan.ns_per_cmp on the single-pass workload).
const (
	kappaPlain      = 0.75
	kappaCompressed = 5.5
)

// scanUnits is the scan term of the per-edge weight for a store cut into
// `windows` windows. A range of L edges is scanned for in ⌈L/M⌉ passes of
// |E*| entries each, so one edge causes |E*|/M ≈ W entries of scanning,
// each worth κ merge steps. With one window every range costs exactly one
// pass whatever its length and the term is the paper's constant 1, so
// single-window plans are what they always were.
func scanUnits(windows uint64, format graph.Format) float64 {
	if windows <= 1 {
		return 1
	}
	kappa := kappaPlain
	if format == graph.FormatCompressed {
		kappa = kappaCompressed
	}
	return kappa * float64(windows)
}

// SplitInputs assigns the oriented store's edges to k ≥ 1 processors.
func SplitInputs(in Inputs, k int, strategy Strategy) (Plan, error) {
	start := time.Now()
	if k < 1 {
		return Plan{}, fmt.Errorf("balance: need at least one processor, got %d", k)
	}
	if len(in.Offsets) != len(in.OutDeg)+1 {
		return Plan{}, fmt.Errorf("balance: offsets length %d does not match %d vertices", len(in.Offsets), len(in.OutDeg))
	}
	total := in.Offsets[len(in.Offsets)-1]
	mem := total
	if in.MemEdges > 0 && uint64(in.MemEdges) < total {
		mem = uint64(in.MemEdges)
	}
	plan := Plan{Strategy: strategy, MemEdges: mem, Windows: 1}
	if mem > 0 {
		plan.Windows = (total + mem - 1) / mem
	}
	scan := scanUnits(plan.Windows, in.Format)
	plan.ScanUnits = scan
	weightFn := func(v int) float64 { return edgeWeight(in.OutDeg, in.InDeg, scan, v) }
	switch strategy {
	case Naive:
		plan.Ranges = naiveRanges(total, k)
	case InDegree:
		if len(in.InDeg) != len(in.OutDeg) {
			return Plan{}, fmt.Errorf("balance: in-degree array length %d != %d vertices", len(in.InDeg), len(in.OutDeg))
		}
		plan.Ranges = weightedRanges(in.Offsets, in.OutDeg, weightFn, k)
	default:
		return Plan{}, fmt.Errorf("balance: unknown strategy %d", int(strategy))
	}
	if plan.Windows >= uint64(k) {
		snapToWindows(plan.Ranges, mem, plan.Windows)
	}
	plan.Weights = rangeWeights(plan.Ranges, in.Offsets, in.OutDeg, weightFn)
	plan.Duration = time.Since(start)
	return plan, nil
}

// snapToWindows moves every cut point of a plan with at least as many
// windows as ranges (W ≥ k) to a multiple of M. A runner walks its range in
// windows of M edges from the range's start and pays a full scan of the
// store per window, however few edges the last one holds; with cuts on
// window boundaries only the plan's final range can end in a partial
// window, so Σ passes = W — the least any partition can cost — instead of
// up to W + k − 1. Cuts stay strictly increasing and inside (0, |E*|), so
// no range is empty; W ≥ k is what guarantees k − 1 distinct interior
// multiples of M exist.
func snapToWindows(ranges []Range, mem, windows uint64) {
	k := uint64(len(ranges))
	var prev uint64 // the previous cut, in windows
	for i := uint64(0); i+1 < k; i++ {
		cut := (ranges[i].Hi + mem/2) / mem
		// Leave a window for every range before this cut and after it.
		if lo := prev + 1; cut < lo {
			cut = lo
		}
		if hi := windows - (k - 1 - i); cut > hi {
			cut = hi
		}
		ranges[i].Hi = cut * mem
		ranges[i+1].Lo = cut * mem
		prev = cut
	}
}

func naiveRanges(total uint64, k int) []Range {
	ranges := make([]Range, k)
	var lo uint64
	for i := 0; i < k; i++ {
		hi := total * uint64(i+1) / uint64(k)
		ranges[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return ranges
}

// edgeWeight is the cost model per out-edge of vertex v: the scan work the
// edge causes (scanUnits) plus v's in-degree. The in-degree term is the
// paper's ("the sum of these in-degrees are approximately the same among
// all processors"): every cone vertex u with v ∈ N+(u) — there are indeg(v)
// of them — runs a merge that walks v's in-memory out-edges, so each
// out-edge of v is touched ≈ indeg(v) times per window. A nil in-degree
// array (naive plans evaluated for diagnostics) contributes no mass.
func edgeWeight(outDeg, inDeg []uint32, scan float64, v int) float64 {
	if outDeg[v] == 0 {
		return 0
	}
	if inDeg == nil {
		return scan
	}
	return scan + float64(inDeg[v])
}

func weightedRanges(offsets []uint64, outDeg []uint32, weightFn func(v int) float64, k int) []Range {
	n := len(outDeg)
	// Cumulative weight at each vertex boundary.
	cum := make([]float64, n+1)
	for v := 0; v < n; v++ {
		w := weightFn(v) * float64(outDeg[v])
		cum[v+1] = cum[v] + w
	}
	total := cum[n]
	ranges := make([]Range, k)
	var lo uint64
	v := 0
	for i := 0; i < k-1; i++ {
		target := total * float64(i+1) / float64(k)
		// Advance to the vertex whose boundary weight crosses the target.
		for v < n && cum[v+1] < target {
			v++
		}
		var hi uint64
		if v >= n {
			hi = offsets[n]
		} else {
			// Interpolate an edge position inside v's out-list.
			perEdge := weightFn(v)
			var within uint64
			if perEdge > 0 {
				within = uint64((target - cum[v]) / perEdge)
			}
			if within > uint64(outDeg[v]) {
				within = uint64(outDeg[v])
			}
			hi = offsets[v] + within
		}
		if hi < lo {
			hi = lo
		}
		ranges[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	ranges[k-1] = Range{Lo: lo, Hi: offsets[n]}
	return ranges
}

// rangeWeights evaluates a cost model over each range (splitting vertex
// lists proportionally at the boundaries).
func rangeWeights(ranges []Range, offsets []uint64, outDeg []uint32, weightFn func(v int) float64) []float64 {
	n := len(outDeg)
	weights := make([]float64, len(ranges))
	v := 0
	for i, r := range ranges {
		if r.Len() == 0 {
			continue
		}
		// Find the vertex containing r.Lo.
		for v < n && offsets[v+1] <= r.Lo {
			v++
		}
		w := 0.0
		pos := r.Lo
		for u := v; u < n && pos < r.Hi; u++ {
			if offsets[u+1] <= pos {
				continue
			}
			end := offsets[u+1]
			if end > r.Hi {
				end = r.Hi
			}
			w += weightFn(u) * float64(end-pos)
			pos = end
		}
		weights[i] = w
	}
	return weights
}

// Imbalance reports max(weights)/mean(weights), the straggler factor of a
// plan (1.0 is perfect). Used by the Figure 9 / Table IV analysis.
func (p Plan) Imbalance() float64 {
	if len(p.Weights) == 0 {
		return 1
	}
	var sum, maxW float64
	for _, w := range p.Weights {
		sum += w
		if w > maxW {
			maxW = w
		}
	}
	if sum == 0 {
		return 1
	}
	mean := sum / float64(len(p.Weights))
	return maxW / mean
}

// Validate checks that the plan covers [0, total) with contiguous,
// non-overlapping, ordered ranges.
func (p Plan) Validate(total uint64) error {
	var expect uint64
	for i, r := range p.Ranges {
		if r.Lo != expect {
			return fmt.Errorf("balance: range %d starts at %d, want %d", i, r.Lo, expect)
		}
		if r.Hi < r.Lo {
			return fmt.Errorf("balance: range %d inverted: %+v", i, r)
		}
		expect = r.Hi
	}
	if expect != total {
		return fmt.Errorf("balance: plan covers %d of %d edges", expect, total)
	}
	return nil
}

// Subdivide splits a plan's k ranges among nodes: node i of n receives
// ranges [i·k/n, (i+1)·k/n). It is how the master groups per-processor
// ranges into per-machine configurations C_{i,j} (Figure 1).
func (p Plan) Subdivide(nodes int) [][]Range {
	k := len(p.Ranges)
	out := make([][]Range, nodes)
	for i := 0; i < nodes; i++ {
		lo := k * i / nodes
		hi := k * (i + 1) / nodes
		out[i] = p.Ranges[lo:hi]
	}
	return out
}
