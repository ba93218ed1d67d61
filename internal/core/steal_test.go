package core

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/binary"
	"sort"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// These are the stealing schedule's regressions, at the level of the engine
// a node runs. A stealing cluster hands out runs of whole cone blocks of the
// local plan's windows (mgt.ConeRuns); a node runs each as one mgt.RunDealt
// restricted to its blocks, against a window it holds between runs. Here N
// single-runner nodes are replayed under the step-count clock over the
// units' measured steps, against the paper's static binding of one planned
// range per runner.

// stealDisk builds the Zipf-skewed (Chung–Lu power-law, exponent 1.6)
// regression graph: heavy hubs make the in-degree cost model misjudge
// contiguous ranges, which is exactly the error the stealing scheduler is
// supposed to absorb.
func stealDisk(t *testing.T) *graph.Disk {
	t.Helper()
	g, err := gen.PowerLaw(3000, 60000, 1.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	return orientedDisk(t, g)
}

// runPerRange runs one runner per range with private windows — the paper's
// layout — and returns the per-range outcomes.
func runPerRange(t *testing.T, d *graph.Disk, ranges []balance.Range, mem int) []WorkerStat {
	t.Helper()
	calc, err := RunRanges(context.Background(), d, ranges, Options{MemEdges: mem, Scan: scan.SourceBuffered})
	if err != nil {
		t.Fatal(err)
	}
	return calc.Workers
}

// stealRuns is what a stealing master cuts for nodes of p runners of mem
// entries each, k units per runner: the cone runs of the local plan's
// windows of p·mem entries.
func stealRuns(t *testing.T, d *graph.Disk, nodes, p, k, mem int) []mgt.ConeRun {
	t.Helper()
	plan, err := LocalPlan(d, d.Base, Options{Workers: p, MemEdges: mem})
	if err != nil {
		t.Fatal(err)
	}
	runs := mgt.ConeRuns(d, plan.MemEdges, uint64(p*mem), sched.ChunksFor(nodes*p, k))
	if len(runs) < 2*nodes {
		t.Fatalf("only %d units for %d nodes; the test graph no longer cuts into several", len(runs), nodes)
	}
	return runs
}

// runUnit runs one unit as a node of p runners of mem entries does, against
// held (nil: a window of its own), listing to out when it is non-nil, and
// returns the runners' summed stats.
func runUnit(t *testing.T, d *graph.Disk, r mgt.ConeRun, p, mem int, held *mgt.Window, out *bytes.Buffer) mgt.Stats {
	t.Helper()
	cfg := mgt.DealConfig{Workers: p, MemEdges: mem, Cone: r.Cone, Held: held}
	if out != nil {
		cfg.Listing = mgt.NewListing(out, t.TempDir(), p, nil)
	}
	res, err := mgt.RunDealt(context.Background(), d, []balance.Range{r.Window}, cfg)
	if cfg.Listing != nil {
		if cerr := cfg.Listing.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	var st mgt.Stats
	for _, s := range res.Runners {
		st.CmpOps += s.CmpOps
		st.Triangles += s.Triangles
		st.Passes = max(st.Passes, s.Passes)
	}
	return st
}

// unitSteps runs the units one after the other on one node holding its
// window between them and returns each unit's steps and the triangles.
func unitSteps(t *testing.T, d *graph.Disk, runs []mgt.ConeRun, mem int) (steps []uint64, tris uint64) {
	t.Helper()
	held := &mgt.Window{}
	for _, r := range runs {
		st := runUnit(t, d, r, 1, mem, held, nil)
		steps = append(steps, st.CmpOps)
		tris += st.Triangles
	}
	return steps, tris
}

// cmpRatio is max/mean per-worker intersection steps — the straggler
// factor in the machine-independent step-count metric.
func cmpRatio(stats []WorkerStat) float64 {
	var sum, max uint64
	for _, w := range stats {
		v := w.Stats.CmpOps
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) / (float64(sum) / float64(len(stats)))
}

// workHeap orders workers by accumulated steps for the schedule simulation.
type workHeap []uint64

func (h workHeap) Len() int            { return len(h) }
func (h workHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h workHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *workHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *workHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// simulateStealing replays the self-scheduling discipline under the
// step-count clock: units are drawn in queue order, each by the worker
// with the least accumulated steps (= the one that finishes first when
// progress is proportional to steps). The result is the deterministic
// per-worker step distribution of the stealing scheduler, free of
// wall-clock and goroutine-timing noise.
func simulateStealing(unitSteps []uint64, workers int) (ratio float64, straggler uint64) {
	h := make(workHeap, workers)
	heap.Init(&h)
	for _, s := range unitSteps {
		least := heap.Pop(&h).(uint64)
		heap.Push(&h, least+s)
	}
	var sum uint64
	for _, w := range h {
		sum += w
		straggler = max(straggler, w)
	}
	if sum == 0 {
		return 1, 0
	}
	return float64(straggler) / (float64(sum) / float64(len(h))), straggler
}

// TestStealingReducesStragglerRatio is the straggler regression of the
// stealing schedule: on a Zipf-skewed graph, the work-stealing discipline
// must yield a strictly lower max/mean intersection-step ratio than the
// paper's static InDegree binding. Both sides of the comparison are
// deterministic step counts: the static side is a real run (per-range
// CmpOps are a pure function of plan and memory budget), the stealing side
// replays the dynamic draw under the step-count clock over the real
// measured steps of every unit — which do not depend on which node ran the
// unit, or whether it held the window already, as
// TestStealingChunkStatsDeterministic pins down.
func TestStealingReducesStragglerRatio(t *testing.T) {
	d := stealDisk(t)
	const P, K, mem = 4, 16, 256

	plan, err := PlanFor(d, d.Base, Options{Workers: P, MemEdges: mem, Strategy: balance.InDegree})
	if err != nil {
		t.Fatal(err)
	}
	static := runPerRange(t, d, plan.Ranges, mem)
	staticRatio := cmpRatio(static)

	steps, stealTris := unitSteps(t, d, stealRuns(t, d, P, 1, K, mem), mem)

	// Same triangles, before anything else.
	var staticTris uint64
	for _, w := range static {
		staticTris += w.Stats.Triangles
	}
	if staticTris != stealTris {
		t.Fatalf("static found %d triangles, stealing %d", staticTris, stealTris)
	}

	stealingRatio, _ := simulateStealing(steps, P)
	if stealingRatio >= staticRatio {
		t.Errorf("stealing step ratio %.4f is not strictly below static InDegree's %.4f", stealingRatio, staticRatio)
	}

	// The list-scheduling granularity bound: no dynamic draw can be worse
	// than one maximal unit above the mean, and that bound itself must
	// beat the static plan for the regression to be meaningful.
	var sum, umax uint64
	for _, s := range steps {
		sum += s
		umax = max(umax, s)
	}
	mean := float64(sum) / float64(P)
	if bound := (mean + float64(umax)) / mean; bound >= staticRatio {
		t.Errorf("granularity bound %.4f does not beat static ratio %.4f; the units are too coarse", bound, staticRatio)
	}
	t.Logf("%d units: static=%.4f stealing(sim)=%.4f", len(steps), staticRatio, stealingRatio)
}

// TestStealingChunkStatsDeterministic pins the premise of the simulation —
// and of the master's exactly-once bookkeeping, which may run a unit again
// on another node: per-unit step counts and triangles are identical across
// runs, and the same whether the node held the unit's window already or
// loads it for this unit alone. The held window is what saves the loads: a
// node dealt a window's units in turn loads it once, on the first.
func TestStealingChunkStatsDeterministic(t *testing.T) {
	d := stealDisk(t)
	const P, K, mem = 4, 8, 256
	runs := stealRuns(t, d, P, 1, K, mem)
	if runs[len(runs)-1].Index == 0 {
		t.Fatal("one window; the test needs several")
	}
	var ref []mgt.Stats
	for rep := 0; rep < 3; rep++ {
		held := &mgt.Window{}
		for i, r := range runs {
			st := runUnit(t, d, r, 1, mem, held, nil)
			loads := 0
			if i == 0 || runs[i-1].Index != r.Index {
				loads = 1
			}
			if st.Passes != loads {
				t.Fatalf("rep %d unit %d (window %d) loaded %d windows, want %d", rep, i, r.Index, st.Passes, loads)
			}
			if rep == 0 {
				ref = append(ref, st)
				continue
			}
			if st != ref[i] {
				t.Fatalf("rep %d unit %d diverged: %+v vs %+v", rep, i, st, ref[i])
			}
		}
	}
	for i, r := range runs {
		st := runUnit(t, d, r, 1, mem, nil, nil)
		if st.CmpOps != ref[i].CmpOps || st.Triangles != ref[i].Triangles || st.Passes != 1 {
			t.Fatalf("unit %d on a window of its own: %+v, held: %+v", i, st, ref[i])
		}
	}
}

// normalizeTriples order-normalizes a 12-byte-triple listing: the triangle
// multiset serialized in canonical sorted order.
func normalizeTriples(t *testing.T, raw []byte) []byte {
	t.Helper()
	tris, err := mgt.ReadTriangles(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(tris, func(i, j int) bool {
		if tris[i][0] != tris[j][0] {
			return tris[i][0] < tris[j][0]
		}
		if tris[i][1] != tris[j][1] {
			return tris[i][1] < tris[j][1]
		}
		return tris[i][2] < tris[j][2]
	})
	out := make([]byte, 0, len(raw))
	for _, tri := range tris {
		for _, v := range tri {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
	}
	return out
}

// TestStealingBeatsMisweightedStatic is the acceptance scenario: static
// ranges that the cost model got badly wrong (a Naive equal-edge split of
// a hub-heavy graph — max/mean step ratio well above 2) versus the
// stealing schedule over the same store. Stealing must lower both the
// straggler's step load and the max/mean ratio while producing the same
// triangles: its units, listed one after the other as the master
// concatenates them, are byte for byte the local engine's listing at the
// same windows — however the units were spread over nodes, and at one
// runner per node or two sharing the window — and the static listing after
// order normalization.
//
// The wall-clock claim of the ablation is deliberately asserted in steps,
// not seconds: per-worker step counts are what determine wall time on real
// parallel hardware, while this suite may run on a single-core machine
// where every schedule serializes to the same wall (see harness.Work for
// the same convention).
func TestStealingBeatsMisweightedStatic(t *testing.T) {
	d := stealDisk(t)
	const P, K, mem = 4, 8, 256

	// Deliberately mis-weighted static ranges: equal edge counts on a
	// graph whose work is concentrated in the hub region.
	naivePlan, err := PlanFor(d, d.Base, Options{Workers: P, MemEdges: mem, Strategy: balance.Naive})
	if err != nil {
		t.Fatal(err)
	}
	static := runPerRange(t, d, naivePlan.Ranges, mem)
	staticRatio := cmpRatio(static)
	var staticMax uint64
	for _, w := range static {
		staticMax = max(staticMax, w.Stats.CmpOps)
	}
	if staticRatio < 1.5 {
		t.Fatalf("test premise broken: naive static ratio %.3f is not badly imbalanced", staticRatio)
	}

	steps, _ := unitSteps(t, d, stealRuns(t, d, P, 1, K, mem), mem)
	stealRatio, stealMax := simulateStealing(steps, P)
	if stealRatio >= staticRatio {
		t.Errorf("stealing ratio %.3f not below mis-weighted static's %.3f", stealRatio, staticRatio)
	}
	if stealMax >= staticMax {
		t.Errorf("stealing straggler load %d not below static straggler's %d steps", stealMax, staticMax)
	}

	// The listings. The local reference is one runner with the whole
	// window of mem entries, as `pdtl list -workers 1 -mem M` writes.
	list := func(ranges []balance.Range, opt Options) []byte {
		var out bytes.Buffer
		opt.Out, opt.SpillDir = &out, t.TempDir()
		if _, err := RunRanges(context.Background(), d, ranges, opt); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	local := list([]balance.Range{mgt.FullRange(d)}, Options{Workers: 1, MemEdges: mem})
	staticList := list(naivePlan.Ranges, Options{MemEdges: mem, Scan: scan.SourceBuffered})
	if !bytes.Equal(normalizeTriples(t, staticList), normalizeTriples(t, local)) {
		t.Fatal("normalized listings differ between static and local")
	}
	for _, p := range []int{1, 2} {
		runs := stealRuns(t, d, P, p, K, mem/p)
		// One node taking every unit in turn, and every unit on a node of
		// its own: the concatenation is the same.
		var oneNode, ownNodes bytes.Buffer
		held := &mgt.Window{}
		for _, r := range runs {
			runUnit(t, d, r, p, mem/p, held, &oneNode)
			runUnit(t, d, r, p, mem/p, nil, &ownNodes)
		}
		if !bytes.Equal(oneNode.Bytes(), local) {
			t.Errorf("P=%d: the units' listing (%d bytes) is not the local one (%d bytes)", p, oneNode.Len(), len(local))
		}
		if !bytes.Equal(ownNodes.Bytes(), oneNode.Bytes()) {
			t.Errorf("P=%d: the units' listing depends on which node ran which unit", p)
		}
	}
	t.Logf("mis-weighted static=%.3f stealing(sim)=%.3f straggler steps %d → %d", staticRatio, stealRatio, staticMax, stealMax)
}
