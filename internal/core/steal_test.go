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

// These are the stealing schedule's regressions. Chunks are drawn across
// nodes now (sched.Dispenser; inside a node the runners of one window are
// dealt cone blocks, which needs no plan at all), so a chunk runs here the
// way a node runs it when its source is named — one runner, its own window —
// and the draw is replayed under the step-count clock.

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
// layout, under the buffered source — and returns the per-range outcomes.
func runPerRange(t *testing.T, d *graph.Disk, ranges []balance.Range, mem int) []WorkerStat {
	t.Helper()
	calc, err := RunRanges(context.Background(), d, ranges, Options{MemEdges: mem, Scan: scan.SourceBuffered, Sched: sched.Stealing})
	if err != nil {
		t.Fatal(err)
	}
	return calc.Workers
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
// step-count clock: chunks are drawn in queue order, each by the worker
// with the least accumulated steps (= the one that finishes first when
// progress is proportional to steps). The result is the deterministic
// per-worker step distribution of the stealing scheduler, free of
// wall-clock and goroutine-timing noise.
func simulateStealing(chunkSteps []uint64, workers int) (ratio float64, straggler uint64) {
	h := make(workHeap, workers)
	heap.Init(&h)
	for _, s := range chunkSteps {
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

// TestStealingReducesStragglerRatio is the straggler regression demanded
// by the scheduler refactor: on a Zipf-skewed graph, the work-stealing
// discipline must yield a strictly lower max/mean intersection-step ratio
// than the paper's static InDegree binding. Both sides of the comparison
// are deterministic step counts: the static side is a real run (per-range
// CmpOps are a pure function of plan and memory budget), the stealing side
// replays the dynamic draw under the step-count clock over real measured
// per-chunk CmpOps — per-chunk counts do not depend on which runner
// executed the chunk, which TestStealingChunkStatsDeterministic pins down.
func TestStealingReducesStragglerRatio(t *testing.T) {
	d := stealDisk(t)
	const P, K, mem = 8, 16, 2048

	plan, err := Plan(d, d.Base, P, balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	static := runPerRange(t, d, plan.Ranges, mem)
	staticRatio := cmpRatio(static)

	chunkPlan, err := Plan(d, d.Base, sched.ChunksFor(P, K), balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	chunkStats := runPerRange(t, d, chunkPlan.Ranges, mem)

	// Same triangles, before anything else.
	var staticTris, stealTris uint64
	for _, w := range static {
		staticTris += w.Stats.Triangles
	}
	for _, w := range chunkStats {
		stealTris += w.Stats.Triangles
	}
	if staticTris != stealTris {
		t.Fatalf("static found %d triangles, stealing %d", staticTris, stealTris)
	}

	steps := make([]uint64, len(chunkStats))
	for i, c := range chunkStats {
		steps[i] = c.Stats.CmpOps
	}
	stealingRatio, _ := simulateStealing(steps, P)
	if stealingRatio >= staticRatio {
		t.Errorf("stealing step ratio %.4f is not strictly below static InDegree's %.4f", stealingRatio, staticRatio)
	}

	// The list-scheduling granularity bound: no dynamic draw can be worse
	// than one maximal chunk above the mean, and that bound itself must
	// beat the static plan for the regression to be meaningful.
	var sum, cmax uint64
	for _, s := range steps {
		sum += s
		if s > cmax {
			cmax = s
		}
	}
	mean := float64(sum) / float64(P)
	if bound := (mean + float64(cmax)) / mean; bound >= staticRatio {
		t.Errorf("granularity bound %.4f does not beat static ratio %.4f; chunking is too coarse", bound, staticRatio)
	}
	t.Logf("static=%.4f stealing(sim)=%.4f", staticRatio, stealingRatio)
}

// TestStealingChunkStatsDeterministic pins the premise of the simulation —
// and of the master's exactly-once bookkeeping, which may run a chunk again
// on another node: per-chunk step counts, triangles, and pass counts are
// identical across runs.
func TestStealingChunkStatsDeterministic(t *testing.T) {
	d := stealDisk(t)
	const P, K, mem = 4, 8, 1024
	chunkPlan, err := Plan(d, d.Base, sched.ChunksFor(P, K), balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	var ref []WorkerStat
	for rep := 0; rep < 3; rep++ {
		cs := runPerRange(t, d, chunkPlan.Ranges, mem)
		if ref == nil {
			ref = cs
			continue
		}
		for i := range cs {
			if cs[i].Range != ref[i].Range || cs[i].Stats.CmpOps != ref[i].Stats.CmpOps ||
				cs[i].Stats.Triangles != ref[i].Stats.Triangles || cs[i].Stats.Passes != ref[i].Stats.Passes {
				t.Fatalf("rep %d chunk %d diverged: %+v vs %+v", rep, i, cs[i], ref[i])
			}
		}
	}
}

// listChunks runs a listing of ranges under opt and returns the bytes it
// writes in order, as a cluster node does.
func listChunks(t *testing.T, d *graph.Disk, ranges []balance.Range, opt Options) []byte {
	t.Helper()
	var out bytes.Buffer
	opt.Out, opt.SpillDir = &out, t.TempDir()
	if _, err := RunRanges(context.Background(), d, ranges, opt); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
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
// triangles, byte-identical after order normalization.
//
// The wall-clock claim of the ablation is deliberately asserted in steps,
// not seconds: per-worker step counts are what determine wall time on real
// parallel hardware, while this suite may run on a single-core machine
// where every schedule serializes to the same wall (see harness.Work for
// the same convention).
func TestStealingBeatsMisweightedStatic(t *testing.T) {
	d := stealDisk(t)
	const P, K, mem = 4, 8, 2048

	// Deliberately mis-weighted static ranges: equal edge counts on a
	// graph whose work is concentrated in the hub region.
	naivePlan, err := Plan(d, d.Base, P, balance.Naive)
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

	chunkPlan, err := Plan(d, d.Base, sched.ChunksFor(P, K), balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	var steps []uint64
	for _, c := range runPerRange(t, d, chunkPlan.Ranges, mem) {
		steps = append(steps, c.Stats.CmpOps)
	}
	stealRatio, stealMax := simulateStealing(steps, P)
	if stealRatio >= staticRatio {
		t.Errorf("stealing ratio %.3f not below mis-weighted static's %.3f", stealRatio, staticRatio)
	}
	if stealMax >= staticMax {
		t.Errorf("stealing straggler load %d not below static straggler's %d steps", stealMax, staticMax)
	}

	// Byte-identical listings after order normalization — under the named
	// source and under the default's cooperative windows, whose stealing
	// listing is chunk after chunk too.
	named := Options{MemEdges: mem, Scan: scan.SourceBuffered, Sched: sched.Stealing}
	dealt := Options{Workers: P, MemEdges: mem, Sched: sched.Stealing}
	staticList := normalizeTriples(t, listChunks(t, d, naivePlan.Ranges, Options{MemEdges: mem, Scan: scan.SourceBuffered}))
	for name, opt := range map[string]Options{"named": named, "dealt": dealt} {
		stealList := listChunks(t, d, chunkPlan.Ranges, opt)
		if !bytes.Equal(staticList, normalizeTriples(t, stealList)) {
			t.Errorf("%s: normalized listings differ between static and stealing", name)
		}
		// And the stealing listing itself is deterministic in raw bytes,
		// however its chunks are batched: whole, or one by one.
		var oneByOne []byte
		for _, c := range chunkPlan.Ranges {
			oneByOne = append(oneByOne, listChunks(t, d, []balance.Range{c}, opt)...)
		}
		if !bytes.Equal(stealList, oneByOne) {
			t.Errorf("%s: stealing listing depends on how its chunks are batched (chunk-order determinism broken)", name)
		}
	}
	t.Logf("mis-weighted static=%.3f stealing(sim)=%.3f straggler steps %d → %d", staticRatio, stealRatio, staticMax, stealMax)
}
