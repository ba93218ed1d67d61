package pdtl

import (
	"context"
	"path/filepath"
	"sort"
	"testing"

	"pdtl/internal/graph"
	"pdtl/internal/obs"
)

// spanAttr extracts one attribute from a span, with presence reporting.
func spanAttr(sp obs.Span, key string) (int64, bool) {
	for _, a := range sp.Attrs[:sp.NAttr] {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// TestDistributedTraceShape is the end-to-end tracing check: a distributed
// count over an in-process cluster, driven with a trace cursor, must
// produce ONE merged trace in which (a) every span hangs off the single
// cluster root, (b) each worker's node.count span is re-parented under the
// master dispatch span that carried it over the wire, and (c) the windows
// of the scan.round spans — one per round of a node's cooperative window,
// master-local and worker-side together — tile the oriented store's global
// edge range exactly once, with every runner's chunk span saying what it
// did in them. (c) is the strongest form of "the trace reflects the run": a
// missing round means an untraced execution path, an overlapping one a
// double-count.
func TestDistributedTraceShape(t *testing.T) {
	base := filepath.Join(t.TempDir(), "pl")
	if _, err := GeneratePowerLaw(base, 600, 6000, 1.9, 11); err != nil {
		t.Fatal(err)
	}
	pool, err := StartLocalWorkers(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	tr := obs.NewTrace(0)
	ctx := obs.ContextWithCursor(context.Background(),
		obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
	// Static scheduling: the pre-split plan guarantees every node executes
	// its group, so worker spans are deterministically present. (Under
	// stealing the master's local driver can legitimately drain a tiny
	// chunk list before the replicas finish copying.)
	res, err := g.CountDistributed(ctx, pool.Addrs(), ClusterOptions{
		Workers: 2, MemEdges: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := g.Count(context.Background(), Options{Workers: 2, MemEdges: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != local.Triangles {
		t.Fatalf("distributed %d vs local %d triangles", res.Triangles, local.Triangles)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace dropped %d spans", d)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("trace is empty")
	}

	// (a) One root — the cluster span — and every span reaches it.
	roots := 0
	var rootID obs.SpanID
	for i, sp := range spans {
		if sp.Parent < 0 {
			roots++
			rootID = obs.SpanID(i)
			if sp.Name != obs.SpanCluster {
				t.Errorf("root span is %q, want %q", sp.Name, obs.SpanCluster)
			}
			if sp.Dur <= 0 {
				t.Error("cluster root span has no duration")
			}
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want exactly 1 (one merged trace)", roots)
	}
	for i, sp := range spans {
		id := obs.SpanID(i)
		for hops := 0; id != rootID; hops++ {
			if hops > len(spans) {
				t.Fatalf("span %d (%s) does not reach the root", i, sp.Name)
			}
			p := spans[id].Parent
			if p < 0 || int(p) >= len(spans) {
				t.Fatalf("span %d (%s) has dangling ancestry at %d", i, sp.Name, p)
			}
			id = p
		}
	}

	// (b) Worker node.count spans sit under master dispatch spans, and the
	// worker-side work fits inside the RPC that carried it (same process,
	// same clock).
	nodeCounts := 0
	for i, sp := range spans {
		if sp.Name != obs.SpanNodeCount {
			continue
		}
		nodeCounts++
		parent := spans[sp.Parent]
		if parent.Name != obs.SpanDispatch {
			t.Errorf("node.count span %d hangs under %q, want %q", i, parent.Name, obs.SpanDispatch)
		}
		if sp.Dur > parent.Dur {
			t.Errorf("node.count span %d (dur %d) exceeds its dispatch span (dur %d)",
				i, sp.Dur, parent.Dur)
		}
	}
	if nodeCounts == 0 {
		t.Fatal("no worker node.count spans were merged into the master trace")
	}
	// The driver's own spans carry one attr set whatever the schedule.
	for i, sp := range spans {
		var want []string
		switch sp.Name {
		case obs.SpanCopy:
			want = []string{"slot", "bytes"}
		case obs.SpanDispatch:
			want = []string{"slot", "start", "ranges", "retries"}
		}
		for _, key := range want {
			if _, ok := spanAttr(sp, key); !ok {
				t.Errorf("%s span %d is missing the %q attr", sp.Name, i, key)
			}
		}
	}

	// (c) The rounds' windows tile the oriented store's directed-edge range
	// exactly once, and every node's runners report on theirs.
	meta, err := graph.ReadMeta(res.OrientedBase)
	if err != nil {
		t.Fatal(err)
	}
	roundsTile(t, spans, int64(meta.NumEdges))
	chunks := 0
	for i, sp := range spans {
		if sp.Name != obs.SpanChunk {
			continue
		}
		chunks++
		for _, key := range []string{"cmp_ops", "io_bytes", "passes", "blocks", "idle_ns"} {
			if _, ok := spanAttr(sp, key); !ok {
				t.Errorf("chunk span %d is missing the %q attr", i, key)
			}
		}
	}
	if want := 3 * 2; chunks != want { // three nodes, two runners each
		t.Errorf("trace has %d chunk spans, want one per runner per node: %d", chunks, want)
	}
}

// roundsTile fails unless the [window_lo, window_hi) intervals of the
// trace's scan.round spans tile [0, edges) exactly once.
func roundsTile(t *testing.T, spans []obs.Span, edges int64) {
	t.Helper()
	type interval struct{ lo, hi int64 }
	var rounds []interval
	for i, sp := range spans {
		if sp.Name != obs.SpanScanRound {
			continue
		}
		lo, okLo := spanAttr(sp, "window_lo")
		hi, okHi := spanAttr(sp, "window_hi")
		_, okIO := spanAttr(sp, "io_bytes")
		if blocks, ok := spanAttr(sp, "blocks"); !okLo || !okHi || !okIO || !ok || blocks < 1 {
			t.Fatalf("scan.round span %d is missing one of its window_lo/window_hi/blocks/io_bytes attrs", i)
		}
		rounds = append(rounds, interval{lo, hi})
	}
	if len(rounds) == 0 {
		t.Fatal("trace has no scan.round spans")
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].lo < rounds[j].lo })
	cursor := int64(0)
	for _, c := range rounds {
		if c.lo != cursor {
			t.Fatalf("windows do not tile: next round starts at %d, want %d (gap or overlap)", c.lo, cursor)
		}
		if c.hi <= c.lo {
			t.Fatalf("window [%d, %d) is empty or inverted", c.lo, c.hi)
		}
		cursor = c.hi
	}
	if cursor != edges {
		t.Fatalf("windows cover [0, %d), want the full edge range [0, %d)", cursor, edges)
	}
}

// TestLocalTraceShape: an untraced-by-default local count gains a full
// phase tree when a cursor rides the context — count at the root, with
// orient/plan/calc beneath it, one chunk span per runner and one scan.round
// span per window under calc, the windows tiling the store in as many
// rounds as the plan span says, and the runners dealt, between them, exactly
// the blocks the rounds deal: a round walks its blocks once.
func TestLocalTraceShape(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 10, 12, 5); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	tr := obs.NewTrace(0)
	ctx := obs.ContextWithCursor(context.Background(),
		obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
	res, err := g.Count(ctx, Options{Workers: 2, MemEdges: 512})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, sp := range tr.Spans() {
		names[sp.Name]++
	}
	for _, want := range []string{obs.SpanCount, obs.SpanPlan, obs.SpanCalc, obs.SpanChunk} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}
	meta, err := graph.ReadMeta(res.OrientedBase)
	if err != nil {
		t.Fatal(err)
	}
	roundsTile(t, tr.Spans(), int64(meta.NumEdges))
	wantRounds := (int(meta.NumEdges) + 2*512 - 1) / (2 * 512)
	if names[obs.SpanChunk] != 2 || names[obs.SpanScanRound] != wantRounds || res.Windows != wantRounds {
		t.Errorf("%d chunk spans, %d scan.round spans, Result.Windows %d; want 2, %d, %d",
			names[obs.SpanChunk], names[obs.SpanScanRound], res.Windows, wantRounds, wantRounds)
	}
	var chunkBlocks, roundBlocks int64
	for _, sp := range tr.Spans() {
		b, _ := spanAttr(sp, "blocks")
		switch sp.Name {
		case obs.SpanPlan:
			if w, _ := spanAttr(sp, "windows"); int(w) != wantRounds {
				t.Errorf("plan span says %d windows, want %d", w, wantRounds)
			}
		case obs.SpanChunk:
			chunkBlocks += b
		case obs.SpanScanRound:
			roundBlocks += b
		}
	}
	if chunkBlocks != roundBlocks || roundBlocks == 0 {
		t.Errorf("the runners were dealt %d blocks, the rounds deal %d", chunkBlocks, roundBlocks)
	}
	phaseTree(t, tr)
}

// phaseTree checks a local run's trace: one root count span, plan and calc
// spans under it, and every chunk span beneath calc.
func phaseTree(t *testing.T, tr *obs.Trace) {
	t.Helper()
	spans := tr.Spans()
	under := func(id obs.SpanID, name string) bool {
		for id = spans[id].Parent; id != obs.NoSpan; id = spans[id].Parent {
			if spans[id].Name == name {
				return true
			}
		}
		return false
	}
	names := map[string]int{}
	for i, sp := range spans {
		names[sp.Name]++
		switch sp.Name {
		case obs.SpanCount:
			if sp.Parent != obs.NoSpan {
				t.Error("the count span is not the root")
			}
		case obs.SpanPlan, obs.SpanCalc:
			if !under(obs.SpanID(i), obs.SpanCount) {
				t.Errorf("a %s span is not under count", sp.Name)
			}
		case obs.SpanChunk:
			if !under(obs.SpanID(i), obs.SpanCalc) {
				t.Errorf("chunk span %d is not under calc", i)
			}
		}
	}
	if names[obs.SpanCount] != 1 || names[obs.SpanPlan] != 1 || names[obs.SpanCalc] != 1 || names[obs.SpanChunk] == 0 {
		t.Errorf("spans %v; want one count, plan and calc, and chunks", names)
	}
}
