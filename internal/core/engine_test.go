package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/scan"
)

func writeStore(t testing.TB, g *graph.CSR, name string) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), name)
	if err := graph.WriteCSR(base, name, g); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestProcessCountsK20(t *testing.T) {
	g, err := gen.Complete(20)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "k20")
	res, err := Process(context.Background(), base, Options{Workers: 4, MemEdges: 16, Strategy: balance.InDegree})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != gen.CompleteTriangles(20) {
		t.Errorf("triangles = %d, want %d", res.Triangles, gen.CompleteTriangles(20))
	}
	if res.Orientation == nil {
		t.Error("orientation result missing for unoriented input")
	}
	if len(res.Workers) != 4 {
		t.Errorf("worker stats = %d, want 4", len(res.Workers))
	}
	if res.TotalTime < res.CalcTime {
		t.Error("total time should include orientation")
	}
}

func TestProcessWorkerCountInvariance(t *testing.T) {
	g, err := gen.RMAT(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, strategy := range []balance.Strategy{balance.Naive, balance.InDegree} {
			base := writeStore(t, g, "rmat")
			res, err := Process(context.Background(), base, Options{Workers: workers, MemEdges: 500, Strategy: strategy})
			if err != nil {
				t.Fatalf("workers=%d strategy=%v: %v", workers, strategy, err)
			}
			if res.Triangles != want {
				t.Errorf("workers=%d strategy=%v: triangles = %d, want %d",
					workers, strategy, res.Triangles, want)
			}
		}
	}
}

func TestProcessOrientedInput(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 900, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := writeStore(t, g, "er")
	// First run orients; second run feeds the oriented store directly.
	res1, err := Process(context.Background(), base, Options{Workers: 2, MemEdges: 128})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Process(context.Background(), res1.OrientedBase, Options{Workers: 2, MemEdges: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Orientation != nil {
		t.Error("oriented input must skip orientation")
	}
	if res1.Triangles != want || res2.Triangles != want {
		t.Errorf("counts %d/%d, want %d", res1.Triangles, res2.Triangles, want)
	}
}

func TestProcessListing(t *testing.T) {
	g, err := gen.TriGrid(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "tg")
	const workers = 3
	sinks := make([]mgt.Sink, workers)
	counts := make([]mgt.CountSink, workers)
	for i := range sinks {
		sinks[i] = &counts[i]
	}
	res, err := Process(context.Background(), base, Options{Workers: workers, MemEdges: 8, Sinks: sinks})
	if err != nil {
		t.Fatal(err)
	}
	var listed uint64
	for i := range counts {
		listed += counts[i].N
	}
	want := gen.TriGridTriangles(7, 7)
	if res.Triangles != want || listed != want {
		t.Errorf("count=%d listed=%d want=%d", res.Triangles, listed, want)
	}
}

func TestProcessSinkMismatch(t *testing.T) {
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "k6")
	_, err = Process(context.Background(), base, Options{Workers: 3, MemEdges: 8, Sinks: []mgt.Sink{&mgt.CountSink{}}})
	if err == nil {
		t.Fatal("want sink/worker mismatch error")
	}
}

func TestRunRangesRequiresOriented(t *testing.T) {
	g, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "k5")
	d, err := graph.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRanges(context.Background(), d, []balance.Range{{Lo: 0, Hi: 1}}, Options{MemEdges: 4}); err == nil {
		t.Fatal("want error for unoriented store")
	}
}

func TestPlanSubdividesForCluster(t *testing.T) {
	g, err := gen.PowerLaw(500, 5000, 2.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "pl")
	res, err := Process(context.Background(), base, Options{Workers: 2, MemEdges: 256, KeepOriented: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(res.OrientedBase)
	if err != nil {
		t.Fatal(err)
	}
	// A master with 3 nodes × 2 cores asks for 6 ranges.
	plan, err := Plan(d, res.OrientedBase, 6, balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(d.Meta.AdjEntries); err != nil {
		t.Fatal(err)
	}
	groups := plan.Subdivide(3)
	var sum uint64
	for _, ranges := range groups {
		calc, err := RunRanges(context.Background(), d, ranges, Options{Workers: 2, MemEdges: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range calc.Workers {
			sum += w.Stats.Triangles
		}
	}
	if want := baseline.Forward(g); sum != want {
		t.Errorf("cluster-style sum = %d, want %d", sum, want)
	}
}

func TestResultTotalStats(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 600, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "er2")
	res, err := Process(context.Background(), base, Options{Workers: 4, MemEdges: 64})
	if err != nil {
		t.Fatal(err)
	}
	total := res.TotalStats()
	if total.Triangles != res.Triangles {
		t.Errorf("TotalStats.Triangles = %d, want %d", total.Triangles, res.Triangles)
	}
	if total.IO.BytesRead == 0 {
		t.Error("expected I/O accounting in totals")
	}
	// Every runner of the shared window takes part in every round:
	// R = ceil(S/(P·M)).
	for _, w := range res.Workers {
		wantPasses := int((w.Range.Len() + 4*64 - 1) / (4 * 64))
		if w.Stats.Passes != wantPasses || res.Plan.Windows != uint64(wantPasses) {
			t.Errorf("worker %d: passes = %d, plan windows = %d, want %d", w.Worker, w.Stats.Passes, res.Plan.Windows, wantPasses)
		}
	}
	// The paper's layout, by naming its source: per-worker pass counts
	// respect R = ceil(S/M) for each range.
	res, err = Process(context.Background(), base, Options{Workers: 4, MemEdges: 64, Scan: scan.SourceBuffered})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Workers {
		if w.Range.Len() == 0 {
			continue
		}
		wantPasses := int((w.Range.Len() + 63) / 64)
		if w.Stats.Passes != wantPasses {
			t.Errorf("buffered worker %d: passes = %d, want %d", w.Worker, w.Stats.Passes, wantPasses)
		}
	}
}

func TestProcessMissingStore(t *testing.T) {
	if _, err := Process(context.Background(), filepath.Join(t.TempDir(), "missing"), Options{}); err == nil {
		t.Fatal("want error for missing store")
	}
}

func TestProcessLoadBalanceFallbackError(t *testing.T) {
	// An oriented store without its .indeg file cannot use InDegree.
	g, err := gen.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "k8")
	res, err := Process(context.Background(), base, Options{Workers: 2, MemEdges: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(res.OrientedBase + ".indeg"); err != nil {
		t.Fatal(err)
	}
	// (Under a named source, that is: cooperative windows split nothing.)
	if _, err := Process(context.Background(), res.OrientedBase, Options{Workers: 2, MemEdges: 16, Strategy: balance.InDegree, Scan: scan.SourceBuffered}); err == nil {
		t.Fatal("want error when in-degree file is missing")
	}
	if _, err := Process(context.Background(), res.OrientedBase, Options{Workers: 2, MemEdges: 16, Strategy: balance.InDegree}); err != nil {
		t.Fatalf("the default source needs no in-degree file: %v", err)
	}
	// Naive strategy still works.
	res2, err := Process(context.Background(), res.OrientedBase, Options{Workers: 2, MemEdges: 16, Strategy: balance.Naive, Scan: scan.SourceBuffered})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Triangles != gen.CompleteTriangles(8) {
		t.Errorf("triangles = %d", res2.Triangles)
	}
}
