package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/graph"
)

func newHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFormatHelpers(t *testing.T) {
	if got := D(90 * time.Second); got != "1.5m" {
		t.Errorf("D(90s) = %q", got)
	}
	if got := D(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("D(1.5s) = %q", got)
	}
	if got := D(2500 * time.Microsecond); got != "2.5ms" {
		t.Errorf("D(2.5ms) = %q", got)
	}
	if got := D(700 * time.Nanosecond); got != "0µs" {
		t.Errorf("D(700ns) = %q", got)
	}
	if got := N(1234567); got != "1,234,567" {
		t.Errorf("N = %q", got)
	}
	if got := N(999); got != "999" {
		t.Errorf("N = %q", got)
	}
	if got := N(1000); got != "1,000" {
		t.Errorf("N = %q", got)
	}
	if got := Bytes(3 << 20); got != "3.00MiB" {
		t.Errorf("Bytes = %q", got)
	}
	if got := Bytes(512); got != "512B" {
		t.Errorf("Bytes = %q", got)
	}
}

func TestReportTable(t *testing.T) {
	var buf bytes.Buffer
	r := NewReport(&buf)
	r.Title("demo %d", 7)
	r.Table([]string{"A", "LongHeader"}, [][]string{{"x", "1"}, {"yy", "22"}})
	r.Note("note %s", "here")
	out := buf.String()
	for _, want := range []string{"== demo 7 ==", "A   LongHeader", "yy  22", "note here"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestFindExperiments(t *testing.T) {
	if _, err := Find("table2"); err != nil {
		t.Errorf("Find(table2): %v", err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("Find should reject unknown ids")
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Paper == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
}

func TestDatasetRegistry(t *testing.T) {
	if _, err := dataset("twitter-sim"); err != nil {
		t.Error(err)
	}
	if _, err := dataset("missing"); err == nil {
		t.Error("want error for unknown dataset")
	}
}

func TestStoreCachingAndOrientation(t *testing.T) {
	h := newHarness(t)
	base1, err := h.Store("rmat14")
	if err != nil {
		t.Fatal(err)
	}
	base2, err := h.Store("rmat14")
	if err != nil {
		t.Fatal(err)
	}
	if base1 != base2 {
		t.Error("store not cached")
	}
	o1, res1, err := h.Oriented("rmat14", 2)
	if err != nil {
		t.Fatal(err)
	}
	o2, res2, err := h.Oriented("rmat14", 2)
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 || res1 != res2 {
		t.Error("orientation not cached")
	}
	if res1.MaxOutDegree == 0 {
		t.Error("orientation result empty")
	}
}

// TestCompressedStoreRatioTwitterSim pins the tentpole's compression
// acceptance: on the skewed social benchmark graph the compressed oriented
// store is at least 2× smaller per edge than the plain 4 bytes/entry.
func TestCompressedStoreRatioTwitterSim(t *testing.T) {
	if testing.Short() {
		t.Skip("orients the twitter-sim benchmark graph twice")
	}
	h := newHarness(t)
	plainBase, _, err := h.Oriented("twitter-sim", 2)
	if err != nil {
		t.Fatal(err)
	}
	plainBytes, err := graph.StoreAdjBytes(plainBase)
	if err != nil {
		t.Fatal(err)
	}
	h.StoreFormat = graph.FormatCompressed
	compBase, _, err := h.Oriented("twitter-sim", 2)
	if err != nil {
		t.Fatal(err)
	}
	compBytes, err := graph.StoreAdjBytes(compBase)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := graph.ReadMeta(compBase)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != graph.FormatCompressed {
		t.Fatalf("oriented store format = %q, want compressed", meta.Format)
	}
	plainBPE := float64(plainBytes) / float64(meta.NumEdges)
	compBPE := float64(compBytes) / float64(meta.NumEdges)
	t.Logf("twitter-sim oriented: plain %.3f B/edge, compressed %.3f B/edge (%.2fx)",
		plainBPE, compBPE, plainBPE/compBPE)
	if compBytes*2 > plainBytes {
		t.Errorf("compressed store is only %.2fx smaller (%d vs %d bytes), want >= 2x",
			float64(plainBytes)/float64(compBytes), compBytes, plainBytes)
	}
}

func TestMemBudgetsAndCalc(t *testing.T) {
	h := newHarness(t)
	full, err := h.MemFull("rmat14", 2)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := h.MemTight("rmat14", 2)
	if err != nil {
		t.Fatal(err)
	}
	if tight >= full {
		t.Errorf("tight budget %d should be below full %d", tight, full)
	}
	resFull, err := h.CalcLocal("rmat14", 2, full, balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	resTight, err := h.CalcLocal("rmat14", 2, tight, balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	if resFull.Triangles != resTight.Triangles {
		t.Errorf("budgets changed the count: %d vs %d", resFull.Triangles, resTight.Triangles)
	}
	var passesFull, passesTight int
	for _, w := range resFull.Workers {
		passesFull += w.Stats.Passes
	}
	for _, w := range resTight.Workers {
		passesTight += w.Stats.Passes
	}
	if passesTight <= passesFull {
		t.Errorf("tight budget should need more passes: %d vs %d", passesTight, passesFull)
	}
}

func TestRunClusterAgreesWithLocal(t *testing.T) {
	h := newHarness(t)
	full, err := h.MemFull("rmat14", 4)
	if err != nil {
		t.Fatal(err)
	}
	local, err := h.CalcLocal("rmat14", 2, full, balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	run, err := h.RunCluster("rmat14", 2, 2, full, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Triangles != local.Triangles {
		t.Errorf("cluster %d != local %d", run.Triangles, local.Triangles)
	}
	if run.Total < run.Result.TotalTime {
		t.Error("Total must include orientation")
	}
	if len(run.Nodes) != 2 {
		t.Errorf("nodes = %d", len(run.Nodes))
	}
}

func TestOrientTimedCleansUp(t *testing.T) {
	h := newHarness(t)
	base, res, cleanup, err := h.OrientTimed("rmat14", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Error("orientation not timed")
	}
	cleanup()
	if _, _, _, err := h.OrientTimed("rmat14", 2); err != nil {
		t.Fatal(err)
	}
	_ = base
}

func TestWorkHelpers(t *testing.T) {
	h := newHarness(t)
	full, err := h.MemFull("rmat14", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.CalcLocal("rmat14", 2, full, balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	total := Work(res.Workers)
	if total == 0 {
		t.Fatal("work should be nonzero")
	}
	if MaxWorkerWork(res.Workers) > total {
		t.Error("max worker work cannot exceed total")
	}
	groups := [][]coreWorker{res.Workers[:1], res.Workers[1:]}
	if MaxNodeWork(groups) > total {
		t.Error("max node work cannot exceed total")
	}
}

func TestRunChurnExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	h := newHarness(t)
	var buf bytes.Buffer
	if err := h.Run("churn", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"round 5", "after compaction", "exact match, gen 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("churn output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExperimentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	h := newHarness(t)
	var buf bytes.Buffer
	// fig12 touches only the cheapest dataset (rmat14).
	if err := h.Run("fig12", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "PDTL calc") || !strings.Contains(out, "OPT calc") {
		t.Errorf("fig12 output incomplete:\n%s", out)
	}
	if err := h.Run("bogus", &buf); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestBaselineCount(t *testing.T) {
	h := newHarness(t)
	n, err := h.BaselineCount("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("baseline found no triangles in tiny")
	}
	// The baseline must agree with the engine.
	res, err := h.CalcLocal("tiny", 2, 0, balance.InDegree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != n {
		t.Fatalf("engine %d vs baseline %d", res.Triangles, n)
	}
}
