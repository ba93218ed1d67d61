package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pdtl"
	"pdtl/internal/orient"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredNames checks that every workload and metric name is well
// formed and used once, and that BENCHMARK.json declares exactly what the
// bench emits (metricSet.complete refuses to emit anything undeclared, so
// the declared set is the emitted set).
func TestDeclaredNames(t *testing.T) {
	var doc benchmarkJSON
	if err := readJSONFile(filepath.Join("..", "BENCHMARK.json"), &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . -", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is malformed", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	names, err := workloadNames("full")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(doc.Workloads), len(names))
	}
	for i, w := range doc.Workloads {
		check(w.Name, "")
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the bench %q", i, w.Name, names[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1–200 characters, is %d", w.Name, len(w.Why))
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the bench %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, the bench %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the bench %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		check(m.Name, m.Unit)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, the bench %+v", i, m, d)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {2500, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailPercentile(xs, 99); got != 90 {
		t.Errorf("p99 of 100 samples must fall back to p90 = 90, got %g", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %g, want 50.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "calc", Start: 10, End: 90, Parent: 0},
		// Two runners' chunks overlap each other and cover 20..80 of calc.
		{Name: "chunk", Start: 20, End: 70, Parent: 1},
		{Name: "chunk", Start: 30, End: 80, Parent: 1},
		// A child that runs past its parent is clipped to it.
		{Name: "late", Start: 95, End: 120, Parent: 0},
	}
	want := []int64{100 - 80 - 5, 80 - 60, 50, 50, 25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
	if got := selfByName(spans)["chunk"]; got != 100e-9 {
		t.Errorf("chunk roll-up = %g s, want 100 ns", got)
	}
}

// smokeRun builds a workload's smoke inputs and runs its measure phase in
// this process.
func smokeRun(t *testing.T, name, binDir string, trace bool, tamper func(*manifest)) *phaseResult {
	t.Helper()
	w, err := findWorkload("smoke", name)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := buildInputs(w, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if tamper != nil {
		tamper(man)
	}
	cfg := &runConfig{
		Workload: w, Seed: 1, Seconds: 0, Trace: trace,
		Dir: filepath.Join(dir, "run"), BinDir: binDir, OutDir: filepath.Join(dir, "out"),
		P: 2, Setups: 1, MinReps: 2,
	}
	res, err := measure(context.Background(), cfg, man)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if trace {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: traced run wrote no trace: %v", name, err)
		}
	}
	return res
}

// TestSmokeWorkloads runs all seven workloads on tiny graphs, timed and
// traced: every operation verifies, every end-to-end metric is positive,
// nothing undeclared is emitted, and every declared per-layer metric is
// produced by at least one workload.
func TestSmokeWorkloads(t *testing.T) {
	binDir := t.TempDir()
	build := exec.Command("go", "build", "-C", "..", "-o", binDir+string(filepath.Separator), "./cmd/pdtl-worker", "./cmd/pdtl-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pdtl-worker, pdtl-serve: %v\n%s", err, out)
	}
	names, err := workloadNames("smoke")
	if err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	for _, name := range names {
		timed := smokeRun(t, name, binDir, false, nil)
		values, err := timed.Metrics.complete(endToEnd)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for i, v := range values {
			if !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", name, endToEnd[i].Name, v)
			}
		}
		tr := smokeRun(t, name, binDir, true, nil)
		if _, err := tr.Metrics.complete(perLayer); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for k, v := range tr.Metrics {
			if v != 0 {
				produced[k] = true
			}
		}
		if timed.Failed+tr.Failed != 0 || timed.Attempted == 0 {
			t.Errorf("%s: %d+%d failed of %d+%d attempted", name, timed.Failed, tr.Failed, timed.Attempted, tr.Attempted)
		}
	}
	// Counters that are legitimately 0 on every workload with the engine's
	// defaults (no block-skipping kernel, no hub beyond the window, no
	// failures, no shedding, no dropped spans).
	quiet := map[string]bool{
		"scan.segments_skipped": true, "scan.word_ops": true, "scan.fast_decodes": true,
		"mgt.large_vertices": true, "cluster.failures": true, "service.shed_total": true,
		"obs.spans_dropped": true,
	}
	for _, d := range perLayer {
		if !produced[d.Name] && !quiet[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produced it", d.Name)
		}
	}
}

// TestListingChecksum pins the listing verification to baseline.ForwardList:
// the checksum of a file ListFile wrote equals the manifest's.
func TestListingChecksum(t *testing.T) {
	w, err := findWorkload("smoke", wListInmem)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := buildInputs(w, 7, dir)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "g.oriented")
	if _, err := orient.OrientFormat(man.Graphs[0].Path, base, 2, "plain"); err != nil {
		t.Fatal(err)
	}
	g, err := pdtl.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out := filepath.Join(dir, "listing.bin")
	if _, err := g.ListFile(context.Background(), out, pdtl.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	n, sum, err := sumListing(out)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != man.Graphs[0].Triangles || sum != man.Graphs[0].ListSum {
		t.Errorf("listing: %d triangles sum %x, baseline.ForwardList: %d sum %x", n, sum, man.Graphs[0].Triangles, man.Graphs[0].ListSum)
	}
	if triangleMix(1, 2, 3) != triangleMix(3, 1, 2) || triangleMix(1, 2, 3) == triangleMix(1, 2, 4) {
		t.Error("triangleMix must ignore corner order and tell triangles apart")
	}
}

// TestWrongExpectedCountFails hands the measure phase a deliberately wrong
// expectation: every operation must be reported failed, and the verdict the
// exit code hangs on must be an error.
func TestWrongExpectedCountFails(t *testing.T) {
	res := smokeRun(t, wCountInmem, "", false, func(m *manifest) { m.Graphs[0].Triangles++ })
	if res.Failed != res.Attempted || res.Failed == 0 {
		t.Fatalf("wrong expectation: %d failed of %d attempted, want all", res.Failed, res.Attempted)
	}
	if err := verdict(wCountInmem, res.Attempted, res.Failed); err == nil {
		t.Error("verdict accepted a run with failed operations")
	}
	if err := verdict(wCountInmem, 3, 0); err != nil {
		t.Errorf("verdict rejected a clean run: %v", err)
	}
}

// TestContractLineShape pins the last-line JSON to the contract's keys.
func TestContractLineShape(t *testing.T) {
	out, err := json.Marshal(contractLine{Correct: true, Attempted: 1, Metrics: map[string]contractValue{"wall_s": {1.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}`
	if string(out) != want {
		t.Errorf("contract line = %s, want %s", out, want)
	}
}

// TestPinsCatchDrift checks the input pinning: the pinned seed must match
// pins.json, any other seed is left to the baseline check.
func TestPinsCatchDrift(t *testing.T) {
	var pins pinFile
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	names, err := workloadNames("full")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if len(pins.Workloads[name]) == 0 {
			t.Errorf("pins.json has no entry for %s", name)
		}
	}
	good := &manifest{Workload: wCountInmem, Seed: pins.Seed, Graphs: pins.Workloads[wCountInmem]}
	if err := checkPins(good); err != nil {
		t.Errorf("pinned inputs rejected: %v", err)
	}
	drifted := &manifest{Workload: wCountInmem, Seed: pins.Seed, Graphs: append([]inputGraph(nil), pins.Workloads[wCountInmem]...)}
	drifted.Graphs[0].Triangles++
	if err := checkPins(drifted); err == nil || !strings.Contains(err.Error(), "inputs drifted") {
		t.Errorf("drifted inputs: got %v, want an \"inputs drifted\" error", err)
	}
	drifted.Seed = pins.Seed + 1
	if err := checkPins(drifted); err != nil {
		t.Errorf("unpinned seed must not be checked against the pins: %v", err)
	}
}
